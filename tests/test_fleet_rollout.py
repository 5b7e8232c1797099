"""Tests for the fleet rollout service: canary waves, health gating,
fault injection, automatic LIFO rollback, and the report model."""

import json

import pytest

from repro.fleet import (
    GREEN,
    OUTCOME_COMPLETE,
    OUTCOME_GATED,
    OUTCOME_HALTED,
    OUTCOME_ROLLED_BACK,
    RED,
    Fleet,
    InjectedFault,
    RolloutError,
    RolloutOrchestrator,
    RolloutPlan,
    RolloutReport,
    check_machine,
    replay_rollback,
    rollout_corpus_cve,
)
from repro.fleet.model import (
    MEMBER_LOST,
    MEMBER_OOPS,
    MEMBER_STACK_CHECK,
    MEMBER_UPDATED,
)

CVE = "CVE-2006-2451"  # analyzer-safe, has a semantics probe


# -- plan and fault model -----------------------------------------------------


def test_wave_sizes_canary_then_exponential():
    plan = RolloutPlan(cve_id=CVE, fleet_size=10, canary=1, growth=2)
    assert plan.wave_sizes() == [1, 2, 4, 3]
    assert sum(plan.wave_sizes()) == 10
    plan = RolloutPlan(cve_id=CVE, fleet_size=4, canary=2, growth=3)
    assert plan.wave_sizes() == [2, 2]


def test_plan_validation():
    with pytest.raises(RolloutError):
        RolloutPlan(cve_id=CVE, fleet_size=0)
    with pytest.raises(RolloutError):
        RolloutPlan(cve_id=CVE, fleet_size=2, canary=3)
    with pytest.raises(RolloutError):
        RolloutPlan(cve_id=CVE, fleet_size=2, growth=0)
    with pytest.raises(RolloutError):
        RolloutPlan(cve_id=CVE, fleet_size=2,
                    faults=[InjectedFault("oops", member=7)])


def test_fault_parse():
    fault = InjectedFault.parse("oops", "3:1")
    assert (fault.kind, fault.member, fault.wave) == ("oops", 3, 1)
    assert InjectedFault.parse("kill", "2").wave == 0
    with pytest.raises(RolloutError):
        InjectedFault.parse("oops", "three:one")
    with pytest.raises(RolloutError):
        InjectedFault("melt", member=0)


def test_plan_round_trips_through_json():
    plan = RolloutPlan(cve_id=CVE, fleet_size=6, canary=2, growth=3,
                       keepalive_instructions=500, probe=False,
                       faults=[InjectedFault.parse("wedge", "3:1")])
    clone = RolloutPlan.from_json_dict(
        json.loads(json.dumps(plan.to_json_dict())))
    assert clone == plan


# -- machine health primitives ------------------------------------------------


def _corpus_member():
    from repro.evaluation.kernels import kernel_for_version

    return Fleet.boot(kernel_for_version("2.6.16-deb3"), 1).members[0]


def test_machine_health_and_sleep_wake():
    member = _corpus_member()
    machine = member.machine
    health = machine.health()
    assert health.healthy
    assert health.oops_count == 0
    assert health.blocked_threads == 0

    spinner = [t for t in machine.scheduler.threads
               if t.name.startswith("keepalive")][0]
    machine.sleep_thread(spinner)
    assert machine.health().blocked_threads == 1
    # A blocked thread is alive (the stack check must scan it) but not
    # runnable (the scheduler must skip it).
    assert spinner.alive and not spinner.runnable
    machine.run(500)  # must not wedge on the blocked thread
    machine.wake_thread(spinner)
    assert machine.health().blocked_threads == 0
    with pytest.raises(Exception):
        machine.wake_thread(spinner)  # only BLOCKED threads wake


def test_oops_makes_machine_unhealthy():
    member = _corpus_member()
    machine = member.machine
    machine.create_thread(0x10, name="crasher")
    machine.run(200)
    health = machine.health()
    assert not health.healthy
    assert health.oops_count >= 1
    result = check_machine(machine, None, expect_patched=False)
    assert not result.healthy
    assert "oops" in result.reason_text()


# -- rollouts -----------------------------------------------------------------


def test_green_rollout_updates_whole_fleet():
    plan = RolloutPlan(cve_id=CVE, fleet_size=4, canary=1, growth=2)
    report = rollout_corpus_cve(plan)
    assert report.outcome == OUTCOME_COMPLETE
    assert report.gate_verdict == "safe"
    assert [w.verdict for w in report.waves] == [GREEN, GREEN, GREEN]
    assert [sorted(w.members) for w in report.waves] == [[0], [1, 2], [3]]
    assert report.updated_members == [0, 1, 2, 3]
    assert report.rolled_back_members == []
    assert report.survivors_healthy


def test_acceptance_oops_and_wedge_roll_back_the_wave():
    """The issue's acceptance scenario: one member oopses after its
    apply, another's stack check exhausts; the wave goes red, every
    member it patched is LIFO-undone, earlier waves stay patched."""
    plan = RolloutPlan(
        cve_id=CVE, fleet_size=6, canary=2,
        faults=[InjectedFault.parse("oops", "2:1"),
                InjectedFault.parse("wedge", "3:1")])
    report = rollout_corpus_cve(plan)
    assert report.outcome == OUTCOME_HALTED
    assert [w.verdict for w in report.waves] == [GREEN, RED]
    red = report.red_wave()
    assert sorted(red.members) == [2, 3, 4, 5]

    oopsed = red.report_for(2)
    assert oopsed.outcome == MEMBER_OOPS
    assert oopsed.applied and oopsed.rolled_back

    wedged = red.report_for(3)
    assert wedged.outcome == MEMBER_STACK_CHECK
    assert not wedged.applied  # apply is atomic: nothing to undo
    assert wedged.stack_check_attempts == 5
    assert "stop_machine attempts" in wedged.detail

    for index in (4, 5):
        innocent = red.report_for(index)
        assert innocent.outcome == MEMBER_UPDATED
        assert innocent.rolled_back

    # Blast radius is the failed wave: the canary wave stays patched.
    assert report.updated_members == [0, 1]
    assert report.rolled_back_members == [2, 4, 5]
    assert report.survivors_healthy


def test_kill_in_wave_is_lost_and_never_undone():
    plan = RolloutPlan(
        cve_id=CVE, fleet_size=3, canary=1,
        faults=[InjectedFault.parse("kill", "1:1")])
    report = rollout_corpus_cve(plan)
    assert report.outcome == OUTCOME_HALTED
    red = report.red_wave()
    lost = red.report_for(1)
    assert lost.outcome == MEMBER_LOST
    assert not lost.rolled_back  # unreachable machines cannot be undone
    assert report.lost_members == [1]
    assert 1 not in report.rolled_back_members


def test_red_health_gate_names_the_bystander_that_caused_it():
    """CVE-2005-3847's probe is stateful: every health gate re-probes
    the still-unpatched member 3, whose value then drifts.  Wave 1's
    own members are fine, so the red is attributed to member 3 as a
    bystander, with the probe's reason."""
    report = rollout_corpus_cve(RolloutPlan("CVE-2005-3847", fleet_size=4))
    assert report.outcome == OUTCOME_HALTED
    assert [w.verdict for w in report.waves] == [GREEN, RED]
    red = report.red_wave()
    assert all(r.outcome == MEMBER_UPDATED for r in red.member_reports)
    assert [b["member"] for b in red.bystanders] == [3]
    reason = red.bystanders[0]["reason"]
    assert "probe sys_futq_tick returned" in reason
    assert "unpatched member" in reason
    assert report.waves[0].bystanders == []
    assert "member 3   bystander (%s)" % reason in report.render()
    clone = RolloutReport.from_json_dict(json.loads(report.to_json()))
    assert clone.red_wave().bystanders == red.bystanders
    assert clone.to_json() == report.to_json()


def test_wave_json_without_bystanders_defaults_empty():
    data = json.loads(rollout_corpus_cve(
        RolloutPlan(cve_id=CVE, fleet_size=1)).to_json())
    for wave in data["waves"]:
        del wave["bystanders"]
    clone = RolloutReport.from_json_dict(data)
    assert all(w.bystanders == [] for w in clone.waves)


def test_reject_verdict_gates_the_rollout():
    from repro.evaluation.kernels import kernel_for_version

    class FakeAnalysis:
        verdict = "reject"

        def findings_for(self, verdict):
            return []

    fleet = Fleet.boot(kernel_for_version("2.6.16-deb3"), 2)
    plan = RolloutPlan(cve_id=CVE, fleet_size=2)
    orch = RolloutOrchestrator(fleet, plan)
    report = orch.run(pack=_any_pack(), analysis=FakeAnalysis())
    assert report.outcome == OUTCOME_GATED
    assert report.gate_verdict == "reject"
    assert report.waves == []  # no machine was touched
    assert report.updated_members == []


def _any_pack():
    from repro.core.create import CreateReport, ksplice_create
    from repro.evaluation.corpus import corpus_by_id
    from repro.evaluation.engine import run_build_for
    from repro.evaluation.kernels import kernel_for_version

    spec = corpus_by_id(CVE)
    kernel = kernel_for_version(spec.kernel_version)
    return ksplice_create(kernel.tree, kernel.patch_for(CVE),
                          description=spec.description,
                          report=CreateReport(),
                          run_build=run_build_for(kernel))


def test_unknown_cve_raises():
    with pytest.raises(RolloutError):
        rollout_corpus_cve(RolloutPlan(cve_id="CVE-0000-0000"))


# -- report model -------------------------------------------------------------


def test_report_json_is_deterministic_and_round_trips():
    plan = RolloutPlan(
        cve_id=CVE, fleet_size=4, canary=1,
        faults=[InjectedFault.parse("oops", "1:1")])
    first = rollout_corpus_cve(plan)
    second = rollout_corpus_cve(plan)
    assert first.to_json() == second.to_json()
    clone = RolloutReport.from_json_dict(json.loads(first.to_json()))
    assert clone.to_json() == first.to_json()
    rendered = first.render()
    assert "oops" in rendered and "rolled back" in rendered


def test_replay_rollback_reverses_updated_members():
    plan = RolloutPlan(cve_id=CVE, fleet_size=3)
    report = rollout_corpus_cve(plan)
    assert report.updated_members == [0, 1, 2]
    report = replay_rollback(report)
    assert report.outcome == OUTCOME_ROLLED_BACK
    assert report.updated_members == []
    assert report.rolled_back_members == [0, 1, 2]
    assert report.survivors_healthy
