"""The rollout orchestrator: canary waves over a live fleet.

This is the deployment layer the paper's product story implies (§1:
systems administrators patch *running* machines): boot N simulated
kernels from one shared build, keep them alive with a spinner workload,
then push an :class:`UpdatePack` out in waves —

1. **gate** — the static analyzer already verdicted the pack during
   ``ksplice_create``; a ``reject`` stops the rollout before any
   machine is touched.
2. **wave w** — apply the pack to the next slice of the fleet (wave 0
   is the ``canary`` slice; each green wave multiplies the next slice
   by ``growth``).  Every member's apply runs the full core pipeline
   (run-pre, stop_machine, stack check) with its stages nested under
   the wave's trace node, so ``repro trace`` shows the whole rollout.
3. **health** — run every surviving member for a keepalive slice, then
   gate on :func:`repro.fleet.health.check_machine`: machine liveness
   plus the corpus CVE's semantics probe (patched members must show
   the fixed behaviour, unpatched members the original).
4. **green** → grow and repeat; **red** → LIFO-undo the pack from
   every member this wave patched (earlier green waves stay patched —
   the blast radius of a halt is the failed wave, nothing more), then
   halt.

Failure matrix (who goes red, what gets undone):

====================  =========================  =====================
failure               member outcome             rollback
====================  =========================  =====================
apply raises          ``stack-check-exhausted``  nothing to undo on
(StackCheckError,     / ``apply-failed``         that member (apply is
run-pre, symbols...)                             atomic); wave red
oops after apply      ``oops``                   member undone
probe wrong/faulted   ``probe-failed``           member undone
member killed         ``lost``                   unreachable — recorded
                                                 lost, never undone
====================  =========================  =====================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.core.apply import KspliceCore
from repro.core.update import UpdatePack
from repro.errors import KspliceError, StackCheckError
from repro.fleet.health import HealthPolicy, check_machine
from repro.fleet.model import (
    FAULT_KILL,
    FAULT_OOPS,
    FAULT_WEDGE,
    GREEN,
    MEMBER_APPLY_FAILED,
    MEMBER_LOST,
    MEMBER_OOPS,
    MEMBER_PROBE_FAILED,
    MEMBER_STACK_CHECK,
    MEMBER_UPDATED,
    OUTCOME_GATED,
    OUTCOME_HALTED,
    RED,
    MemberReport,
    RolloutError,
    RolloutPlan,
    RolloutReport,
    WaveReport,
)
from repro.kernel.machine import Machine, boot_kernel
from repro.pipeline.stage import FAILED
from repro.pipeline.trace import Trace

#: the keepalive spinner's tick budget — effectively forever
_SPINNER_TICKS = 1 << 30

#: an unmapped address; jumping here is the injected oops
_OOPS_ADDRESS = 0x10


@dataclass
class FleetMember:
    """One machine in the fleet, with its own update stack."""

    index: int
    machine: Machine
    core: KspliceCore
    alive: bool = True

    @property
    def name(self) -> str:
        return "member-%d" % self.index

    @property
    def updated(self) -> bool:
        return bool(self.core.applied)


@dataclass
class Fleet:
    """N booted kernels sharing one build, kept alive between waves."""

    members: List[FleetMember] = field(default_factory=list)

    @classmethod
    def boot(cls, kernel, size: int,
             stack_check_retries: int = 5,
             retry_run_instructions: int = 2_000,
             workload: str = "spinner") -> "Fleet":
        """Boot ``size`` machines of a generated kernel.

        The tree is compiled once (``run_build_for``'s content cache)
        and linked per member, so a 16-machine fleet costs one build
        plus 16 cheap boots.  Each member gets a ``keepalive`` spinner
        thread: the fleet has *running* kernels between waves, not
        parked ones, so applies land on machines with live stacks.

        ``workload="stress"`` additionally loads real syscall stress
        threads on every member
        (:func:`repro.evaluation.stress.load_sustained_workload`), so
        keepalive slices execute production-like traffic — kernel code
        on thread stacks — instead of an idle spin.
        """
        from repro.evaluation.engine import run_build_for
        from repro.evaluation.stress import load_sustained_workload

        build = run_build_for(kernel)
        fleet = cls()
        for index in range(size):
            machine = boot_kernel(kernel.tree, build=build)
            try:
                machine.create_thread(
                    "sys_spin", args=(_SPINNER_TICKS, 0, 0),
                    name="keepalive-%d" % index)
            except Exception:
                pass  # kernels without sys_spin idle between waves
            if workload == "stress":
                load_sustained_workload(machine)
            fleet.members.append(FleetMember(
                index=index, machine=machine,
                core=KspliceCore(
                    machine,
                    stack_check_retries=stack_check_retries,
                    retry_run_instructions=retry_run_instructions)))
        return fleet

    def alive_members(self) -> List[FleetMember]:
        return [m for m in self.members if m.alive]

    def keepalive(self, instructions: int) -> None:
        for member in self.alive_members():
            member.machine.run(instructions)


class RolloutOrchestrator:
    """Drives one :class:`RolloutPlan` over one :class:`Fleet`."""

    def __init__(self, fleet: Fleet, plan: RolloutPlan,
                 policy: Optional[HealthPolicy] = None,
                 trace: Optional[Trace] = None,
                 kernel_version: str = "",
                 on_wave=None):
        self.fleet = fleet
        self.plan = plan
        self.policy = policy if plan.probe else None
        self.trace = trace if trace is not None else Trace(
            label=plan.rollout_id())
        self.kernel_version = kernel_version
        #: Optional[Callable[[WaveReport], None]]: called the moment a
        #: wave's verdict lands — the control plane streams each wave
        #: into its rollout record so progress is observable live
        self.on_wave = on_wave

    def run(self, pack: UpdatePack, analysis=None) -> RolloutReport:
        """The whole rollout; never raises for in-band failures —
        every red path lands in the report instead."""
        report = RolloutReport(
            rollout_id=self.plan.rollout_id(),
            cve_id=self.plan.cve_id,
            kernel_version=self.kernel_version or pack.kernel_version,
            plan=self.plan)
        if not self._gate(report, analysis):
            return report
        schedule = self.plan.wave_sizes()
        cursor = 0
        for wave_index, size in enumerate(schedule):
            members = [m for m in
                       self.fleet.members[cursor:cursor + size]]
            cursor += size
            wave = WaveReport(index=wave_index,
                              members=[m.index for m in members])
            report.waves.append(wave)
            with self.trace.stage("wave-%d" % wave_index) as rep:
                self._run_wave(wave, members, pack)
                rep.artifacts["verdict"] = wave.verdict
                rep.counters["members"] = len(members)
            if self.on_wave is not None:
                self.on_wave(wave)
            if wave.verdict == RED:
                report.outcome = OUTCOME_HALTED
                break
        self._finish(report)
        return report

    # -- stages --------------------------------------------------------------

    def _gate(self, report: RolloutReport, analysis) -> bool:
        from repro.analysis.model import VERDICT_REJECT

        with self.trace.stage("gate") as rep:
            if analysis is None:
                report.gate_detail = "no analyzer report supplied"
                rep.artifacts["verdict"] = "(none)"
                return True
            report.gate_verdict = analysis.verdict
            rep.artifacts["verdict"] = analysis.verdict
            if analysis.verdict == VERDICT_REJECT:
                findings = analysis.findings_for(VERDICT_REJECT)
                report.gate_detail = (findings[0].detail if findings
                                      else "analyzer rejected the pack")
                report.outcome = OUTCOME_GATED
                rep.outcome = FAILED
                rep.error = ("analyzer verdict 'reject': %s"
                             % report.gate_detail)
                return False
        return True

    def _run_wave(self, wave: WaveReport, members: List[FleetMember],
                  pack: UpdatePack) -> None:
        red = False
        for member in members:
            if not member.alive:
                wave.member_reports.append(MemberReport(
                    member=member.index, outcome=MEMBER_LOST,
                    detail="member was already lost"))
                continue
            member_report = self._apply_to_member(wave, member, pack)
            wave.member_reports.append(member_report)
            if member_report.outcome in (MEMBER_STACK_CHECK,
                                         MEMBER_APPLY_FAILED):
                red = True
            if member_report.outcome == MEMBER_LOST and \
                    member_report.applied:
                # a canary that dies right after being patched is
                # attributed to the update until proven otherwise
                red = True
        # kills aimed at members outside this wave: background host
        # loss, not the update's fault
        for fault in self.plan.faults:
            if fault.kind == FAULT_KILL and fault.wave == wave.index:
                member = self.fleet.members[fault.member]
                if member.alive and fault.member not in wave.members:
                    member.alive = False
        # The health gate runs even when an apply already went red:
        # the wave is doomed either way, but the gate attributes *why*
        # each member is unhealthy (an injected oops shows up as
        # ``oops``, not as an anonymous rolled-back ``updated``).
        with self.trace.stage("health") as rep:
            self.fleet.keepalive(self.plan.keepalive_instructions)
            red = not self._health_gate(wave) or red
            rep.artifacts["verdict"] = RED if red else GREEN
        if red:
            wave.verdict = RED
            with self.trace.stage("rollback") as rep:
                self._rollback_wave(wave, members)
                rep.counters["undone"] = len(wave.rolled_back)
        else:
            wave.verdict = GREEN

    def _apply_to_member(self, wave: WaveReport, member: FleetMember,
                         pack: UpdatePack) -> MemberReport:
        member_report = MemberReport(member=member.index,
                                     outcome=MEMBER_UPDATED)
        faults = self.plan.faults_for(wave.index, member.index)
        with self.trace.stage(member.name):
            for fault in faults:
                if fault.kind == FAULT_WEDGE:
                    self._inject_wedge(member, pack)
            try:
                applied = member.core.apply(pack, trace=self.trace)
                member_report.applied = True
                member_report.stack_check_attempts = \
                    applied.stack_check_attempts
            except StackCheckError as exc:
                member_report.outcome = MEMBER_STACK_CHECK
                member_report.detail = str(exc)
                member_report.stack_check_attempts = \
                    member.core.stack_check_retries
                return member_report
            except KspliceError as exc:
                member_report.outcome = MEMBER_APPLY_FAILED
                member_report.detail = "%s: %s" % (type(exc).__name__,
                                                   exc)
                return member_report
            for fault in faults:
                if fault.kind == FAULT_OOPS:
                    self._inject_oops(member)
                elif fault.kind == FAULT_KILL:
                    member.alive = False
                    member_report.outcome = MEMBER_LOST
                    member_report.detail = \
                        "killed mid-wave after apply"
        return member_report

    def _inject_wedge(self, member: FleetMember,
                      pack: UpdatePack) -> None:
        """Park a sleeping thread inside a to-be-patched function, the
        §5.2 hazard: the stack check must veto every stop_machine
        attempt until retries exhaust."""
        for fn_name in pack.all_changed_functions():
            try:
                thread = member.machine.create_thread(
                    fn_name, args=(0, 0, 0),
                    name="wedged-%s" % fn_name)
            except Exception:
                continue
            member.machine.sleep_thread(thread)
            return
        raise RolloutError("wedge fault: no changed function of %s "
                           "resolves on %s"
                           % (pack.update_id, member.name))

    def _inject_oops(self, member: FleetMember) -> None:
        """Crash one kernel thread (jump to an unmapped address)."""
        member.machine.create_thread(_OOPS_ADDRESS,
                                     name="fault-injected")
        member.machine.run(200)

    def _health_gate(self, wave: WaveReport) -> bool:
        """Probe every live member; update this wave's member reports
        with what the gate saw, and name any unhealthy member outside
        the wave as a bystander.  True = all green."""
        all_healthy = True
        for member in self.fleet.alive_members():
            health = check_machine(member.machine, self.policy,
                                   expect_patched=member.updated)
            member_report = wave.report_for(member.index)
            if member_report is not None:
                member_report.health = health.machine
            if health.healthy:
                continue
            all_healthy = False
            if member_report is None:
                wave.bystanders.append({"member": member.index,
                                        "reason": health.reason_text()})
                continue
            member_report.outcome = (
                MEMBER_OOPS if member.machine.oopses
                else MEMBER_PROBE_FAILED)
            member_report.detail = health.reason_text()
        return all_healthy

    def _rollback_wave(self, wave: WaveReport,
                       members: List[FleetMember]) -> None:
        """LIFO-undo the pack from every member this wave patched.

        Per member the wave's update is the newest on its stack, so
        ``undo_latest`` is exactly the §5.4-legal reversal; a lost
        member is unreachable and stays recorded as lost.
        """
        for member in reversed(members):
            member_report = wave.report_for(member.index)
            if member_report is None or not member_report.applied:
                continue
            if not member.alive:
                continue
            member.core.undo_latest(trace=self.trace)
            member_report.rolled_back = True
            wave.rolled_back.append(member.index)

    def _finish(self, report: RolloutReport) -> None:
        """Final census + survivor health (the acceptance check)."""
        red_members: Set[int] = set()
        red = report.red_wave()
        if red is not None:
            red_members = set(red.members)
            report.rolled_back_members = sorted(red.rolled_back)
        for member in self.fleet.members:
            if not member.alive:
                report.lost_members.append(member.index)
            elif member.updated:
                report.updated_members.append(member.index)
        with self.trace.stage("survivors") as rep:
            survivors = [m for m in self.fleet.alive_members()
                         if m.index not in red_members]
            healthy = True
            for member in survivors:
                health = check_machine(member.machine, self.policy,
                                       expect_patched=member.updated)
                if not health.healthy:
                    healthy = False
            report.survivors_healthy = healthy
            rep.counters["survivors"] = len(survivors)
            rep.artifacts["healthy"] = "yes" if healthy else "no"


def replay_rollback(report: RolloutReport,
                    trace: Optional[Trace] = None) -> RolloutReport:
    """``repro fleet rollback``: reverse everything a rollout left
    applied.

    Simulated machines do not outlive the process that booted them, so
    this is a *replay*: the recorded fleet is rebooted, the update is
    re-applied to the members the report says were updated, and then
    LIFO-undone from each — the undo path itself (stop_machine, stack
    check, reversal order) is the real §5.4 machinery.  The report is
    updated in place (``rolled-back`` outcome) and returned.
    """
    from repro.evaluation.kernels import kernel_for_version
    from repro.fleet.model import OUTCOME_ROLLED_BACK

    if not report.updated_members:
        report.outcome = OUTCOME_ROLLED_BACK
        return report
    trace = trace if trace is not None else Trace(
        label="rollback-%s" % report.rollout_id)
    spec, pack, _analysis = _corpus_update(
        report.cve_id, trace, "unknown CVE id %r in saved rollout")
    with trace.stage("boot-fleet") as rep:
        fleet = Fleet.boot(kernel_for_version(spec.kernel_version),
                           report.plan.fleet_size,
                           workload=report.plan.workload)
        rep.counters["members"] = report.plan.fleet_size
    with trace.stage("replay") as rep:
        for index in sorted(report.updated_members):
            fleet.members[index].core.apply(pack, trace=trace)
        rep.counters["applied"] = len(report.updated_members)
    with trace.stage("rollback") as rep:
        for index in sorted(report.updated_members, reverse=True):
            fleet.members[index].core.undo_latest(trace=trace)
        rep.counters["undone"] = len(report.updated_members)
    healthy = True
    with trace.stage("survivors") as rep:
        for member in fleet.alive_members():
            if not check_machine(member.machine, None,
                                 expect_patched=False).healthy:
                healthy = False
        rep.artifacts["healthy"] = "yes" if healthy else "no"
    report.rolled_back_members = sorted(
        set(report.rolled_back_members) | set(report.updated_members))
    report.updated_members = []
    report.outcome = OUTCOME_ROLLED_BACK
    report.survivors_healthy = healthy
    return report


def rollout_corpus_cve(plan: RolloutPlan,
                       trace: Optional[Trace] = None,
                       on_wave=None) -> RolloutReport:
    """End-to-end: corpus CVE -> pack (analyzer-gated) -> fleet rollout.

    This is what ``repro fleet rollout --cve ...``, the
    ``fleet-rollout`` worker item, and a control-plane publish all
    run; ``on_wave`` (if given) receives each :class:`WaveReport` the
    moment its verdict lands.  The pack comes from the create memo
    (:func:`repro.evaluation.analyze.create_corpus_cve`), so after a
    publish gate analysed the update the fleet applies that same pack.
    """
    from repro.evaluation.kernels import kernel_for_version

    trace = trace if trace is not None else Trace(
        label=plan.rollout_id())
    spec, pack, analysis = _corpus_update(plan.cve_id, trace,
                                          "unknown CVE id %r")
    policy = None
    if plan.probe and spec.probe is not None:
        policy = HealthPolicy.from_probe(spec.probe)
    with trace.stage("boot-fleet") as rep:
        fleet = Fleet.boot(kernel_for_version(spec.kernel_version),
                           plan.fleet_size, workload=plan.workload)
        rep.counters["members"] = plan.fleet_size
    orchestrator = RolloutOrchestrator(
        fleet, plan, policy=policy, trace=trace,
        kernel_version=spec.kernel_version, on_wave=on_wave)
    return orchestrator.run(pack, analysis=analysis)


def _corpus_update(cve_id: str, trace: Trace, unknown: str):
    """A corpus CVE's spec, shippable pack and analyzer report.

    The ``create`` stage records whether the create memo already held
    the update; either way the data-semantics refusal is re-checked,
    so a memo hit refuses exactly what a fresh ``ksplice_create``
    would.
    """
    from repro.evaluation.analyze import create_corpus_cve
    from repro.evaluation.corpus import corpus_by_id

    try:
        spec = corpus_by_id(cve_id)
    except KeyError:
        raise RolloutError(unknown % cve_id)
    with trace.stage("create"):
        created = create_corpus_cve(spec, trace=trace)
        pack = created.shippable_pack()
    return spec, pack, created.analysis
