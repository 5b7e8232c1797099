"""Fleet rollout throughput and rollback latency.

The two numbers the deployment layer is judged on: how fast a green
rollout walks an entire fleet (members updated per second, dominated
by per-member apply + health probing), and how quickly a red wave is
reversed (rollback latency: the LIFO undo of every member the failed
wave patched, read from the wave's ``rollback`` trace stage).

Run directly:

* ``--smoke`` — the CI check: a 4-member fleet, one green rollout
  (must update everyone) and one fault-injected rollout (an oops in
  wave 1; must halt with the wave rolled back and survivors healthy).
* ``--full`` — the acceptance run: a 12-member fleet; records rollout
  throughput and rollback latency into ``BENCH_corpus.json``.

``--smoke`` prints its payload without recording it.  Under pytest
the smoke-sized measurement runs as a benchmark and prints its
payload too.
"""

import time

import perfjson

from repro.evaluation import clear_caches
from repro.fleet import InjectedFault, RolloutPlan, rollout_corpus_cve
from repro.pipeline import Trace

CVE = "CVE-2006-2451"  # analyzer-safe, probed, single-unit update


def _rollback_wall_ms(trace):
    """Wall time of the red wave's ``rollback`` stage, wherever it
    nests."""

    def walk(reports):
        for rep in reports:
            if rep.name == "rollback":
                return rep.wall_ms
            found = walk(rep.children)
            if found is not None:
                return found
        return None

    return walk(trace.reports)


def measure(fleet_size, fault_wave, workload="spinner"):
    """One green rollout and one fault-injected rollout.

    ``workload="stress"`` runs every member under sustained syscall
    load while updates land, so apply-time quiescence (the stop_machine
    stack check) actually has conflicting stacks to retry against.
    Returns ``(payload, failures)``.
    """
    clear_caches()
    plan = RolloutPlan(cve_id=CVE, fleet_size=fleet_size,
                       workload=workload)
    failures = []

    start = time.perf_counter()
    green = rollout_corpus_cve(plan)
    green_s = time.perf_counter() - start
    if green.outcome != "complete":
        failures.append("green rollout ended %r" % green.outcome)
    if len(green.updated_members) != fleet_size:
        failures.append("green rollout updated %d/%d members"
                        % (len(green.updated_members), fleet_size))

    # Fault injection: oops the first member of a later wave; the wave
    # must go red and be fully rolled back.
    sizes = plan.wave_sizes()
    victim = sum(sizes[:fault_wave])
    faulty = RolloutPlan(
        cve_id=CVE, fleet_size=fleet_size, workload=workload,
        faults=[InjectedFault("oops", member=victim, wave=fault_wave)])
    trace = Trace(label="bench-" + faulty.rollout_id())
    start = time.perf_counter()
    red = rollout_corpus_cve(faulty, trace=trace)
    red_s = time.perf_counter() - start
    rollback_ms = _rollback_wall_ms(trace)
    wave = red.red_wave()
    if red.outcome != "halted" or wave is None:
        failures.append("fault-injected rollout ended %r" % red.outcome)
    else:
        undone = [r.member for r in wave.member_reports if r.rolled_back]
        applied = [r.member for r in wave.member_reports if r.applied]
        if sorted(undone) != sorted(applied):
            failures.append("red wave applied %s but undid %s"
                            % (applied, undone))
    if not red.survivors_healthy:
        failures.append("survivors unhealthy after rollback")
    if rollback_ms is None:
        failures.append("no rollback stage in the trace")

    retries = [rep.stack_check_attempts
               for w in green.waves for rep in w.member_reports]
    payload = {
        "fleet_size": fleet_size,
        "workload": workload,
        "quiescence_retries_total": sum(retries),
        "quiescence_retries_max": max(retries) if retries else 0,
        "waves": len(green.waves),
        "green_rollout_wall_s": round(green_s, 3),
        "members_updated_per_s": round(fleet_size / green_s, 2)
        if green_s else 0.0,
        "fault_rollout_wall_s": round(red_s, 3),
        "red_wave_members": len(wave.members) if wave else 0,
        "rollback_latency_ms": round(rollback_ms, 2)
        if rollback_ms is not None else None,
    }
    return payload, failures


def _report(label, payload):
    print("%s: fleet %d updated in %.2fs (%.1f members/s); red wave of "
          "%d rolled back in %.1f ms"
          % (label, payload["fleet_size"],
             payload["green_rollout_wall_s"],
             payload["members_updated_per_s"],
             payload["red_wave_members"],
             payload["rollback_latency_ms"] or 0.0))


def test_fleet_rollout_and_rollback(benchmark):
    payload, failures = benchmark.pedantic(
        lambda: measure(4, fault_wave=1), rounds=1, iterations=1)
    _report("fleet", payload)
    perfjson.show("fleet_smoke", payload)
    assert not failures, failures


def run_smoke():
    payload, failures = measure(4, fault_wave=1)
    _report("smoke", payload)
    perfjson.show("fleet_smoke", payload)
    for failure in failures:
        print("SMOKE FAIL: %s" % failure)
    if not failures:
        print("smoke: OK")
    return 1 if failures else 0


def run_full():
    payload, failures = measure(12, fault_wave=2)
    _report("full", payload)
    perfjson.record("fleet_full", payload)
    # The same fleet again, but serving sustained syscall load while
    # the updates land: members are only quiescent between quanta, so
    # this exercises the stop_machine stack-check retry path and prices
    # rollback latency under real traffic.
    loaded, load_failures = measure(12, fault_wave=2, workload="stress")
    _report("full-under-load", loaded)
    print("  under load: %d quiescence retries (max %d per member)"
          % (loaded["quiescence_retries_total"],
             loaded["quiescence_retries_max"]))
    perfjson.record("fleet_full_under_load", loaded)
    failures += load_failures
    for failure in failures:
        print("FULL FAIL: %s" % failure)
    if not failures:
        print("full: OK (recorded in %s)" % perfjson.DEFAULT_PATH)
    return 1 if failures else 0


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv[1:]:
        sys.exit(run_smoke())
    sys.exit(run_full())
