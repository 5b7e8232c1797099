"""Interpreter vs tracing-JIT throughput on syscall stress workloads.

The rollout story needs fleet members that serve *real* traffic while
updates land (Ksplice §5/§6), which the pure interpreter is too slow
for.  This bench measures what the tracing JIT
(:mod:`repro.kernel.jit`) buys on three stress workloads running on a
real corpus kernel — a compute-bound checksum loop, the sustained
syscall mix the fleet's under-load mode uses, and a file-I/O round
trip — and proves the speedup is free: each workload runs twice on
identically-configured machines, once with the JIT disabled and once
enabled, and the runs must be *architecturally identical* — same
thread exit values, same total instruction count (hence the same
scheduler interleaving), and the same final memory image.

Every timed JIT run starts from an empty trace library, so the
speedups are cold-machine numbers: the machine records and compiles
every trace it runs.  One *warm* rerun per workload then boots another
machine from the same build, which adopts the library's traces instead
(``traces_adopted`` in the payload); it must end in the same
architectural state too.

Timer tick: fleet throughput members run a 500-instruction quantum
(the default 50 optimizes preemption latency, not throughput; a
traced loop then spends most of each quantum in scheduler overhead).
Both ticks are measured — identity is always checked between runs at
the *same* tick — and the headline >=5x acceptance applies to the
throughput tick, where trace bodies amortize dispatch.

Run directly:

* ``--smoke`` — CI-sized: small workloads at the throughput tick;
  asserts identity and that the JIT is not slower.
* ``--full`` — acceptance: full-sized workloads at both ticks;
  asserts identity everywhere and the aggregate >=5x at the
  throughput tick; records per-workload rates and trace hit rates
  into ``BENCH_corpus.json``.

Under pytest the smoke-sized measurement runs as a benchmark.
"""

import gc
import time

import perfjson

from repro.evaluation.engine import run_build_for
from repro.evaluation.kernels import kernel_for_version
from repro.evaluation.stress import STRESS_OK
from repro.kernel import boot_kernel, jit, set_jit_enabled

VERSION = "2.6.16-deb3"

#: the fleet throughput members' timer tick (instructions per quantum)
THROUGHPUT_TICK = 500
DEFAULT_TICK = 50

_COMPUTE = """
int main(void) {
    int acc = 7;
    for (int round = 0; round < %(rounds)d; round++) {
        for (int i = 1; i < 40; i++) {
            acc = (acc * 31 + i) & 65535;
            acc = acc ^ (acc >> 3);
        }
    }
    if (acc < 0) { return 1; }
    if (__syscall(12, 0, 0, 0) <= 0) { return 2; }
    return %(ok)d;
}
"""

_SYSCALL_MIX = """
int main(void) {
    int acc = 7;
    for (int round = 0; round < %(rounds)d; round++) {
        for (int i = 1; i < 40; i++) {
            acc = (acc * 31 + i) & 65535;
            acc = acc ^ (acc >> 3);
        }
        int fd = __syscall(4, 0, 0, 0);
        if (fd < 0) { return 1; }
        int slot = 200 + (round & 7);
        if (__syscall(8, fd, slot, 0) != 0) { return 2; }
        if (__syscall(7, fd, 4000 + round, 0) != 0) { return 3; }
        if (__syscall(8, fd, slot, 0) != 0) { return 4; }
        if (__syscall(6, fd, 0, 0) != 4000 + round) { return 5; }
        if (__syscall(5, fd, 0, 0) != 0) { return 6; }
        if (__syscall(12, 0, 0, 0) <= 0) { return 7; }
        __syscall(9, 0, 0, 0);
    }
    return %(ok)d;
}
"""

_FILE_IO = """
int main(void) {
    int total = 0;
    for (int round = 0; round < %(rounds)d; round++) {
        int fd = __syscall(4, 0, 0, 0);
        if (fd < 0) { return 1; }
        for (int i = 0; i < 8; i++) {
            if (__syscall(8, fd, 64 + i, 0) != 0) { return 2; }
            if (__syscall(7, fd, 900 + i, 0) != 0) { return 3; }
        }
        for (int i = 0; i < 8; i++) {
            if (__syscall(8, fd, 64 + i, 0) != 0) { return 4; }
            total += __syscall(6, fd, 0, 0);
        }
        if (__syscall(5, fd, 0, 0) != 0) { return 5; }
    }
    if (total != %(rounds)d * (900 * 8 + 28)) { return 6; }
    return %(ok)d;
}
"""

#: (name, source, full rounds, smoke rounds) — smoke sizes are large
#: enough that one-time trace compilation amortizes (a few hundred
#: rounds only measure the compiler, not the traces)
WORKLOADS = (
    ("compute", _COMPUTE, 8000, 1500),
    ("syscall-mix", _SYSCALL_MIX, 3000, 250),
    ("file-io", _FILE_IO, 2500, 150),
)


def _memory_digest(machine):
    """Stable digest of the final memory image.

    Trailing zeros are stripped per segment because the JIT fully
    materializes reserved areas it touches (lazy zero-fill reaches the
    same bytes either way).
    """
    return tuple(
        (segment.name, hash(bytes(segment.data).rstrip(b"\0")))
        for segment in machine.memory._segments)


def _run_one(build, tree, source, rounds, quantum, jit_on, cold=True):
    """One run on a fresh machine; a ``cold`` JIT run first empties
    the trace library, so it adopts nothing."""
    if jit_on and cold:
        jit.clear_code_cache()
    prev = set_jit_enabled(jit_on)
    try:
        machine = boot_kernel(tree, build=build, quantum=quantum)
        thread = machine.load_user_program(
            source % {"rounds": rounds, "ok": STRESS_OK}, name="load")
        before = machine.scheduler.total_instructions
        # Collector passes over the piled-up object graphs of earlier
        # machines otherwise steal 10-15% mid-run, drowning the signal.
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            machine.run(max_instructions=80_000_000)
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        insns = machine.scheduler.total_instructions - before
        arch = (thread.exit_value, insns, tuple(thread.cpu.regs),
                _memory_digest(machine))
        return {
            "exit_value": thread.exit_value,
            "insns": insns,
            "seconds": elapsed,
            "rate": insns / elapsed if elapsed else 0.0,
            "arch": arch,
            "trace_stats": machine.trace_stats(),
        }
    finally:
        set_jit_enabled(prev)


def _run_best(build, tree, source, rounds, quantum, jit_on, reps):
    """Best-of-N timing: fresh machine per rep, keep the fastest.

    Architectural results must be identical across reps (same program,
    same quantum — any difference is a determinism bug, not noise), so
    only the timing varies and taking the minimum is sound.
    """
    best = None
    for _ in range(max(1, reps)):
        run = _run_one(build, tree, source, rounds, quantum, jit_on)
        if best is None:
            best = run
        else:
            assert best["arch"] == run["arch"], (
                "non-deterministic rerun: %r vs %r"
                % (best["arch"], run["arch"]))
            if run["seconds"] < best["seconds"]:
                best = run
    return best


def measure(smoke, ticks=(THROUGHPUT_TICK,), reps=1):
    """Run every workload interp-vs-JIT at each tick.

    ``reps`` runs each configuration that many times, keeping the
    fastest (the VM's timing noise is one-sided: a run is only ever
    *slowed* by interference).  Returns ``(payload, failures)``;
    identity failures are fatal.
    """
    kernel = kernel_for_version(VERSION)
    build = run_build_for(kernel)
    failures = []
    payload = {"workloads": {}, "ticks": {}}
    for quantum in ticks:
        total_interp_s = total_jit_s = 0.0
        total_insns = 0
        for name, source, full_rounds, smoke_rounds in WORKLOADS:
            rounds = smoke_rounds if smoke else full_rounds
            interp = _run_best(build, kernel.tree, source, rounds,
                               quantum, jit_on=False, reps=reps)
            cold = _run_best(build, kernel.tree, source, rounds,
                             quantum, jit_on=True, reps=reps)
            warm = _run_one(build, kernel.tree, source, rounds,
                            quantum, jit_on=True, cold=False)
            runs = (("interp", interp), ("jit", cold), ("warm jit", warm))
            for label, run in runs:
                if run["exit_value"] != STRESS_OK:
                    failures.append(
                        "%s/%s/q%d returned %r"
                        % (name, label, quantum, run["exit_value"]))
            for label, run in runs[1:]:
                if interp["arch"] != run["arch"]:
                    failures.append(
                        "%s/q%d architectural divergence: interp %r "
                        "vs %s %r" % (name, quantum, interp["arch"],
                                      label, run["arch"]))
            adopted = warm["trace_stats"]["traces_adopted"]
            if not adopted:
                failures.append("%s/q%d: the warm rerun adopted no "
                                "trace" % (name, quantum))
            total_interp_s += interp["seconds"]
            total_jit_s += cold["seconds"]
            total_insns += interp["insns"]
            stats = cold["trace_stats"]
            payload["workloads"]["%s@q%d" % (name, quantum)] = {
                "insns": interp["insns"],
                "interp_insns_per_s": round(interp["rate"]),
                "jit_insns_per_s": round(cold["rate"]),
                "speedup": round(cold["rate"] / interp["rate"], 2)
                if interp["rate"] else 0.0,
                "trace_hit_rate": round(
                    stats.get("trace_hit_rate", 0.0), 4),
                "traces_compiled": stats.get("traces_compiled", 0),
                "traces_adopted": adopted,
            }
        interp_rate = total_insns / total_interp_s
        jit_rate = total_insns / total_jit_s
        payload["ticks"]["q%d" % quantum] = {
            "interp_insns_per_s": round(interp_rate),
            "jit_insns_per_s": round(jit_rate),
            "speedup": round(jit_rate / interp_rate, 2),
        }
    return payload, failures


def _report(label, payload):
    for tick, numbers in sorted(payload["ticks"].items()):
        print("%s %s: interp %s insns/s, jit %s insns/s (%.2fx)"
              % (label, tick, numbers["interp_insns_per_s"],
                 numbers["jit_insns_per_s"], numbers["speedup"]))
    for name, numbers in sorted(payload["workloads"].items()):
        print("  %-20s %8d -> %8d insns/s (%.2fx, hit %.1f%%, "
              "warm rerun adopted %d)"
              % (name, numbers["interp_insns_per_s"],
                 numbers["jit_insns_per_s"], numbers["speedup"],
                 100 * numbers["trace_hit_rate"],
                 numbers["traces_adopted"]))


def test_interp_throughput_smoke(benchmark):
    payload, failures = benchmark.pedantic(
        lambda: measure(smoke=True), rounds=1, iterations=1)
    _report("smoke", payload)
    perfjson.record("interp_throughput_smoke", payload)
    assert not failures, failures
    assert payload["ticks"]["q%d" % THROUGHPUT_TICK]["speedup"] >= 1.0


def run_smoke():
    payload, failures = measure(smoke=True)
    _report("smoke", payload)
    perfjson.record("interp_throughput_smoke", payload)
    speedup = payload["ticks"]["q%d" % THROUGHPUT_TICK]["speedup"]
    if speedup < 1.0:
        failures.append("jit slower than interpreter (%.2fx)" % speedup)
    for failure in failures:
        print("SMOKE FAIL: %s" % failure)
    if not failures:
        print("smoke: OK")
    return 1 if failures else 0


def run_full():
    payload, failures = measure(
        smoke=False, ticks=(DEFAULT_TICK, THROUGHPUT_TICK), reps=3)
    _report("full", payload)
    perfjson.record("interp_throughput_full", payload)
    speedup = payload["ticks"]["q%d" % THROUGHPUT_TICK]["speedup"]
    if speedup < 5.0:
        failures.append(
            "aggregate speedup %.2fx at the throughput tick is below "
            "the 5x acceptance bar" % speedup)
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
