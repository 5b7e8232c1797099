"""Abstract-interpretation analyzer overhead: proofs must stay cheap.

The interpreter-backed passes (ABI dataflow, hunk equivalence, the
pointer-escape verdict) run as the ``absint`` stage nested inside
every ``analyze`` stage of ksplice-create.  This bench times one
traced pass of the warm ksplice-create — kernels generated, run builds
memoized, compile caches hot — and reads the overhead from the stage
trace itself: the sum of the create's stage walls divided by that sum
minus the ``absint`` stage wall.  It fails if that ratio exceeds
**1.5x**, and checks the proofs are actually there: every report must
come back proven.

Run directly:

* ``--smoke`` — the CI check: 8 CVEs, ratio gate + proof check.
* ``--full`` — all 64 corpus CVEs.

``--full`` (or no argument) records into ``BENCH_corpus.json``;
``--smoke`` prints its payload.  Under pytest the smoke-sized
measurement runs as a benchmark and prints its payload too.
"""

import perfjson

from repro.core.create import CreateReport, ksplice_create
from repro.evaluation import clear_caches
from repro.evaluation.corpus import CORPUS
from repro.evaluation.engine import run_build_for
from repro.evaluation.kernels import kernel_for_version
from repro.pipeline import Trace

#: the acceptance ceiling: create wall / create wall without absint
MAX_RATIO = 1.5


def _specs(count):
    return sorted(CORPUS, key=lambda s: s.cve_id)[:count]


def _create(spec):
    """One traced ksplice-create of ``spec``'s (augmented) patch;
    returns (stage-wall sum ms, absint wall ms, analysis report)."""
    kernel = kernel_for_version(spec.kernel_version)
    patch = kernel.patch_for(spec.cve_id,
                             augmented=spec.table1 is not None)
    trace = Trace(label=spec.cve_id)
    report = CreateReport()
    ksplice_create(kernel.tree, patch, description=spec.description,
                   allow_data_changes=True, report=report,
                   run_build=run_build_for(kernel), trace=trace)
    return (sum(trace.stage_totals().values()),
            trace.stage_ms("analyze/absint"), report.analysis)


def _timed_pass(specs, repeats=3):
    """Create every spec uncached; returns the fastest pass as
    (stage-wall sum s, absint wall s, reports).

    Best-of-``repeats`` so the ratio gate measures the analyzer, not
    scheduler noise on a loaded CI box.
    """
    best = None
    for _ in range(repeats):
        total_ms = absint_ms = 0.0
        reports = []
        for spec in specs:
            create_ms, stage_ms, analysis = _create(spec)
            total_ms += create_ms
            absint_ms += stage_ms
            reports.append(analysis)
        if best is None or total_ms < best[0]:
            best = (total_ms, absint_ms, reports)
    total_ms, absint_ms, reports = best
    return total_ms / 1000.0, absint_ms / 1000.0, reports


def measure(cve_count):
    """Warm-create timing over ``cve_count`` CVEs.

    Returns ``(payload, failures)``.
    """
    clear_caches()
    specs = _specs(cve_count)
    failures = []

    # Warm the kernel/run-build/compile memos so the timed passes
    # measure create itself, not one-time generation costs.
    _timed_pass(specs, repeats=1)

    create_s, absint_s, reports = _timed_pass(specs)
    without_s = create_s - absint_s
    ratio = create_s / without_s if without_s > 0 else float("inf")

    unproven = [spec.cve_id for spec, report in zip(specs, reports)
                if not report.is_proven()]
    if unproven:
        failures.append("unproven reports: %s" % ", ".join(unproven))
    if ratio > MAX_RATIO:
        failures.append("create with absint is %.2fx create without "
                        "it (ceiling %.1fx)" % (ratio, MAX_RATIO))

    payload = {
        "cves": len(specs),
        "create_wall_s": round(create_s, 3),
        "absint_wall_s": round(absint_s, 3),
        "absint_per_cve_ms": round(1000.0 * absint_s / len(specs), 2),
        "ratio": round(ratio, 3),
        "max_ratio": MAX_RATIO,
        "evidence_records": sum(len(r.evidence) for r in reports),
        "proven": len(specs) - len(unproven),
    }
    return payload, failures


def _report(label, payload):
    print("%s: %d CVEs created; stages %.2fs, of which absint %.2fs "
          "(%.2fx, ceiling %.1fx); %d evidence records, %d/%d proven"
          % (label, payload["cves"], payload["create_wall_s"],
             payload["absint_wall_s"], payload["ratio"],
             payload["max_ratio"], payload["evidence_records"],
             payload["proven"], payload["cves"]))


def test_absint_overhead(benchmark):
    payload, failures = benchmark.pedantic(
        lambda: measure(8), rounds=1, iterations=1)
    _report("absint", payload)
    perfjson.show("absint_smoke", payload)
    assert not failures, failures


def run_smoke():
    payload, failures = measure(8)
    _report("smoke", payload)
    perfjson.show("absint_smoke", payload)
    for failure in failures:
        print("SMOKE FAIL: %s" % failure)
    if not failures:
        print("smoke: OK")
    return 1 if failures else 0


def run_full():
    payload, failures = measure(len(CORPUS))
    _report("full", payload)
    perfjson.record("absint_full", payload)
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
