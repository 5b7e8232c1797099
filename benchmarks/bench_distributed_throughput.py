"""Distributed evaluation fabric throughput (workers vs local).

The headline comparison the ROADMAP tracks: the full corpus on one
cold in-process evaluator (``jobs=1``) versus a persistent four-worker
fleet sharing a disk cache tier.  On a many-core host the fleet also
wins on raw parallelism; on a single-core host the win comes from the
fleet staying *warm* across runs — worker processes outlive any one
``evaluate_corpus`` call and the shared disk tier serves every worker
— which is exactly the deployment story (long-lived workers, many
evaluation requests).  The recorded JSON says which states were
measured, so the numbers cannot be mistaken for a cold/cold CPU-only
comparison.

Run directly:

* ``--smoke`` — the CI check: two spawned localhost workers, a 6-CVE
  slice, results must be byte-identical (after ``normalize_result``)
  to a sequential pass.
* ``--full`` — the acceptance run: full corpus, cold ``jobs=1``
  baseline vs the warm 4-worker fleet; asserts the >=1.5x speedup and
  records both numbers in ``BENCH_corpus.json``.

``--smoke`` prints its payload without recording it.  Under pytest
the full-sized measurement runs as a benchmark and prints its payload
too.
"""

import shutil
import tempfile
import time

import perfjson

from repro.compiler.cache import disable_disk_cache, enable_disk_cache
from repro.distributed import spawn_local_workers
from repro.evaluation import CORPUS, clear_caches, evaluate_corpus, \
    normalize_result
from repro.evaluation.engine import EngineStats

_RUN_STRESS = False  # identical in every variant; see corpus bench


def _distributed(specs, addresses, stats=None):
    stats = stats if stats is not None else EngineStats()
    start = time.perf_counter()
    report = evaluate_corpus(specs, run_stress=_RUN_STRESS, stats=stats,
                             workers=addresses)
    elapsed = time.perf_counter() - start
    if stats.fell_back:
        raise AssertionError("distributed run fell back: %s"
                             % stats.fallback_reason)
    return report, stats, elapsed


def measure_full():
    """Cold ``jobs=1`` vs a warm 4-worker fleet on the full corpus.

    Returns ``(payload, failures)`` — the JSON payload for
    ``BENCH_corpus.json`` and a list of acceptance failures.
    """
    clear_caches()
    start = time.perf_counter()
    baseline = evaluate_corpus(run_stress=_RUN_STRESS)
    cold_jobs1_s = time.perf_counter() - start
    expected = [normalize_result(r) for r in baseline.results]

    root = tempfile.mkdtemp(prefix="repro-bench-dist-")
    workers = []
    failures = []
    try:
        # The handshake ships this config to every worker, so the whole
        # fleet shares one disk tier: warmth survives both worker
        # round-robin placement and coordinator restarts.
        enable_disk_cache(root, max_entries=4096)
        clear_caches()
        workers = spawn_local_workers(4)
        addresses = [w.address for w in workers]

        first, _, fleet_cold_s = _distributed(None, addresses)
        warm_stats = EngineStats()
        second, warm_stats, fleet_warm_s = _distributed(
            None, addresses, warm_stats)

        for label, report in (("fleet-cold", first),
                              ("fleet-warm", second)):
            got = [normalize_result(r) for r in report.results]
            if got != expected:
                failures.append("%s results differ from sequential"
                                % label)
        speedup = cold_jobs1_s / fleet_warm_s if fleet_warm_s else 0.0
        if speedup < 1.5:
            failures.append(
                "warm 4-worker fleet %.2fs vs cold jobs=1 %.2fs: "
                "%.2fx < 1.5x" % (fleet_warm_s, cold_jobs1_s, speedup))
        combined = warm_stats.combined_cache_stats()
        payload = {
            "cves": len(CORPUS),
            "cold_jobs1_wall_s": round(cold_jobs1_s, 3),
            "fleet_cold_wall_s": round(fleet_cold_s, 3),
            "fleet_warm_wall_s": round(fleet_warm_s, 3),
            "speedup_warm_fleet_vs_cold_jobs1": round(speedup, 2),
            "workers": warm_stats.workers,
            "work_items": warm_stats.work_items,
            "retries": warm_stats.retries,
            "warm_pass_cache_hit_rate": round(combined.hit_rate, 3),
            "states": "baseline: cold caches, jobs=1 in-process; "
                      "fleet passes: 4 persistent workers sharing a "
                      "disk tier, second pass warm",
        }
    finally:
        for worker in workers:
            worker.stop()
        disable_disk_cache()
        clear_caches()
        shutil.rmtree(root, ignore_errors=True)
    return payload, failures


def test_warm_fleet_beats_cold_jobs1(benchmark):
    payload, failures = benchmark.pedantic(measure_full, rounds=1,
                                           iterations=1)
    print("\ndistributed: cold jobs=1 %.2fs, 4-worker fleet %.2fs cold "
          "/ %.2fs warm (%.2fx), %d work items, %d retries"
          % (payload["cold_jobs1_wall_s"], payload["fleet_cold_wall_s"],
             payload["fleet_warm_wall_s"],
             payload["speedup_warm_fleet_vs_cold_jobs1"],
             payload["work_items"], payload["retries"]))
    perfjson.show("distributed_full", payload)
    assert not failures, failures


def run_smoke():
    """CI-sized check (returns an exit status): two localhost workers,
    a 6-CVE slice, byte-identical to sequential after normalization."""
    specs = CORPUS[:6]
    failures = []

    clear_caches()
    start = time.perf_counter()
    sequential = evaluate_corpus(specs, run_stress=_RUN_STRESS)
    sequential_s = time.perf_counter() - start
    expected = [normalize_result(r) for r in sequential.results]

    clear_caches()
    workers = spawn_local_workers(2)
    stats = EngineStats()
    try:
        report, stats, distributed_s = _distributed(
            specs, [w.address for w in workers], stats)
    finally:
        for worker in workers:
            worker.stop()

    got = [normalize_result(r) for r in report.results]
    if got != expected:
        failures.append("distributed results differ from sequential")
    if stats.workers != 2:
        failures.append("expected 2 workers, saw %d" % stats.workers)
    if stats.work_items != len(specs):
        failures.append("expected per-CVE stealing (%d items), saw %d"
                        % (len(specs), stats.work_items))

    print("smoke: %d CVEs, %.2fs sequential, %.2fs over %d workers, "
          "%d work items, %d retries"
          % (len(specs), sequential_s, distributed_s, stats.workers,
             stats.work_items, stats.retries))
    perfjson.show("distributed_smoke", {
        "cves": len(specs),
        "sequential_wall_s": round(sequential_s, 3),
        "distributed_wall_s": round(distributed_s, 3),
        "workers": stats.workers,
        "work_items": stats.work_items,
        "retries": stats.retries,
        "identical_to_sequential": not failures,
    })
    for failure in failures:
        print("SMOKE FAIL: %s" % failure)
    if not failures:
        print("smoke: OK")
    return 1 if failures else 0


def run_full():
    payload, failures = measure_full()
    perfjson.record("distributed_full", payload)
    print("full: cold jobs=1 %.2fs, fleet %.2fs cold / %.2fs warm "
          "(%.2fx with %d workers)"
          % (payload["cold_jobs1_wall_s"], payload["fleet_cold_wall_s"],
             payload["fleet_warm_wall_s"],
             payload["speedup_warm_fleet_vs_cold_jobs1"],
             payload["workers"]))
    for failure in failures:
        print("FULL FAIL: %s" % failure)
    if not failures:
        print("full: OK (recorded in %s)" % perfjson.DEFAULT_PATH)
    return 1 if failures else 0


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv[1:]:
        sys.exit(run_smoke())
    if "--full" in sys.argv[1:]:
        sys.exit(run_full())
    print("usage: python benchmarks/bench_distributed_throughput.py "
          "--smoke | --full\n"
          "(the benchmarks also run under pytest-benchmark)")
    sys.exit(2)
