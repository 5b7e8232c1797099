"""Corpus-scale evaluation throughput (the engine's three layers).

The full §6 run pushes 64 CVEs through create+apply on 14 kernel
versions.  These benchmarks measure what the evaluation engine buys:

* sequential throughput with the content-addressed caches cold vs warm,
  and with the caches disabled entirely (the seed's effective behaviour
  minus the old bare build memo);
* parallel (``jobs=4``) wall clock, and that its results are identical
  to the sequential order;
* cache hit rates over a full pass.

Absolute times depend on the host; the assertions check relative
speedups and exact result equality, not wall-clock constants.

Run directly with ``--smoke`` (no pytest needed) for the CI-sized
check: a small corpus slice evaluated twice against an on-disk cache
tier, simulating a process restart in between — the second, disk-warm
pass must win and produce identical results, and ``clear_caches()``
must leave the cache directory empty.  The smoke prints its payload;
run with no argument to record the headline (``corpus_headline``) in
``BENCH_corpus.json``.  Under pytest the headline is measured and
printed, not recorded.
"""

import time

import perfjson

from repro.compiler.cache import COMPILE_CACHE, PARSE_CACHE
from repro.evaluation import (
    clear_caches,
    evaluate_corpus,
    normalize_result,
)
from repro.evaluation.engine import EngineStats

#: Stress/exploit phases dominate and are identical in every variant;
#: skipping them sharpens the cache comparison and keeps rounds short.
_RUN_STRESS = False


def _run(jobs=1, cold=True):
    if cold:
        clear_caches()
    stats = EngineStats()
    start = time.perf_counter()
    report = evaluate_corpus(run_stress=_RUN_STRESS, jobs=jobs,
                             stats=stats)
    return report, stats, time.perf_counter() - start


def test_sequential_cache_speedup(benchmark):
    """Caches off vs cold vs warm, one sequential pass each.

    The "uncached" variant disables only the parse/compile caches and
    keeps the run-build memo, which is what the seed harness had — so
    the ratio isolates what the new content-addressed layer buys.
    """
    PARSE_CACHE.enabled = COMPILE_CACHE.enabled = False
    try:
        clear_caches()
        _, _, uncached = _run()
    finally:
        PARSE_CACHE.enabled = COMPILE_CACHE.enabled = True
    report, _, cold = _run()
    _, warm_stats, warm = _run(cold=False)

    benchmark.pedantic(lambda: evaluate_corpus(run_stress=_RUN_STRESS),
                       rounds=1, iterations=1)
    print("\ncorpus, sequential: %.2fs uncached, %.2fs cold caches "
          "(%.2fx), %.2fs warm (%.2fx)"
          % (uncached, cold, uncached / cold, warm, uncached / warm))
    rate = warm_stats.combined_cache_stats().hit_rate
    print("warm-pass cache hit rate: %.0f%%" % (100 * rate))
    assert len(report.successes()) == report.total()
    # Acceptance: caching alone buys >=1.3x on a sequential pass.
    assert uncached / cold >= 1.3
    assert warm <= cold
    assert rate > 0.9


def test_parallel_matches_sequential(benchmark):
    seq_report, _, seq_time = _run()
    par_report, par_stats, par_time = benchmark.pedantic(
        lambda: _run(jobs=4), rounds=1, iterations=1)
    print("\ncorpus: %.2fs sequential (cold), %.2fs with jobs=4 "
          "(%d groups%s)"
          % (seq_time, par_time, par_stats.groups,
             ", fell back" if par_stats.fell_back else ""))
    assert [normalize_result(r) for r in par_report.results] == \
        [normalize_result(r) for r in seq_report.results]
    assert not par_stats.fell_back


def measure_headline():
    """CVEs/second with everything on — the number ROADMAP tracks.
    Returns the report and the payload."""
    clear_caches()
    stats = EngineStats()
    report = evaluate_corpus(run_stress=_RUN_STRESS, jobs=4, stats=stats)
    print("\nheadline: %d CVEs in %.2fs = %.1f CVEs/s (jobs=%d)"
          % (stats.cves, stats.wall_seconds, stats.cves_per_second,
             stats.jobs))
    for name, cache in sorted(stats.caches.items()):
        print("  %-10s cache: %d hits / %d misses (%.0f%% hit rate)"
              % (name, cache.hits, cache.misses, 100 * cache.hit_rate))
    return report, {
        "cves": stats.cves,
        "jobs": stats.jobs,
        "cold_wall_s": round(stats.wall_seconds, 3),
        "cves_per_second": round(stats.cves_per_second, 2),
        "cache_hit_rate": round(
            stats.combined_cache_stats().hit_rate, 3),
    }


def test_throughput_headline(benchmark):
    report, payload = benchmark.pedantic(measure_headline, rounds=1,
                                         iterations=1)
    perfjson.show("corpus_headline", payload)
    assert len(report.successes()) == report.total()


def run_headline() -> int:
    """The recording run: the headline into ``BENCH_corpus.json``."""
    report, payload = measure_headline()
    perfjson.record("corpus_headline", payload)
    if len(report.successes()) != report.total():
        print("HEADLINE FAIL: %d/%d CVEs failed"
              % (report.total() - len(report.successes()),
                 report.total()))
        return 1
    print("headline: OK (recorded in %s)" % perfjson.DEFAULT_PATH)
    return 0


def run_smoke() -> int:
    """Disk-tier smoke check (CI entry point; returns an exit status).

    Cold pass populates a temp disk cache; the memory tiers and the
    generated-kernel memo are then dropped — everything a process
    restart would lose — and the second pass must be served from disk:
    faster, with disk hits, byte-identical results after normalization.
    Finishes with the hygiene check: the disk tier stays within its
    entry bound and ``clear_caches()`` leaves the directory empty.
    """
    import os
    import shutil
    import tempfile

    from repro.compiler.cache import (
        disable_disk_cache,
        drop_memory_tiers,
        enable_disk_cache,
    )
    from repro.evaluation import CORPUS, kernel_for_version

    specs = CORPUS[:8]
    root = tempfile.mkdtemp(prefix="repro-smoke-cache-")
    failures = []
    try:
        enable_disk_cache(root, max_entries=256)
        clear_caches()

        cold_stats = EngineStats()
        start = time.perf_counter()
        cold = evaluate_corpus(specs, run_stress=False, stats=cold_stats)
        cold_s = time.perf_counter() - start

        # Simulate a process restart: memory tiers and the kernel memo
        # are gone, only the disk tier survives.
        drop_memory_tiers()
        kernel_for_version.cache_clear()

        warm_stats = EngineStats()
        start = time.perf_counter()
        warm = evaluate_corpus(specs, run_stress=False, stats=warm_stats)
        warm_s = time.perf_counter() - start

        disk_hits = warm_stats.combined_cache_stats().disk_hits
        print("smoke: %d CVEs, %.2fs cold, %.2fs disk-warm (%.2fx), "
              "%d disk hits"
              % (len(specs), cold_s, warm_s,
                 cold_s / warm_s if warm_s else 0.0, disk_hits))
        perfjson.show("corpus_smoke", {
            "cves": len(specs),
            "jobs": 1,
            "cold_wall_s": round(cold_s, 3),
            "disk_warm_wall_s": round(warm_s, 3),
            "disk_hits": disk_hits,
            "warm_pass_cache_hit_rate": round(
                warm_stats.combined_cache_stats().hit_rate, 3),
        })
        for name, timing in sorted(warm_stats.stages.items()):
            print("  stage %-12s %5d calls %8.1f ms" %
                  (name, timing.calls, timing.wall_ms))

        if not len(cold.results) == len(warm.results) == len(specs):
            failures.append("result counts differ")
        if [normalize_result(r) for r in cold.results] != \
                [normalize_result(r) for r in warm.results]:
            failures.append("disk-warm results differ from cold results")
        if disk_hits <= 0:
            failures.append("second pass recorded no disk hits")
        if warm_s >= cold_s:
            failures.append("disk-warm pass (%.2fs) not faster than "
                            "cold (%.2fs)" % (warm_s, cold_s))

        def disk_entries():
            found = []
            for dirpath, _dirs, files in os.walk(root):
                found.extend(os.path.join(dirpath, f) for f in files
                             if f.endswith(".pkl"))
            return found

        # hygiene: each cache's subdirectory stays within its bound...
        for name in sorted(os.listdir(root)):
            subdir = os.path.join(root, name)
            if not os.path.isdir(subdir):
                continue
            count = len([f for f in os.listdir(subdir)
                         if f.endswith(".pkl")])
            if count > 256:
                failures.append("disk tier %s unbounded: %d entries"
                                % (name, count))
        # ... and clear_caches() wipes every tier, disk included
        clear_caches()
        leftovers = disk_entries()
        if leftovers:
            failures.append("clear_caches() left %d files on disk"
                            % len(leftovers))
    finally:
        disable_disk_cache()
        clear_caches()
        shutil.rmtree(root, ignore_errors=True)
    for failure in failures:
        print("SMOKE FAIL: %s" % failure)
    if not failures:
        print("smoke: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv[1:]:
        sys.exit(run_smoke())
    if sys.argv[1:]:
        print("usage: python benchmarks/bench_corpus_throughput.py "
              "[--smoke]\n(no argument records the headline; the full "
              "benchmarks run under pytest-benchmark)")
        sys.exit(2)
    sys.exit(run_headline())
