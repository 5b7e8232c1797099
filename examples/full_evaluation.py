#!/usr/bin/env python3
"""Reproduce the paper's §6 evaluation end to end.

Pushes all 64 corpus CVEs through ksplice-create + ksplice-apply on
their running kernels, checking the paper's three success criteria, then
prints the headline results, Figure 3, Table 1, and the §6.3 statistics.

Pass ``--jobs N`` to evaluate the 14 kernel-version groups in N worker
processes (results are byte-identical to the sequential order).
"""

import argparse
import sys
import time

from repro.evaluation import evaluate_corpus
from repro.evaluation.engine import EngineStats


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--jobs", type=int, default=1,
                    help="worker processes (default 1)")
    args = ap.parse_args()

    start = time.time()
    done = []

    def progress(result):
        done.append(result)
        sys.stdout.write("\r  evaluating %2d/64 %-18s"
                         % (len(done), result.cve_id))
        sys.stdout.flush()

    stats = EngineStats()
    report = evaluate_corpus(progress=progress, jobs=args.jobs,
                             stats=stats)
    print("\n  (%.1f s)\n" % (time.time() - start))

    ok = len(report.successes())
    print("=" * 64)
    print("HEADLINE (paper: 64/64 with new code, 56/64 without)")
    print("=" * 64)
    print("updates applied successfully:       %d / %d"
          % (ok, report.total()))
    print("without writing any new code:       %d / %d"
          % (report.no_new_code_count(), report.total()))
    print("patches needing custom code:        %d (mean %.1f lines each)"
          % (len(report.new_code_results()), report.mean_new_code_lines()))

    print("\nFIGURE 3: patches by patch length (changed source lines)")
    for bucket, count in report.patch_length_histogram().items():
        if count:
            print("  %7s : %s (%d)" % (bucket, "#" * count, count))
    print("  <=5 lines: %d   <=15 lines: %d   (paper: 35 and 53)"
          % (report.patches_at_most(5), report.patches_at_most(15)))

    print("\nTABLE 1: patches that cannot be applied without new code")
    print("  %-14s %-9s %-22s %s"
          % ("CVE ID", "Patch ID", "Reason for failure", "New code"))
    for cve, patch, reason, lines in report.table1_rows():
        print("  %-14s %-9s %-22s %d line%s"
              % (cve.replace("CVE-", ""), patch, reason, lines,
                 "s" if lines != 1 else ""))

    print("\nSECTION 6.3 STATISTICS")
    print("  patches touching a function inlined in the run kernel: "
          "%d / 64 (paper: 20)" % report.inlined_count())
    print("  ...of which declared 'inline' in the source:           "
          "%d / 64 (paper: 4)" % report.declared_inline_count())
    print("  patches involving ambiguous symbol names:              "
          "%d / 64 (paper: 5)" % report.ambiguous_count())
    exploited = [r for r in report.exploit_results()
                 if r.exploit_worked_before and r.exploit_blocked_after]
    print("  exploits verified working-then-blocked:                %d "
          "(paper names 4)" % len(exploited))
    stops = [r.stop_ms for r in report.results if r.applied_cleanly]
    print("  stop_machine window: median %.3f ms, max %.3f ms "
          "(paper: ~0.7 ms)"
          % (sorted(stops)[len(stops) // 2], max(stops)))
    helper = sum(r.helper_bytes for r in report.results)
    primary = sum(r.primary_bytes for r in report.results)
    print("  helper vs primary module bytes: %d vs %d (%.1fx; helpers "
          "are unloaded after matching)"
          % (helper, primary, helper / max(primary, 1)))

    print("\nEVALUATION ENGINE")
    print("  %d CVEs in %.1f s with %d job%s (%.1f CVEs/s)%s"
          % (stats.cves, stats.wall_seconds, stats.jobs,
             "s" if stats.jobs != 1 else "", stats.cves_per_second,
             " [fell back to in-process]" if stats.fell_back else ""))
    for name, cache in sorted(stats.caches.items()):
        print("  %-10s cache: %d hits / %d misses (%.0f%% hit rate)"
              % (name, cache.hits, cache.misses, 100 * cache.hit_rate))


if __name__ == "__main__":
    main()
