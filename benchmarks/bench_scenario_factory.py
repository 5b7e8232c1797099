"""Scenario-factory throughput and ground-truth fidelity at scale.

Two sizes of the same experiment:

* ``--smoke`` (CI): a 32-scenario corpus — generation must be
  deterministic (two runs, byte-identical manifests), the evaluation
  sweep must reproduce every stamped ground truth with zero oracle
  discrepancies, and every verdict must be proven.
* ``--full``: the 1,000-scenario acceptance sweep from the PR issue —
  generation throughput (scenarios/s), manifest bytes, and an analyzer
  sweep (``run_stress=False``, parallel version-groups) over all 1k
  scenarios with the same zero-discrepancy / all-proven bar.

``--full`` records a ``scenario_factory`` section into
``BENCH_corpus.json`` via :mod:`perfjson` so corpus-scale regressions
diff in review; ``--smoke`` prints its payload without recording it.

The pytest entry points benchmark the cheap pure-python layers
(generation and manifest serialisation) without the evaluation sweep.
"""

import time

import perfjson

from repro.evaluation.engine import evaluate_corpus
from repro.scenarios import (
    GeneratedCorpus,
    GeneratedCorpusProvider,
    manifest_text,
)

SMOKE_SEED, SMOKE_SIZE = 42, 32
FULL_SEED, FULL_SIZE = 42, 1000


def test_generation_throughput(benchmark):
    """Pure generation: scenarios/s for a 64-scenario corpus."""
    corpus = benchmark(GeneratedCorpus.generate, 7, 64)
    assert len(corpus.scenarios) == 64


def test_manifest_serialisation(benchmark):
    corpus = GeneratedCorpus.generate(7, 64)
    text = benchmark(manifest_text, corpus)
    assert text == manifest_text(GeneratedCorpus.generate(7, 64))


def _sweep(seed, size, jobs=1):
    """Generate, evaluate, and oracle-check one corpus; returns the
    timing/fidelity payload and a list of failures."""
    failures = []

    start = time.perf_counter()
    corpus = GeneratedCorpus.generate(seed, size)
    generation_s = time.perf_counter() - start
    if manifest_text(corpus) != \
            manifest_text(GeneratedCorpus.generate(seed, size)):
        failures.append("regeneration is not byte-identical")

    provider = GeneratedCorpusProvider(corpus)
    start = time.perf_counter()
    report = evaluate_corpus(provider.specs(), run_stress=False,
                             jobs=jobs)
    sweep_s = time.perf_counter() - start

    discrepancies = provider.discrepancies(report.results)
    for line in discrepancies[:20]:
        print("DISCREPANCY: %s" % line)
    if discrepancies:
        failures.append("%d oracle discrepancies" % len(discrepancies))
    unproven = [r.cve_id for r in report.results
                if r.analysis is None or not r.analysis.is_proven()]
    if unproven:
        failures.append("%d unproven verdicts (first: %s)"
                        % (len(unproven), unproven[0]))
    if len(report.successes()) != report.total():
        failures.append("%d/%d scenarios failed evaluation"
                        % (report.total() - len(report.successes()),
                           report.total()))

    verdicts = {}
    for result in report.results:
        verdicts[result.analysis_verdict] = \
            verdicts.get(result.analysis_verdict, 0) + 1
    payload = {
        "seed": seed,
        "size": size,
        "jobs": jobs,
        "generation_s": round(generation_s, 3),
        "generation_rate_per_s": round(size / generation_s, 1),
        "sweep_s": round(sweep_s, 2),
        "sweep_rate_per_s": round(size / sweep_s, 2),
        "manifest_bytes": len(manifest_text(corpus)),
        "verdicts": dict(sorted(verdicts.items())),
        "discrepancies": len(discrepancies),
    }
    return payload, failures


def _run(mode, seed, size, jobs):
    """One sweep, printed; returns its payload and exit status."""
    payload, failures = _sweep(seed, size, jobs=jobs)
    payload["mode"] = mode
    print("scenario factory [%s]: %d scenarios generated in %.2fs "
          "(%.0f/s), swept in %.2fs (%.2f/s), %d discrepancies"
          % (mode, size, payload["generation_s"],
             payload["generation_rate_per_s"], payload["sweep_s"],
             payload["sweep_rate_per_s"], payload["discrepancies"]))
    print("verdicts: %s" % payload["verdicts"])
    for failure in failures:
        print("%s FAIL: %s" % (mode.upper(), failure))
    if not failures:
        print("%s: OK" % mode)
    return payload, 1 if failures else 0


def run_smoke():
    payload, status = _run("smoke", SMOKE_SEED, SMOKE_SIZE, jobs=1)
    perfjson.show("scenario_factory", payload)
    return status


def run_full():
    import os

    jobs = max(2, min(8, (os.cpu_count() or 2) - 1))
    payload, status = _run("full", FULL_SEED, FULL_SIZE, jobs=jobs)
    perfjson.record("scenario_factory", payload)
    return status


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv[1:]:
        sys.exit(run_smoke())
    if "--full" in sys.argv[1:]:
        sys.exit(run_full())
    print("usage: python benchmarks/bench_scenario_factory.py "
          "--smoke | --full\n(the generation micro-benchmarks run "
          "under pytest-benchmark)")
    sys.exit(2)
