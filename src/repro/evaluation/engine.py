"""Corpus-scale evaluation engine (§6.2-6.3 at fleet speed).

The paper's headline run pushes all 64 CVE patches through
ksplice-create/ksplice-apply on 14 kernel versions.  This module makes
that corpus-scale run fast along three layers:

1. **Parallelism** — :func:`evaluate_corpus` with ``jobs > 1`` fans the
   corpus out over a ``ProcessPoolExecutor``.  Work is grouped by kernel
   version so each worker generates and builds a version's run kernel at
   most once; each worker owns its whole simulated machine, so isolation
   between concurrent evaluations is free.  Results are merged back into
   the caller's spec order, so a parallel run is deterministic and
   (timing fields aside) identical to a sequential one.  Unpicklable
   specs or a broken pool degrade gracefully to in-process execution,
   and ``EngineStats.fallback_reason`` records why.

   ``workers=["host:port", ...]`` goes beyond one host: the same
   payloads run on remote workers over the distributed fabric
   (:mod:`repro.distributed`), with per-CVE work-stealing once a
   version's run build is warm, per-CVE streamed progress, and
   bounded retry when workers die.  An unreachable fleet falls back to
   the local pool, then to sequential — results are identical (after
   :func:`normalize_result`) along every path.

2. **Content-addressed caching** — per-unit compiles and parses hit the
   caches in :mod:`repro.compiler.cache`; this module adds the
   per-version *run build* cache (the seed harness's bare
   ``_BUILD_CACHE`` module global, now bounded, instrumented, and
   covered by :func:`clear_caches`).

3. The **interpreter fast path** lives in :mod:`repro.kernel.cpu`
   (``run_slice``); the engine simply benefits from it.

``clear_caches()`` resets every layer for test isolation;
``cache_stats()``/``EngineStats`` surface hit/miss/byte counters.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, \
    as_completed
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.compiler import CompilerOptions
from repro.compiler.cache import (
    CacheStats,
    ContentCache,
    apply_disk_cache_config,
    cache_stats as _layer_cache_stats,
    clear_caches as _clear_layer_caches,
    disk_cache_config,
    merge_stats_into as _merge_stats_into,
    register_cache,
    snapshot_stats as _stats_snapshot,
    stats_delta as _stats_delta,
)
from repro.core.runpre import clear_replays
from repro.evaluation.corpus import CORPUS
from repro.evaluation.kernels import GeneratedKernel, kernel_for_version
from repro.evaluation.specs import CveSpec
from repro.kbuild import BuildResult, build_tree
from repro.kernel import TRACE_STATS
from repro.pipeline.normalize import normalize_cve_result

#: Run-kernel builds per (version, options).  Generated trees are
#: immutable per version (``kernel_for_version`` is itself memoized), so
#: the version string is a faithful content key; patched trees never go
#: through here.  Registered, so clear_caches()/cache_stats() cover it.
RUN_BUILD_CACHE = register_cache(ContentCache("run-build", max_entries=64))

ProgressFn = Callable[..., None]


def run_build_for(kernel: GeneratedKernel,
                  options: Optional[CompilerOptions] = None) -> BuildResult:
    """The run kernel's build, cached per (version, options)."""
    options = options or CompilerOptions()
    key = (kernel.version, options)
    build = RUN_BUILD_CACHE.get(key)
    if build is None:
        build = build_tree(kernel.tree, options)
        RUN_BUILD_CACHE.put(key, build)
    return build


def clear_caches() -> None:
    """Reset every evaluation cache (test isolation).

    Covers the parse, compile, and run-build content caches, the
    generated-kernel memo and the run-pre replay store, so a test that
    patches corpus data or compiler behaviour observes a cold world.
    """
    _clear_layer_caches()
    kernel_for_version.cache_clear()
    clear_replays()


def cache_stats() -> Dict[str, CacheStats]:
    """Live counters for every registered cache, keyed by name."""
    return _layer_cache_stats()


def normalize_result(result: "CveResult") -> "CveResult":
    """A copy with wall-clock fields zeroed.

    Everything the evaluation records is deterministic except wall
    time: the stop_machine window and the per-stage trace timings.
    Both are scrubbed by the one shared helper in
    :mod:`repro.pipeline.normalize` (also used by
    ``CveResult.normalized``); comparing normalized results is how
    "parallel == sequential" is checked.
    """
    return normalize_cve_result(result)


def verdict_discrepancies(results: Sequence["CveResult"]) -> List[str]:
    """Cross-check static verdicts against dynamic apply outcomes.

    The corpus-as-oracle rules (one line per violated rule, per CVE):

    - every cleanly-created update must carry a verdict;
    - ``safe`` must not abort at apply time, and ``reject`` must;
    - ``needs-hooks``/``needs-shadow`` iff the patch *without* custom
      code fails to fully fix the CVE (``result.hookless_fixes``);
    - ``quiesce-risk`` iff the stack check actually retried;
    - a verdict produced with the run kernel's build must be *proven*
      (:meth:`repro.analysis.AnalysisReport.is_proven`): every patched
      function carries ABI and hunk-equivalence evidence and every
      non-safe finding a matching witness with concrete sites — a bare
      label with no machine-checkable backing is itself a discrepancy;
    - the report must come from the current analyzer version (a
      mismatch means a stale cached verdict leaked through).

    An empty return means the analyzer agreed with reality everywhere.
    """
    from repro.analysis import (
        ANALYZER_VERSION,
        VERDICT_NEEDS_HOOKS,
        VERDICT_NEEDS_SHADOW,
        VERDICT_QUIESCE_RISK,
        VERDICT_REJECT,
        VERDICT_SAFE,
    )

    problems: List[str] = []

    def problem(result: "CveResult", text: str) -> None:
        problems.append("%s: %s" % (result.cve_id, text))

    for result in results:
        verdict = result.analysis_verdict
        if not verdict:
            if result.applied_cleanly:
                problem(result, "applied cleanly but carries no verdict")
            continue
        if verdict == VERDICT_SAFE and not result.applied_cleanly:
            problem(result, "verdict safe but apply aborted in %s (%s)"
                    % (result.failed_stage, result.apply_error))
        if verdict == VERDICT_REJECT and result.applied_cleanly:
            problem(result, "verdict reject but the update applied cleanly")
        needs_custom = verdict in (VERDICT_NEEDS_HOOKS, VERDICT_NEEDS_SHADOW)
        if result.hookless_fixes is not None:
            if needs_custom and result.hookless_fixes:
                problem(result, "verdict %s but the hook-less patch fully "
                                "fixed the CVE" % verdict)
            if verdict == VERDICT_SAFE and not result.hookless_fixes:
                problem(result, "verdict safe but the hook-less patch did "
                                "not fully fix the CVE")
        retried = result.stack_check_attempts > 1
        if verdict == VERDICT_QUIESCE_RISK and result.applied_cleanly \
                and not retried:
            problem(result, "verdict quiesce-risk but the stack check "
                            "passed on the first attempt")
        if verdict != VERDICT_QUIESCE_RISK and retried:
            problem(result, "stack check retried (%d attempts) without a "
                            "quiesce-risk verdict"
                    % result.stack_check_attempts)
        analysis = getattr(result, "analysis", None)
        if analysis is not None:
            if analysis.analyzer_version != ANALYZER_VERSION:
                problem(result, "analysis came from analyzer version %s "
                                "but the current analyzer is %s (stale "
                                "cached verdict)"
                        % (analysis.analyzer_version, ANALYZER_VERSION))
            if analysis.run_build_analyzed and not analysis.is_proven():
                problem(result, "verdict %s is not backed by "
                                "machine-checkable evidence (%d evidence "
                                "record(s) present)"
                        % (verdict, len(analysis.evidence)))
    return problems


@dataclass
class StageTiming:
    """Aggregate cost of one pipeline stage across a corpus run."""

    calls: int = 0
    wall_ms: float = 0.0
    failures: int = 0

    @property
    def mean_ms(self) -> float:
        return self.wall_ms / self.calls if self.calls else 0.0

    def merge(self, other: "StageTiming") -> None:
        self.calls += other.calls
        self.wall_ms += other.wall_ms
        self.failures += other.failures


@dataclass
class EngineStats:
    """What one evaluate_corpus run cost and how the caches behaved."""

    jobs: int = 1
    cves: int = 0
    wall_seconds: float = 0.0
    #: number of per-version groups dispatched (parallel runs only)
    groups: int = 0
    #: parallel execution was requested but fell back to in-process
    fell_back: bool = False
    #: why the fallback happened ("unserializable specs", "broken
    #: executor: ...", "no workers reachable at ...") — surfaced by the
    #: CLI so a silently-sequential run never goes unexplained
    fallback_reason: str = ""
    #: distributed runs: workers that completed the handshake
    workers: int = 0
    #: distributed runs: work items dispatched (leads + stolen tails +
    #: retries)
    work_items: int = 0
    #: distributed runs: items requeued after a worker died or failed
    retries: int = 0
    #: distributed runs: successful coordinator->worker reconnects
    #: (each preceded by exponential backoff with jitter)
    reconnects: int = 0
    #: distributed runs: reconnect counts per worker address
    reconnects_by_peer: Dict[str, int] = field(default_factory=dict)
    #: distributed runs: CVEs the coordinator evaluated in-process
    #: after the fleet could not finish them (graceful degradation)
    local_rescues: int = 0
    #: per-cache counters; for parallel runs these are the summed deltas
    #: reported by the workers, for sequential runs the parent's deltas
    caches: Dict[str, CacheStats] = field(default_factory=dict)
    #: per-stage timings summed over every CVE's trace (top-level
    #: stages: generate/build/boot/create/apply/stress/...)
    stages: Dict[str, StageTiming] = field(default_factory=dict)
    #: JIT counters for the run — the delta of the process-global
    #: :data:`repro.kernel.TRACE_STATS` (total/traced instructions,
    #: trace hits, compiles, evictions).  Only in-process execution
    #: contributes; parallel/distributed workers keep their own.
    jit: Dict[str, int] = field(default_factory=dict)

    @property
    def cves_per_second(self) -> float:
        return self.cves / self.wall_seconds if self.wall_seconds else 0.0

    def combined_cache_stats(self) -> CacheStats:
        total = CacheStats()
        for stats in self.caches.values():
            total.merge(stats)
        return total

    def record_trace(self, trace) -> None:
        """Fold one CVE's top-level stage reports into the totals."""
        if trace is None:
            return
        for report in trace.reports:
            timing = self.stages.setdefault(report.name, StageTiming())
            timing.calls += 1
            timing.wall_ms += report.wall_ms
            if report.outcome == "failed":
                timing.failures += 1


def _evaluate_group(payload: Tuple[str, List[CveSpec], bool, bool,
                                   Optional[Tuple[str, int]]]):
    """Worker entry point: evaluate one kernel version's CVEs in order.

    Grouping by version means this process builds the version's run
    kernel exactly once (run-build cache, warm after the first CVE) and
    shares parse/compile cache entries across the group.  Workers start
    with cold memory tiers; the parent's disk tier (root and bound, as
    :func:`~repro.compiler.cache.disk_cache_config` gives them) rides
    along in the payload, so the worker starts warm from the same tier
    and trims it to the same bound.  Returns the results plus this
    group's cache-stats delta so the parent can aggregate counters
    across processes.
    """
    from repro.evaluation.harness import evaluate_cve

    _version, specs, run_stress, verify_undo, disk_cache = payload
    apply_disk_cache_config(disk_cache)
    before = _stats_snapshot()
    results = [evaluate_cve(spec, run_stress=run_stress,
                            verify_undo=verify_undo)
               for spec in specs]
    return results, _stats_delta(before)


def _group_by_version(specs: Sequence[CveSpec],
                      ) -> List[Tuple[str, List[int]]]:
    """Spec indices grouped by kernel version, first-appearance order."""
    order: List[str] = []
    groups: Dict[str, List[int]] = {}
    for index, spec in enumerate(specs):
        if spec.kernel_version not in groups:
            groups[spec.kernel_version] = []
            order.append(spec.kernel_version)
        groups[spec.kernel_version].append(index)
    return [(version, groups[version]) for version in order]


def _evaluate_sequential(specs: Sequence[CveSpec], run_stress: bool,
                         verify_undo: bool,
                         progress: Optional[ProgressFn]) -> List["CveResult"]:
    from repro.evaluation.harness import evaluate_cve

    results = []
    for spec in specs:
        result = evaluate_cve(spec, run_stress=run_stress,
                              verify_undo=verify_undo)
        results.append(result)
        if progress is not None:
            progress(result)
    return results


def _evaluate_parallel(specs: Sequence[CveSpec], run_stress: bool,
                       verify_undo: bool, progress: Optional[ProgressFn],
                       jobs: int, stats: EngineStats,
                       ) -> Optional[List["CveResult"]]:
    """Fan groups out over worker processes; None means "fall back"."""
    try:
        pickle.dumps(list(specs))
    except Exception:
        stats.fallback_reason = "unpicklable specs"
        return None  # e.g. a test spec with a lambda probe

    groups = _group_by_version(specs)
    stats.groups = len(groups)
    results: List[Optional["CveResult"]] = [None] * len(specs)
    try:
        with ProcessPoolExecutor(
                max_workers=min(jobs, len(groups))) as pool:
            futures = {}
            disk_cache = disk_cache_config()
            for version, indices in groups:
                payload = (version, [specs[i] for i in indices],
                           run_stress, verify_undo, disk_cache)
                futures[pool.submit(_evaluate_group, payload)] = indices
            for future in as_completed(futures):
                group_results, cache_delta = future.result()
                _merge_stats_into(stats.caches, cache_delta)
                for index, result in zip(futures[future], group_results):
                    results[index] = result
                    if progress is not None:
                        progress(result)
    except (BrokenExecutor, OSError, pickle.PicklingError) as exc:
        stats.fallback_reason = "broken executor: %s: %s" \
            % (type(exc).__name__, exc)
        return None
    return results  # every slot filled: each index was in exactly 1 group


def _evaluate_distributed(specs: Sequence[CveSpec], run_stress: bool,
                          verify_undo: bool,
                          progress: Optional[ProgressFn],
                          workers: Sequence[str], stats: EngineStats,
                          ) -> Optional[List["CveResult"]]:
    """Run the corpus over remote workers; None means "fall back".

    The coordinator (:mod:`repro.distributed.coordinator`) streams each
    finished CVE back (``progress`` fires per CVE in completion order),
    steals a version's remaining CVEs onto idle workers once its lead
    has warmed the run-build cache, retries items lost with dead
    workers, and rescues any remainder in-process.  ``None`` is
    returned only when no shared secret is configured, no worker
    answered the handshake or the specs cannot cross the wire — the
    caller then walks the same fallback chain the local pool uses.
    """
    from repro.distributed import Coordinator, ProtocolError, protocol

    try:
        coordinator = Coordinator(workers)
        protocol.require_secret(protocol.default_secret())
    except ProtocolError as exc:
        stats.fallback_reason = str(exc)
        return None
    results = coordinator.run(specs, run_stress=run_stress,
                              verify_undo=verify_undo,
                              progress=progress, stats=stats)
    if results is not None:
        stats.groups = len(_group_by_version(specs))
    return results


def evaluate_corpus(specs: Optional[Sequence[CveSpec]] = None,
                    run_stress: bool = True,
                    verify_undo: bool = False,
                    progress: Optional[ProgressFn] = None,
                    jobs: int = 1,
                    stats: Optional[EngineStats] = None,
                    workers: Optional[Sequence[str]] = None,
                    ) -> "EvaluationReport":
    """Evaluate the corpus (default: all 64 CVEs), the full §6 run.

    ``jobs > 1`` evaluates kernel-version groups in parallel worker
    processes; ``workers=["host:port", ...]`` runs them on remote
    workers instead (the distributed fabric, :mod:`repro.distributed`).
    The returned report is ordered by ``specs`` regardless of the
    execution path, and the results are identical (after
    :func:`normalize_result`) along every path.

    ``progress`` fires exactly once per finished CVE.  *When* it fires
    depends on the path: sequential runs call it in spec order as each
    CVE finishes; distributed runs stream it in true completion order
    (workers push every ``CveResult`` the moment it exists); local
    ``jobs`` runs deliver a whole version-group's results in one burst
    when that group's worker process finishes — still once per CVE,
    but the calls arrive grouped.

    Pass an :class:`EngineStats` to receive timing and cache counters;
    when a parallel or distributed request degrades,
    ``stats.fell_back``/``stats.fallback_reason`` say so and why.
    """
    from repro.evaluation.harness import EvaluationReport

    chosen = list(specs if specs is not None else CORPUS)
    stats = stats if stats is not None else EngineStats()
    stats.jobs = jobs
    stats.cves = len(chosen)

    start = time.perf_counter()
    jit_before = TRACE_STATS.snapshot()
    results: Optional[List["CveResult"]] = None
    if workers and len(chosen) > 0:
        results = _evaluate_distributed(chosen, run_stress, verify_undo,
                                        progress, workers, stats)
        if results is None:
            stats.fell_back = True
    if results is None and jobs > 1 and len(chosen) > 1:
        results = _evaluate_parallel(chosen, run_stress, verify_undo,
                                     progress, jobs, stats)
        if results is None:
            stats.fell_back = True
    if results is None:
        before = _stats_snapshot()
        results = _evaluate_sequential(chosen, run_stress, verify_undo,
                                       progress)
        _merge_stats_into(stats.caches, _stats_delta(before))
    stats.wall_seconds = time.perf_counter() - start
    jit_after = TRACE_STATS.snapshot()
    stats.jit = {key: jit_after[key] - jit_before[key]
                 for key in jit_after}
    for result in results:
        stats.record_trace(getattr(result, "trace", None))
    return EvaluationReport(results=results)
