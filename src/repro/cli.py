"""Command-line front-end mirroring the paper's §5 tools.

    python -m repro.cli create --patch fix.patch --tree src/ -o update.kspl
    python -m repro.cli inspect update.kspl
    python -m repro.cli demo --patch fix.patch --tree src/
    python -m repro.cli analyze CVE-2008-0007 [--json] [--augmented]
    python -m repro.cli evaluate [--quick] [--jobs N] [--cache-dir DIR]
                                 [--workers host:port,...]
    python -m repro.cli worker --listen host:port [--once]
    python -m repro.cli trace [--cve CVE-id] [--file PATH] [--json]

``create`` reads a kernel source tree from a directory (every ``*.c`` /
``*.s`` file, tree-relative paths as unit names) and a unified diff, and
writes a serialized update pack — the ksplice-create workflow.
``demo`` additionally boots the tree, applies the pack to the running
kernel, and reports the stop_machine window — create + apply in one
shot, since a simulated machine does not outlive the process.
``analyze`` runs only the static patch-safety analyzer
(:mod:`repro.analysis`) on one corpus CVE — no machine is booted — and
exits 0 for ``safe``, 2 when custom code is needed (``needs-hooks`` /
``needs-shadow`` / ``quiesce-risk``), 3 for ``reject``, so CI can gate
on it.  ``evaluate`` runs the paper's §6 evaluation; ``--jobs N``
spreads the kernel-version groups across N worker processes,
``--workers host:port,...`` spreads them across remote evaluation
workers instead (the distributed fabric, :mod:`repro.distributed` —
start each worker host with ``repro worker --listen``), and
``--cache-dir`` enables the on-disk cache tier so repeated runs (and
the worker fleet, which inherits the tier at handshake) start warm.
When a parallel or distributed request cannot run as asked, the
fallback and its reason are printed rather than silently degrading.

``fleet`` is the deployment layer (:mod:`repro.fleet`): ``fleet
rollout --cve CVE-... --size N`` boots a live fleet and rolls the CVE's
update out in canary waves with health gating and automatic rollback
(``--inject-oops/--inject-wedge/--inject-kill MEMBER:WAVE`` prove the
red paths; ``--worker host:port`` runs the whole rollout on a remote
worker); ``fleet status`` shows the last rollout's report and ``fleet
rollback`` replays it and reverses every member it updated.

``serve`` runs the update-channel control plane
(:mod:`repro.controlplane`): a coordinator daemon with a REST/JSON API
over a durable store (fleet registry, release channels, rollout
records — all of it survives a daemon restart).  ``channel`` and
``member`` speak HTTP to a running daemon (``--url``, default
``REPRO_CONTROLPLANE_URL`` or ``http://127.0.0.1:7787``): ``member
register|list|pin|unpin|quarantine|unquarantine`` manage the registry,
``channel publish`` publishes a corpus CVE's update to a channel and
drives a canary-wave rollout over the subscribed members (waves print
as they land; ``--no-wait`` returns the rollout id immediately for
polling), ``channel list|status`` show the series and every
subscriber's position in it.  Publishing is gated on the static
analyzer: a ``reject`` or unproven verdict is refused (exit 2) unless
``--force``, and the evidence bundle — or the recorded override —
rides on the rollout record either way.

Both ``demo`` and ``evaluate`` record per-stage traces (see
:mod:`repro.pipeline`) and save them; ``trace`` renders the saved run —
an aggregate per-stage table by default, the full stage tree of one CVE
with ``--cve``, or deterministic sorted JSON with ``--json``.

Exit codes are uniform across subcommands: 0 success, 2 user error
(unknown CVE, unreadable input file, bad flags), 3 operation failure
(failed evaluations, halted or gated rollouts, machinery errors).
``analyze`` refines 2/3 with its documented verdict mapping (2 = the
patch needs custom code, 3 = reject).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, Optional

from repro import __version__
from repro.compiler import CompilerOptions
from repro.core import KspliceCore, UpdatePack, ksplice_create
from repro.core.create import CreateReport
from repro.errors import ReproError
from repro.kbuild import SourceTree
from repro.kernel import boot_kernel

#: uniform subcommand exit codes
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FAILURE = 3

#: canonical display order for the lifecycle's top-level stages
STAGE_ORDER = ("generate", "build", "boot", "observe-pre", "create",
               "apply", "observe-post", "stress", "undo",
               "patch", "build-pre", "build-post", "diff", "analyze",
               "absint", "gate", "boot-fleet", "health", "rollback",
               "survivors")


def _ordered_stage_names(names) -> list:
    known = [name for name in STAGE_ORDER if name in names]
    return known + sorted(n for n in names if n not in STAGE_ORDER)


def _print_stage_table(stages, out=None) -> None:
    """Render a {name: StageTiming-like} mapping as an aligned table."""
    out = out or sys.stdout
    names = _ordered_stage_names(stages)
    if not names:
        return
    out.write("%-14s %6s %10s %10s %6s\n"
              % ("stage", "calls", "total ms", "mean ms", "fail"))
    for name in names:
        timing = stages[name]
        out.write("%-14s %6d %10.1f %10.1f %6d\n"
                  % (name, timing.calls, timing.wall_ms,
                     timing.mean_ms, timing.failures))


class _StageAgg:
    """Local stage accumulator (same shape as engine.StageTiming)."""

    __slots__ = ("calls", "wall_ms", "failures")

    def __init__(self):
        self.calls = 0
        self.wall_ms = 0.0
        self.failures = 0

    @property
    def mean_ms(self) -> float:
        return self.wall_ms / self.calls if self.calls else 0.0


def _aggregate_traces(traces) -> Dict[str, _StageAgg]:
    stages: Dict[str, _StageAgg] = {}
    for trace in traces:
        for report in trace.reports:
            timing = stages.setdefault(report.name, _StageAgg())
            timing.calls += 1
            timing.wall_ms += report.wall_ms
            if report.outcome == "failed":
                timing.failures += 1
    return stages


def _save_traces(traces, meta) -> None:
    """Best-effort persistence for the ``trace`` subcommand."""
    from repro.pipeline import save_run

    try:
        path = save_run(traces, meta=meta)
    except OSError:
        return
    print("(trace saved to %s; view with `repro trace`)" % path)


def load_tree_from_directory(root: str,
                             version: Optional[str] = None) -> SourceTree:
    """Build a SourceTree from the ``*.c``/``*.s`` files under ``root``."""
    files: Dict[str, str] = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in filenames:
            if not filename.endswith((".c", ".s")):
                continue
            full = os.path.join(dirpath, filename)
            rel = os.path.relpath(full, root).replace(os.sep, "/")
            with open(full, "r", encoding="utf-8") as handle:
                files[rel] = handle.read()
    if not files:
        raise ReproError("no .c/.s files under %s" % root)
    return SourceTree(version=version or os.path.basename(
        os.path.abspath(root)), files=files)


def _options(args: argparse.Namespace) -> CompilerOptions:
    return CompilerOptions(opt_level=args.opt_level,
                           compiler_version=args.compiler_version)


def cmd_create(args: argparse.Namespace) -> int:
    tree = load_tree_from_directory(args.tree, args.version)
    with open(args.patch, "r", encoding="utf-8") as handle:
        patch_text = handle.read()
    pack = ksplice_create(tree, patch_text, options=_options(args),
                          description=args.description)
    out = args.output or ("%s.kspl" % pack.update_id)
    with open(out, "wb") as handle:
        handle.write(pack.to_bytes())
    print("Ksplice update pack written to %s" % out)
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    with open(args.pack, "rb") as handle:
        pack = UpdatePack.from_bytes(handle.read())
    print("update:         %s" % pack.update_id)
    print("kernel version: %s" % pack.kernel_version)
    if pack.description:
        print("description:    %s" % pack.description)
    print("patch lines:    %d" % pack.patch_lines)
    print("units:          %d" % len(pack.units))
    for uu in pack.units:
        helper_bytes = sum(s.size for s in uu.helper.sections.values())
        primary_bytes = sum(s.size for s in uu.primary.sections.values())
        print("  %s" % uu.unit)
        print("    replaces:  %s" % (", ".join(uu.changed_functions)
                                     or "(nothing; new code only)"))
        if uu.new_functions:
            print("    adds:      %s" % ", ".join(uu.new_functions))
        if uu.hook_sections:
            print("    hooks:     %s" % ", ".join(uu.hook_sections))
        print("    helper %d bytes, primary %d bytes"
              % (helper_bytes, primary_bytes))
    return 0


def cmd_objdump(args: argparse.Namespace) -> int:
    from repro.tools import dump_object_text

    with open(args.pack, "rb") as handle:
        pack = UpdatePack.from_bytes(handle.read())
    for uu in pack.units:
        if args.unit and uu.unit != args.unit:
            continue
        objfile = uu.helper if args.helper else uu.primary
        print(dump_object_text(objfile))
        print()
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.pipeline import Trace

    tree = load_tree_from_directory(args.tree, args.version)
    with open(args.patch, "r", encoding="utf-8") as handle:
        patch_text = handle.read()
    trace = Trace(label="demo:%s" % tree.version)
    print("booting %s ..." % tree.version)
    with trace.stage("boot"):
        machine = boot_kernel(tree, options=_options(args))
    core = KspliceCore(machine)
    with trace.stage("create"):
        pack = ksplice_create(tree, patch_text, options=_options(args),
                              trace=trace)
    print("created %s (replaces: %s)"
          % (pack.update_id, ", ".join(pack.all_changed_functions())))
    with trace.stage("apply"):
        applied = core.apply(pack, trace=trace)
    print("Done!  stop_machine window %.3f ms, stack-check attempts %d, "
          "primary module %d bytes resident"
          % (applied.stop_report.wall_milliseconds,
             applied.stack_check_attempts, applied.primary_bytes))
    print()
    _print_stage_table(_aggregate_traces([trace]))
    _save_traces([trace], meta={"command": "demo",
                                "kernel_version": tree.version})
    return 0


def _load_provider(args: argparse.Namespace):
    """The corpus provider named by ``--corpus`` (or the seed table),
    or an error message."""
    from repro.errors import ReproError
    from repro.evaluation.corpus import load_corpus_provider

    try:
        return load_corpus_provider(getattr(args, "corpus", None)), None
    except ReproError as exc:
        return None, str(exc)


def _unknown_cve_message(wanted: str, known: list) -> str:
    """A usage error for an unknown CVE id, listing near-miss ids."""
    import difflib

    near = difflib.get_close_matches(wanted, known, n=3, cutoff=0.6)
    if not near:
        # fall back to ids sharing the longest prefix (users most often
        # mistype the trailing digits)
        scored = sorted(known, key=lambda k: (-len(os.path.commonprefix(
            [k, wanted])), k))
        near = [k for k in scored[:3]
                if len(os.path.commonprefix([k, wanted])) >= 4]
    message = "error: unknown CVE %r" % wanted
    if near:
        message += "; did you mean: %s" % ", ".join(near)
    return message


def cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from repro.evaluation.analyze import analyze_corpus_cve

    provider, error = _load_provider(args)
    if provider is None:
        print("error: %s" % error, file=sys.stderr)
        return EXIT_USAGE
    if args.all:
        return _analyze_all(args, provider)
    if not args.cve:
        print("error: name a CVE or pass --all", file=sys.stderr)
        return EXIT_USAGE
    try:
        spec = provider.by_id(args.cve)
    except KeyError:
        print(_unknown_cve_message(args.cve, provider.ids()),
              file=sys.stderr)
        return EXIT_USAGE
    augmented = args.augmented and spec.table1 is not None
    analysis = analyze_corpus_cve(spec, augmented=args.augmented)
    if args.json:
        print(json.dumps(analysis.to_json_dict(), indent=2,
                         sort_keys=True))
    else:
        print("%s  (%s, unit %s%s)"
              % (spec.cve_id, spec.kernel_version, spec.unit,
                 ", augmented patch" if augmented else ""))
        print(analysis.render())
    return analysis.exit_code()


def _analyze_all(args: argparse.Namespace, provider) -> int:
    """Corpus-wide verdict summary, proof status, and oracle check.

    The oracle is the provider's: internal verdict/outcome consistency
    for the seed table, plus the factory's stamped ground truth for
    generated corpora."""
    import json

    from repro.evaluation.harness import evaluate_corpus

    summary = evaluate_corpus(provider.specs(), run_stress=False,
                              jobs=getattr(args, "jobs", 1))
    discrepancies = provider.discrepancies(summary.results)
    rows = []
    verdicts: Dict[str, int] = {}
    for result in summary.results:
        analysis = result.analysis
        verdict = result.analysis_verdict or "(none)"
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
        evidence_counts: Dict[str, int] = {}
        proven = False
        if analysis is not None:
            proven = analysis.is_proven()
            for ev in analysis.evidence:
                evidence_counts[ev.kind] = \
                    evidence_counts.get(ev.kind, 0) + 1
        rows.append({"cve_id": result.cve_id, "verdict": verdict,
                     "proven": proven,
                     "evidence": evidence_counts,
                     "evidence_total": sum(evidence_counts.values())})
    if args.json:
        print(json.dumps({
            "cves": rows,
            "verdicts": {k: verdicts[k] for k in sorted(verdicts)},
            "proven": sum(1 for row in rows if row["proven"]),
            "discrepancies": discrepancies,
        }, indent=2, sort_keys=True))
    else:
        print("verdict summary (%d CVEs):" % len(rows))
        for verdict in sorted(verdicts):
            print("  %-14s %d" % (verdict, verdicts[verdict]))
        print()
        print("%-16s %-14s %-7s %s"
              % ("cve", "verdict", "proven", "evidence"))
        for row in rows:
            kinds = ", ".join("%s=%d" % (k, row["evidence"][k])
                              for k in sorted(row["evidence"]))
            print("%-16s %-14s %-7s %s"
                  % (row["cve_id"], row["verdict"],
                     "yes" if row["proven"] else "NO", kinds))
        print()
        if discrepancies:
            print("DISCREPANCIES (%d):" % len(discrepancies))
            for line in discrepancies:
                print("  " + line)
        else:
            print("no discrepancies: every verdict is consistent with "
                  "the dynamic outcome and backed by evidence")
    return EXIT_FAILURE if discrepancies else EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.evaluation.harness import evaluate_corpus

    provider, error = _load_provider(args)
    if provider is None:
        print("error: %s" % error, file=sys.stderr)
        return EXIT_USAGE

    if args.cache_dir:
        from repro.compiler.cache import enable_disk_cache
        from repro.pipeline.store import CACHE_DIR_ENV

        os.environ[CACHE_DIR_ENV] = args.cache_dir
        enable_disk_cache()

    if args.secret:
        from repro.distributed import SECRET_ENV

        os.environ[SECRET_ENV] = args.secret

    specs = provider.specs()
    if args.cve:
        known = provider.ids()
        chosen = []
        for wanted in args.cve:
            if wanted not in known:
                print(_unknown_cve_message(wanted, known),
                      file=sys.stderr)
                return EXIT_USAGE
            chosen.append(provider.by_id(wanted))
        specs = chosen
    if args.limit:
        specs = specs[:args.limit]

    def progress(result):
        status = "ok" if result.success else "FAIL"
        if not result.success and result.failed_stage:
            status += " (in %s)" % result.failed_stage
        sys.stdout.write("%-16s %-14s %-13s %s\n"
                         % (result.cve_id, result.kernel_version,
                            result.analysis_verdict or "-", status))

    from repro.evaluation.engine import EngineStats

    workers = [w.strip() for w in (args.workers or "").split(",")
               if w.strip()]
    stats = EngineStats()
    report = evaluate_corpus(specs, run_stress=not args.quick,
                             progress=progress, jobs=args.jobs,
                             stats=stats, workers=workers or None)
    if stats.fell_back:
        print("\nNOTE: %s run fell back (%s); results above came from "
              "the %s path"
              % ("distributed" if workers else "parallel",
                 stats.fallback_reason or "unknown reason",
                 "local" if workers and args.jobs > 1 else "sequential"))
    print("\n%d/%d updates succeeded; %d needed no new code"
          % (len(report.successes()), report.total(),
             report.no_new_code_count()))
    counts = report.verdict_counts()
    print("analyzer verdicts: %s"
          % ", ".join("%s %d" % (verdict, counts[verdict])
                      for verdict in sorted(counts)))
    discrepancies = provider.discrepancies(report.results)
    if discrepancies:
        print("analyzer vs outcome discrepancies (%d):"
              % len(discrepancies))
        for line in discrepancies:
            print("  " + line)
    else:
        print("analyzer verdicts consistent with all apply outcomes")
    print("%.1f s with %d job%s (%.1f CVEs/s); build cache hit rate %.0f%%"
          % (stats.wall_seconds, stats.jobs,
             "s" if stats.jobs != 1 else "",
             stats.cves_per_second,
             100 * stats.combined_cache_stats().hit_rate))
    combined = stats.combined_cache_stats()
    if combined.disk_hits:
        print("disk cache tier: %d hits" % combined.disk_hits)
    jit = stats.jit
    if jit.get("total_insns"):
        total = jit["total_insns"]
        traced = jit["traced_insns"]
        print("jit: %d insns (%.0f%% traced), %d trace hits, "
              "%d compiled, %d adopted, %d evicted"
              % (total, 100.0 * traced / total, jit["trace_hits"],
                 jit["compiled"], jit["adopted"], jit["evicted"]))
    if stats.workers:
        line = ("distributed: %d worker%s, %d work item%s, %d retr%s"
                % (stats.workers, "s" if stats.workers != 1 else "",
                   stats.work_items,
                   "s" if stats.work_items != 1 else "",
                   stats.retries,
                   "ies" if stats.retries != 1 else "y"))
        if stats.reconnects:
            line += ", %d reconnect%s" % (
                stats.reconnects,
                "s" if stats.reconnects != 1 else "")
        if stats.local_rescues:
            line += ", %d rescued locally" % stats.local_rescues
        print(line)
        if stats.reconnects_by_peer:
            print("  reconnects by worker: %s"
                  % ", ".join("%s x%d" % (peer, count)
                              for peer, count in
                              sorted(stats.reconnects_by_peer.items())))

    # per-stage timing, broken down by kernel-version group then overall
    by_version: Dict[str, list] = {}
    for result in report.results:
        if result.trace is not None:
            by_version.setdefault(result.kernel_version, []).append(
                result.trace)
    for version in sorted(by_version):
        print("\nper-stage wall time, %s (%d CVEs):"
              % (version, len(by_version[version])))
        _print_stage_table(_aggregate_traces(by_version[version]))
    if stats.stages:
        print("\nper-stage wall time, whole corpus:")
        _print_stage_table(stats.stages)

    traces = [r.trace for r in report.results if r.trace is not None]
    if traces:
        _save_traces(traces, meta={
            "command": "evaluate",
            "jobs": stats.jobs,
            "workers": workers,
            "cves": [r.cve_id for r in report.results],
            "failed": [r.cve_id for r in report.results if not r.success],
            "jit": stats.jit,
        })
    ok = len(report.successes()) == report.total() and not discrepancies
    return EXIT_OK if ok else EXIT_FAILURE


def cmd_generate(args: argparse.Namespace) -> int:
    """Generate a scenario corpus and write its manifest."""
    from collections import Counter

    from repro.errors import ReproError
    from repro.scenarios import GeneratedCorpus, write_corpus

    if args.size <= 0:
        print("error: --size must be positive", file=sys.stderr)
        return EXIT_USAGE
    try:
        corpus = GeneratedCorpus.generate(args.seed, args.size, args.mix)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    path = write_corpus(corpus, args.out)
    shapes = Counter(s.shape for s in corpus.scenarios)
    print("generated %d scenarios (seed %d, mix %s) -> %s"
          % (args.size, args.seed, args.mix, path))
    print("kernel versions: %d   shapes: %s"
          % (len(corpus.kernel_versions()),
             ", ".join("%s %d" % (shape, shapes[shape])
                       for shape in sorted(shapes))))
    expected = Counter(s.expected.verdict for s in corpus.scenarios)
    print("expected verdicts: %s"
          % ", ".join("%s %d" % (verdict, expected[verdict])
                      for verdict in sorted(expected)))
    return EXIT_OK


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Mutate patches and check the verdict/proof/apply consistency
    contract; exit 3 on any oracle discrepancy."""
    import json

    from repro.scenarios import GeneratedCorpus, fuzz_corpus

    provider, error = _load_provider(args)
    if provider is None:
        print("error: %s" % error, file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "corpus", None):
        specs = provider.specs()
    else:
        # default pool: the property test's cheap seed CVEs plus a
        # small generated corpus, so every shape gets mutated
        from repro.evaluation.corpus import corpus_by_id

        specs = [corpus_by_id(cve_id)
                 for cve_id in ("CVE-2005-3847", "CVE-2006-0095",
                                "CVE-2006-6106", "CVE-2007-2453",
                                "CVE-2007-5904")]
        specs += GeneratedCorpus.generate(args.seed, 8).specs()

    def progress(outcome):
        if not args.json:
            sys.stdout.write("%-22s %-26s %-12s %s\n"
                             % (outcome.cve_id, outcome.operator,
                                outcome.status,
                                outcome.verdict
                                or ("-" if outcome.status != "evaluated"
                                    else "?")))

    report = fuzz_corpus(specs, budget=args.budget, seed=args.seed,
                         progress=progress)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print("\n%d mutants evaluated, %d refused by the pipeline, "
              "%d inapplicable"
              % (report.mutants, report.refused, report.inapplicable))
        print("verdicts: %s"
              % (", ".join("%s %d" % (v, c) for v, c in
                           sorted(report.verdict_counts.items()))
                 or "(none)"))
        if report.discrepancies:
            print("ORACLE DISCREPANCIES (%d):"
                  % len(report.discrepancies))
            for line in report.discrepancies:
                print("  " + line)
        else:
            print("verdict, proof, and apply outcomes mutually "
                  "consistent on every mutant")
    return EXIT_OK if report.consistent else EXIT_FAILURE


def cmd_worker(args: argparse.Namespace) -> int:
    from repro.distributed import AuthError, parse_address, serve

    if args.cache_dir:
        from repro.compiler.cache import enable_disk_cache
        from repro.pipeline.store import CACHE_DIR_ENV

        os.environ[CACHE_DIR_ENV] = args.cache_dir
        enable_disk_cache()
    host, port = parse_address(args.listen, allow_zero=True)
    secret = args.secret.encode("utf-8") if args.secret else None

    def ready(bound_host: str, bound_port: int) -> None:
        print("worker listening on %s:%d (pid %d)"
              % (bound_host, bound_port, os.getpid()), flush=True)

    try:
        max_frame = int(args.max_frame_mb * 1024 * 1024)
        serve(host=host, port=port, once=args.once, ready=ready,
              secret=secret, item_timeout=args.item_timeout,
              max_frame=max_frame)
    except AuthError as exc:  # no secret: the worker refuses to start
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        pass
    return EXIT_OK


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.pipeline import load_run

    meta, traces = load_run(args.file)
    if not traces:
        print("trace file holds no traces")
        return EXIT_USAGE
    if args.scrub:
        from repro.pipeline.normalize import scrub_trace

        traces = [scrub_trace(t) for t in traces]
    if args.json:
        import json

        wanted = traces
        if args.cve:
            wanted = [t for t in traces if t.label == args.cve]
            if not wanted:
                print("no trace for %r; run holds: %s"
                      % (args.cve, ", ".join(t.label for t in traces)))
                return EXIT_USAGE
        print(json.dumps({"meta": meta,
                          "traces": [t.to_dict() for t in wanted]},
                         indent=2, sort_keys=True))
        return 0
    if args.cve:
        wanted = [t for t in traces if t.label == args.cve]
        if not wanted:
            print("no trace for %r; run holds: %s"
                  % (args.cve, ", ".join(t.label for t in traces)))
            return EXIT_USAGE
        for trace in wanted:
            print(trace.render())
        return 0
    command = meta.get("command", "?")
    print("last run: %s (%d trace%s)"
          % (command, len(traces), "s" if len(traces) != 1 else ""))
    jit = meta.get("jit") or {}
    if jit.get("total_insns"):
        print("jit: %d insns (%.0f%% traced), %d trace hits, "
              "%d compiled, %d adopted, %d evicted"
              % (jit["total_insns"],
                 100.0 * jit["traced_insns"] / jit["total_insns"],
                 jit["trace_hits"], jit["compiled"],
                 jit.get("adopted", 0), jit["evicted"]))
    _print_stage_table(_aggregate_traces(traces))
    failed = [(t.label, t.failed_stage()) for t in traces
              if t.failed_stage()]
    if failed:
        print("\nfailed stages:")
        for label, stage in failed:
            print("  %-24s %s" % (label, stage))
    return 0


def _fleet_plan(args: argparse.Namespace):
    from repro.fleet import InjectedFault, RolloutPlan

    faults = []
    for kind, values in (("oops", args.inject_oops),
                         ("wedge", args.inject_wedge),
                         ("kill", args.inject_kill)):
        for text in values:
            faults.append(InjectedFault.parse(kind, text))
    return RolloutPlan(cve_id=args.cve, fleet_size=args.size,
                       canary=args.canary, growth=args.growth,
                       keepalive_instructions=args.keepalive,
                       probe=not args.no_probe,
                       workload=args.workload, faults=faults)


def cmd_fleet_rollout(args: argparse.Namespace) -> int:
    from repro.evaluation.corpus import corpus_by_id
    from repro.fleet import (
        OUTCOME_COMPLETE,
        RolloutError,
        rollout_corpus_cve,
        run_remote_rollout,
        save_report,
    )
    from repro.pipeline import Trace

    try:
        corpus_by_id(args.cve)
    except KeyError:
        print("error: unknown CVE %r" % args.cve, file=sys.stderr)
        return EXIT_USAGE
    try:
        plan = _fleet_plan(args)
    except RolloutError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    if args.secret:
        from repro.distributed import SECRET_ENV

        os.environ[SECRET_ENV] = args.secret
    if args.worker:

        def on_wave(wave):
            print("wave %s [%s]: members %s"
                  % (wave.get("index", "?"), wave.get("verdict", "?"),
                     ",".join(str(m) for m in wave.get("members", []))),
                  flush=True)

        report = run_remote_rollout(
            args.worker, plan, on_wave=None if args.json else on_wave)
    else:
        trace = Trace(label=plan.rollout_id())
        report = rollout_corpus_cve(plan, trace=trace)
        if not args.json:
            _save_traces([trace], meta={"command": "fleet rollout",
                                        "cve": plan.cve_id})
    path = save_report(report)
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
        print("(report saved to %s; `repro fleet status` re-renders it)"
              % path)
    return EXIT_OK if report.outcome == OUTCOME_COMPLETE else EXIT_FAILURE


def cmd_fleet_status(args: argparse.Namespace) -> int:
    from repro.fleet import RolloutError, load_report

    try:
        report = load_report(args.file)
    except RolloutError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return EXIT_OK


def cmd_fleet_rollback(args: argparse.Namespace) -> int:
    from repro.fleet import (
        RolloutError,
        load_report,
        replay_rollback,
        save_report,
    )
    from repro.pipeline import Trace

    try:
        report = load_report(args.file)
    except RolloutError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    members = sorted(report.updated_members)
    if not members:
        print("nothing to roll back: the last rollout left no member "
              "updated")
        return EXIT_OK
    trace = Trace(label="rollback-%s" % report.rollout_id)
    report = replay_rollback(report, trace=trace)
    path = save_report(report, args.file)
    print("rolled back %d member%s (LIFO): %s"
          % (len(members), "s" if len(members) != 1 else "",
             ", ".join("member-%d" % m
                       for m in sorted(members, reverse=True))))
    print("survivors healthy: %s"
          % ("yes" if report.survivors_healthy else "no"))
    print("(report saved to %s)" % path)
    _save_traces([trace], meta={"command": "fleet rollback",
                                "cve": report.cve_id})
    return EXIT_OK if report.survivors_healthy else EXIT_FAILURE


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.controlplane import default_data_dir, serve_control_plane
    from repro.distributed import parse_address

    host, port = parse_address(args.listen, allow_zero=True)
    data_dir = args.data_dir or default_data_dir()

    def ready(bound_host: str, bound_port: int) -> None:
        print("control plane listening on %s:%d (pid %d, data in %s)"
              % (bound_host, bound_port, os.getpid(), data_dir),
              flush=True)

    try:
        serve_control_plane(host=host, port=port, data_dir=data_dir,
                            ready=ready, verbose=args.verbose)
    except KeyboardInterrupt:
        pass
    return EXIT_OK


def _controlplane_client(args: argparse.Namespace):
    from repro.controlplane import ControlPlaneClient

    return ControlPlaneClient(args.url)


def _controlplane_error(exc) -> int:
    """Map a daemon refusal to the uniform exit codes."""
    print("error: %s" % exc, file=sys.stderr)
    return EXIT_USAGE if getattr(exc, "is_user_error", False) \
        else EXIT_FAILURE


def _print_member_row(member: Dict[str, object]) -> None:
    flags = []
    if member.get("pinned"):
        flags.append("pinned")
    if member.get("quarantined"):
        flags.append("quarantined")
    print("%-16s %-14s %-10s seq %-4s %s"
          % (member.get("member_id", "?"),
             member.get("kernel_version", "?"),
             member.get("channel", "?"),
             member.get("applied_sequence", 0),
             ", ".join(flags) or "-"))


def cmd_member(args: argparse.Namespace) -> int:
    from repro.controlplane import ControlPlaneClientError

    client = _controlplane_client(args)
    try:
        if args.member_command == "register":
            member = client.register_member(
                args.id, args.kernel_version,
                channel=args.channel, worker=args.worker or "")
            print("registered %s (kernel %s, channel %s%s)"
                  % (member["member_id"], member["kernel_version"],
                     member["channel"],
                     ", worker %s" % member["worker"]
                     if member["worker"] else ""))
        elif args.member_command == "list":
            members = client.members()
            if not members:
                print("no members registered")
            for member in members:
                _print_member_row(member)
        else:  # pin / unpin / quarantine / unquarantine
            member = client.member_action(args.id, args.member_command)
            print("%s %s" % (args.member_command,
                             member["member_id"]))
    except ControlPlaneClientError as exc:
        return _controlplane_error(exc)
    return EXIT_OK


def _print_wave(wave: Dict[str, object]) -> None:
    members = wave.get("member_ids") or [
        "member-%s" % m for m in wave.get("members", [])]
    print("wave %s [%s]: %s"
          % (wave.get("index", "?"), wave.get("verdict", "?"),
             ", ".join(str(m) for m in members)), flush=True)


def cmd_channel(args: argparse.Namespace) -> int:
    import json

    from repro.controlplane import ControlPlaneClientError

    client = _controlplane_client(args)
    try:
        if args.channel_command == "list":
            channels = client.channels()
            print("%-12s %-14s %7s %11s" % ("channel", "kernel",
                                            "entries", "subscribers"))
            for channel in channels:
                print("%-12s %-14s %7d %11d"
                      % (channel["name"],
                         channel.get("kernel_version") or "-",
                         len(channel.get("entries", [])),
                         len(channel.get("subscribers", []))))
        elif args.channel_command == "status":
            status = client.channel(args.channel)
            if args.json:
                print(json.dumps(status, indent=2, sort_keys=True))
                return EXIT_OK
            print("channel %s (kernel %s)"
                  % (status["name"],
                     status.get("kernel_version") or "unpinned"))
            for entry in status.get("entries", []):
                print("  #%-3d %-16s %s%s"
                      % (entry["sequence"], entry.get("cve_id", "?"),
                         "(withdrawn) " if entry.get("withdrawn")
                         else "", entry.get("description", "")))
            for sub in status.get("subscribers", []):
                flags = [f for f in ("pinned", "quarantined")
                         if sub.get(f)]
                print("  %-16s at #%-3d %s"
                      % (sub["member_id"], sub["applied_sequence"],
                         ", ".join(flags)
                         or ("current" if sub.get("current")
                             else "behind")))
            for rollout in status.get("rollouts", []):
                print("  rollout %-14s %-9s %d member(s), %d wave(s)"
                      % (rollout["rollout_id"], rollout["status"],
                         rollout["members"], rollout["waves"]))
        else:  # publish
            record = client.publish(
                args.channel, args.cve, description=args.description,
                canary=args.canary, growth=args.growth,
                force=args.force)
            rollout_id = record["rollout_id"]
            if args.no_wait:
                print("published #%d to %s; rollout %s started "
                      "(poll `repro channel status` or GET "
                      "/rollouts/%s)"
                      % (record["sequence"], args.channel, rollout_id,
                         rollout_id))
                return EXIT_OK
            if not args.json:
                print("published #%d to %s; rolling out to %d "
                      "member(s)"
                      % (record["sequence"], args.channel,
                         len(record.get("member_ids", []))))
                for skip in record.get("skipped", []):
                    print("  skipping %s: %s"
                          % (skip["member_id"], skip["reason"]))
            final = client.wait_rollout(
                rollout_id, on_wave=None if args.json else _print_wave)
            if args.json:
                print(json.dumps(final, indent=2, sort_keys=True))
            else:
                print("rollout %s: %s%s"
                      % (rollout_id, final["status"],
                         " — " + final["detail"]
                         if final.get("detail") else ""))
            return (EXIT_OK if final["status"] == "complete"
                    else EXIT_FAILURE)
    except ControlPlaneClientError as exc:
        return _controlplane_error(exc)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Ksplice reproduction command line")
    parser.add_argument("--version", action="version",
                        version="repro %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--opt-level", type=int, default=2,
                       choices=(0, 1, 2))
        p.add_argument("--compiler-version", default="kcc-1.0")
        p.add_argument("--version", default=None,
                       help="kernel version string (default: dir name)")

    p_create = sub.add_parser("create",
                              help="build an update pack from a patch")
    p_create.add_argument("--patch", required=True)
    p_create.add_argument("--tree", required=True)
    p_create.add_argument("-o", "--output", default=None)
    p_create.add_argument("--description", default="")
    common(p_create)
    p_create.set_defaults(func=cmd_create)

    p_inspect = sub.add_parser("inspect", help="describe an update pack")
    p_inspect.add_argument("pack")
    p_inspect.set_defaults(func=cmd_inspect)

    p_objdump = sub.add_parser(
        "objdump", help="disassemble a pack's replacement code")
    p_objdump.add_argument("pack")
    p_objdump.add_argument("--unit", default=None,
                           help="limit to one compilation unit")
    p_objdump.add_argument("--helper", action="store_true",
                           help="dump the helper (pre) object instead")
    p_objdump.set_defaults(func=cmd_objdump)

    p_demo = sub.add_parser("demo",
                            help="boot the tree and hot-apply the patch")
    p_demo.add_argument("--patch", required=True)
    p_demo.add_argument("--tree", required=True)
    common(p_demo)
    p_demo.set_defaults(func=cmd_demo)

    p_analyze = sub.add_parser(
        "analyze",
        help="static patch-safety verdict, with machine-checkable "
             "evidence, for one corpus CVE (or --all)",
        description="Run the static analyzer — heuristic passes plus "
                    "the abstract-interpretation proof engine (ABI "
                    "dataflow, hunk equivalence, pointer escape, "
                    "data image, sleep paths) — and print the "
                    "verdict with its evidence.  Exit 0 safe, "
                    "2 needs custom code, 3 reject.  With --all, "
                    "sweep the whole corpus, cross-check every "
                    "verdict against the dynamic apply outcome, and "
                    "exit 3 on any discrepancy.")
    p_analyze.add_argument("cve", nargs="?", default=None,
                           help="corpus CVE id, e.g. CVE-2008-0007")
    p_analyze.add_argument("--all", action="store_true",
                           help="analyze every corpus CVE: verdict "
                                "histogram, per-CVE evidence counts "
                                "and proof status, oracle "
                                "discrepancies (exit 3 if any)")
    p_analyze.add_argument("--json", action="store_true",
                           help="emit the full report as sorted JSON")
    p_analyze.add_argument("--augmented", action="store_true",
                           help="analyze the hook-augmented patch instead "
                                "of the original security patch")
    p_analyze.add_argument("--corpus", default=None, metavar="DIR",
                           help="analyze a generated corpus (a `repro "
                                "generate` output directory) instead of "
                                "the seed table; with --all the factory's "
                                "stamped ground truth joins the oracle")
    p_analyze.add_argument("--jobs", type=int, default=1,
                           help="with --all: sweep kernel-version groups "
                                "in N worker processes (default 1)")
    p_analyze.set_defaults(func=cmd_analyze)

    p_eval = sub.add_parser("evaluate", help="run the §6 evaluation")
    p_eval.add_argument("--quick", action="store_true",
                        help="skip the stress battery")
    p_eval.add_argument("--limit", type=int, default=0,
                        help="evaluate only the first N CVEs")
    p_eval.add_argument("--corpus", default=None, metavar="DIR",
                        help="evaluate a generated corpus (a `repro "
                             "generate` output directory) instead of the "
                             "seed table")
    p_eval.add_argument("--cve", action="append", default=None,
                        metavar="CVE-ID",
                        help="evaluate only this CVE (repeatable); an "
                             "unknown id exits 2 and suggests near-miss "
                             "ids")
    p_eval.add_argument("--jobs", type=int, default=1,
                        help="evaluate kernel-version groups in N "
                             "worker processes (default 1)")
    p_eval.add_argument("--cache-dir", default=None,
                        help="enable the on-disk cache tier rooted here "
                             "(also where the run trace is saved)")
    p_eval.add_argument("--workers", default=None, metavar="HOST:PORT,...",
                        help="evaluate on remote workers (comma-separated "
                             "host:port list; see `repro worker`) instead "
                             "of local processes")
    p_eval.add_argument("--secret", default=None,
                        help="shared secret for --workers authentication "
                             "(default: the KSPLICE_WORKER_SECRET "
                             "environment variable)")
    p_eval.set_defaults(func=cmd_evaluate)

    p_generate = sub.add_parser(
        "generate",
        help="mass-produce a ground-truth scenario corpus",
        description="Generate a deterministic corpus of synthetic CVE "
                    "scenarios addressed by (seed, size, mix).  The "
                    "manifest written to --out records the address, a "
                    "content digest, and each scenario's expected "
                    "ground truth; the same address reproduces the "
                    "corpus byte-for-byte anywhere.")
    p_generate.add_argument("--seed", type=int, required=True,
                            help="corpus seed (32-bit)")
    p_generate.add_argument("--size", type=int, required=True,
                            help="number of scenarios")
    p_generate.add_argument("--mix", default="default",
                            help="dimension mix name (default: "
                                 "'default'; see DESIGN.md §16)")
    p_generate.add_argument("--out", required=True, metavar="DIR",
                            help="directory to write manifest.json into")
    p_generate.set_defaults(func=cmd_generate)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="mutate patches and cross-check verdicts against "
             "outcomes",
        description="Draw (scenario, operator) pairs from a seeded "
                    "RNG, mutate the fixed unit, and assert that the "
                    "analyzer verdict, absint proof status, and hot "
                    "apply outcome stay mutually consistent.  Any "
                    "divergence is an oracle discrepancy (exit 3), "
                    "never a crash.")
    p_fuzz.add_argument("--budget", type=int, default=40,
                        help="mutation rounds to run (default 40)")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="RNG seed for spec/operator draws")
    p_fuzz.add_argument("--corpus", default=None, metavar="DIR",
                        help="mutate a generated corpus instead of the "
                             "built-in pool (5 seed CVEs + 8 generated "
                             "scenarios)")
    p_fuzz.add_argument("--json", action="store_true",
                        help="emit the fuzz report as sorted JSON")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_worker = sub.add_parser(
        "worker", help="serve evaluation work items over TCP")
    p_worker.add_argument("--listen", required=True, metavar="HOST:PORT",
                          help="address to listen on (port 0 picks an "
                               "ephemeral port, printed on startup)")
    p_worker.add_argument("--once", action="store_true",
                          help="exit after serving one coordinator "
                               "session")
    p_worker.add_argument("--cache-dir", default=None,
                          help="enable the on-disk cache tier rooted "
                               "here (a coordinator handshake may still "
                               "override it)")
    p_worker.add_argument("--secret", default=None,
                          help="require coordinators to prove this shared "
                               "secret before anything is deserialized "
                               "(default: the KSPLICE_WORKER_SECRET "
                               "environment variable; the worker refuses "
                               "to start with neither set)")
    p_worker.add_argument("--item-timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="abandon a wedged work item after this "
                               "many seconds and report a reasoned "
                               "failure instead of hanging the session")
    p_worker.add_argument("--max-frame-mb", type=float, default=64.0,
                          metavar="MIB",
                          help="largest v3 frame the session accepts; "
                               "an oversize frame is a protocol error "
                               "and drops the peer (default: 64)")
    p_worker.set_defaults(func=cmd_worker)

    p_trace = sub.add_parser(
        "trace", help="show the per-stage trace of the last run")
    p_trace.add_argument("--file", default=None,
                         help="trace file (default: the last saved run)")
    p_trace.add_argument("--cve", default=None,
                         help="render one CVE's full stage tree")
    p_trace.add_argument("--json", action="store_true",
                         help="emit the run as deterministic sorted JSON")
    p_trace.add_argument("--scrub", action="store_true",
                         help="zero wall-clock timings (stable output "
                              "for diffing runs)")
    p_trace.set_defaults(func=cmd_trace)

    p_fleet = sub.add_parser(
        "fleet", help="canary rollouts over a live simulated fleet")
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True)

    p_roll = fleet_sub.add_parser(
        "rollout", help="roll a corpus CVE's update out in canary waves")
    p_roll.add_argument("--cve", required=True,
                        help="corpus CVE id, e.g. CVE-2008-0007")
    p_roll.add_argument("--size", type=int, default=4,
                        help="fleet size (default 4)")
    p_roll.add_argument("--canary", type=int, default=1,
                        help="members in wave 0 (default 1)")
    p_roll.add_argument("--growth", type=int, default=2,
                        help="wave growth factor after a green wave "
                             "(default 2)")
    p_roll.add_argument("--keepalive", type=int, default=2000,
                        help="instructions each member runs between "
                             "waves (default 2000)")
    p_roll.add_argument("--workload", choices=("spinner", "stress"),
                        default="spinner",
                        help="what members run between waves: an idle "
                             "spinner or real syscall stress threads "
                             "(default spinner)")
    p_roll.add_argument("--no-probe", action="store_true",
                        help="health-gate on machine liveness only; "
                             "skip the CVE's semantics probe")
    p_roll.add_argument("--inject-oops", action="append", default=[],
                        metavar="MEMBER[:WAVE]",
                        help="crash this member after its wave's apply "
                             "(repeatable)")
    p_roll.add_argument("--inject-wedge", action="append", default=[],
                        metavar="MEMBER[:WAVE]",
                        help="park a thread inside a patched function so "
                             "the member's stack check exhausts "
                             "(repeatable)")
    p_roll.add_argument("--inject-kill", action="append", default=[],
                        metavar="MEMBER[:WAVE]",
                        help="kill this member mid-wave (repeatable)")
    p_roll.add_argument("--worker", default=None, metavar="HOST:PORT",
                        help="run the rollout on a remote `repro worker` "
                             "instead of in-process")
    p_roll.add_argument("--secret", default=None,
                        help="shared secret for --worker authentication")
    p_roll.add_argument("--json", action="store_true",
                        help="emit the RolloutReport as sorted JSON")
    p_roll.set_defaults(func=cmd_fleet_rollout)

    p_status = fleet_sub.add_parser(
        "status", help="show the last rollout's report")
    p_status.add_argument("--file", default=None,
                          help="report file (default: the last rollout)")
    p_status.add_argument("--json", action="store_true",
                          help="emit the report as sorted JSON")
    p_status.set_defaults(func=cmd_fleet_status)

    p_back = fleet_sub.add_parser(
        "rollback",
        help="reverse everything the last rollout left applied")
    p_back.add_argument("--file", default=None,
                        help="report file (default: the last rollout)")
    p_back.set_defaults(func=cmd_fleet_rollback)

    from repro.controlplane.client import default_url

    p_serve = sub.add_parser(
        "serve", help="run the update-channel control plane daemon")
    p_serve.add_argument("--listen", default="127.0.0.1:7787",
                         metavar="HOST:PORT",
                         help="address to listen on (port 0 picks an "
                              "ephemeral port, printed on startup; "
                              "default 127.0.0.1:7787)")
    p_serve.add_argument("--data-dir", default=None,
                         help="durable store root (default: "
                              "REPRO_CONTROLPLANE_DIR or "
                              "<cache>/controlplane)")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log every HTTP request to stderr")
    p_serve.set_defaults(func=cmd_serve)

    def add_url(p) -> None:
        p.add_argument("--url", default=None,
                       help="control plane base URL (default: "
                            "REPRO_CONTROLPLANE_URL or %s)"
                       % default_url())

    p_channel = sub.add_parser(
        "channel", help="release channels on the control plane")
    channel_sub = p_channel.add_subparsers(dest="channel_command",
                                           required=True)

    p_chan_list = channel_sub.add_parser(
        "list", help="list channels with series length and subscribers")
    add_url(p_chan_list)
    p_chan_list.set_defaults(func=cmd_channel)

    p_chan_pub = channel_sub.add_parser(
        "publish",
        help="publish a corpus CVE's update and roll it out")
    p_chan_pub.add_argument("--channel", required=True,
                            help="channel name, e.g. canary")
    p_chan_pub.add_argument("--cve", required=True,
                            help="corpus CVE id, e.g. CVE-2008-0007")
    p_chan_pub.add_argument("--description", default="")
    p_chan_pub.add_argument("--canary", type=int, default=1,
                            help="members in wave 0 (default 1)")
    p_chan_pub.add_argument("--growth", type=int, default=2,
                            help="wave growth factor (default 2)")
    p_chan_pub.add_argument("--force", action="store_true",
                            help="publish even when the analyzer's "
                                 "verdict is reject or unproven; the "
                                 "override is recorded on the rollout")
    p_chan_pub.add_argument("--no-wait", action="store_true",
                            help="return the rollout id immediately "
                                 "instead of waiting for convergence")
    p_chan_pub.add_argument("--json", action="store_true",
                            help="emit the final rollout record as "
                                 "sorted JSON")
    add_url(p_chan_pub)
    p_chan_pub.set_defaults(func=cmd_channel)

    p_chan_status = channel_sub.add_parser(
        "status", help="one channel's series, subscribers, rollouts")
    p_chan_status.add_argument("--channel", required=True)
    p_chan_status.add_argument("--json", action="store_true")
    add_url(p_chan_status)
    p_chan_status.set_defaults(func=cmd_channel)

    p_member = sub.add_parser(
        "member", help="fleet registry on the control plane")
    member_sub = p_member.add_subparsers(dest="member_command",
                                         required=True)

    p_mem_reg = member_sub.add_parser(
        "register", help="register (or refresh) a fleet member")
    p_mem_reg.add_argument("id", help="member id, e.g. web-01")
    p_mem_reg.add_argument("--kernel-version", required=True,
                           help="kernel release the member runs, "
                                "e.g. 2.6.16-deb3")
    p_mem_reg.add_argument("--channel", default="stable",
                           help="channel to subscribe to "
                                "(default stable)")
    p_mem_reg.add_argument("--worker", default=None,
                           metavar="HOST:PORT",
                           help="the `repro worker` this member lives "
                                "on; rollouts ship there")
    add_url(p_mem_reg)
    p_mem_reg.set_defaults(func=cmd_member)

    p_mem_list = member_sub.add_parser(
        "list", help="list the fleet registry")
    add_url(p_mem_list)
    p_mem_list.set_defaults(func=cmd_member)

    for action, help_text in (
            ("pin", "exclude from rollouts, keep current stack"),
            ("unpin", "release a pin"),
            ("quarantine", "exclude from waves until released"),
            ("unquarantine", "release a quarantine")):
        p_action = member_sub.add_parser(action, help=help_text)
        p_action.add_argument("id", help="member id")
        add_url(p_action)
        p_action.set_defaults(func=cmd_member)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
