"""The combined analyzer: one report, one pass per safety fact.

``analyze_update`` is what the ``analyze`` stage of ksplice-create
calls, after differencing and before the pack is returned.  It is a
pure function of the pack, the per-unit diffs and objects, and
(optionally) the run kernel's build, which only the call graph reads:
the passes read the graph.  It never mutates its inputs and raises
nothing — rejection is a verdict, not an exception, so the
caller decides whether a ``reject`` stops the pipeline.

Each pass decides its facts once and returns the findings together
with the :class:`~repro.analysis.model.Evidence` that proves them:
data layout and init-only writers (``data-image``, ``shadow-api``),
quiescence (``sleep-path``), the primary-module lint (whose facts are
their own witness), and — inside the ``absint`` trace stage — the
abstract-interpretation passes (:mod:`repro.analysis.absint`): ABI
summaries, hunk equivalence, and the pointer-escape verdict on every
resized data layout.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.analysis.absint.engine import run_absint
from repro.analysis.absint.interp import Workspace
from repro.analysis.callgraph import build_call_graph, format_node
from repro.analysis.datalayout import (
    analyze_data_layout,
    analyze_init_only_writers,
)
from repro.analysis.lint import lint_pack
from repro.analysis.model import AnalysisReport
from repro.analysis.quiescence import analyze_quiescence
from repro.kbuild import BuildResult
from repro.objfile import ObjectFile
from repro.pipeline import Trace

if TYPE_CHECKING:
    from repro.core.objdiff import UnitDiff
    from repro.core.update import UpdatePack


def analyze_update(pack: "UpdatePack",
                   unit_diffs: Dict[str, "UnitDiff"],
                   pre_objects: Dict[str, ObjectFile],
                   post_objects: Dict[str, ObjectFile],
                   run_build: Optional[BuildResult] = None,
                   trace: Optional[Trace] = None,
                   ) -> AnalysisReport:
    """Classify one update before any machine is touched."""
    report = AnalysisReport(
        hooks_present=any(diff.has_hooks for diff in unit_diffs.values()),
        run_build_analyzed=run_build is not None,
    )
    for unit in sorted(unit_diffs):
        diff = unit_diffs[unit]
        if diff.changed_functions:
            report.patched_functions[unit] = sorted(diff.changed_functions)
        if diff.new_functions:
            report.new_functions[unit] = sorted(diff.new_functions)

    graph = build_call_graph(run_build) if run_build is not None else None
    if graph is not None:
        patched_nodes: List[Tuple[str, str]] = []
        for unit, fns in sorted(report.patched_functions.items()):
            for fn in fns:
                key = format_node((unit, fn))
                node = graph.node_for(unit, fn)
                if node is None:
                    report.references[key] = []
                    continue
                patched_nodes.append(node)
                report.references[key] = graph.references_of(node)
                hosts = graph.inline_hosts.get(node, set())
                if hosts:
                    report.inlined_copies[key] = sorted(
                        format_node(host) for host in hosts)
        report.caller_closure = sorted(
            format_node(node)
            for node in graph.caller_closure(patched_nodes))

    findings, evidence = analyze_data_layout(unit_diffs, pre_objects,
                                             post_objects, graph)
    if graph is not None:
        writer_findings, writer_evidence = analyze_init_only_writers(
            graph, unit_diffs, pre_objects, post_objects)
        findings += writer_findings
        evidence += writer_evidence
    sleep_findings, sleep_evidence = analyze_quiescence(
        graph, unit_diffs, pre_objects)
    findings += sleep_findings
    evidence += sleep_evidence
    findings.extend(lint_pack(pack, graph))

    stage = trace.stage("absint") if trace is not None else nullcontext()
    with stage as rep:
        work = Workspace()
        absint_findings, absint_evidence = run_absint(
            unit_diffs, pre_objects, post_objects, graph, work)
        if rep is not None:
            rep.counters["evidence"] = len(absint_evidence)
            rep.counters["proof_sites"] = sum(
                len(ev.sites) for ev in absint_evidence)
            rep.counters["summaries"] = work.summaries
            rep.counters["visits"] = work.visits
    findings.extend(absint_findings)
    report.evidence = evidence + absint_evidence
    report.extend(findings)
    return report
