"""Static patch-safety analysis (pre-stop_machine verdicts).

Analyses over the pre/post objects and (when available) the running
kernel's build, feeding one :class:`AnalysisReport`.  Each decides its
safety facts once and returns the findings together with the
machine-checkable :class:`Evidence` that proves them:

- a relocation call graph (:mod:`repro.analysis.callgraph`) computing
  who calls or references each patched function, inlined copies
  included; it is the only reader of the running kernel's build, and
  the other analyses take the graph;
- a data-layout/semantics diff (:mod:`repro.analysis.datalayout`)
  mapping persistent-data images, init-only writers and shadow-API
  adoption to verdicts, with ``data-image`` and ``shadow-api``
  witnesses;
- a quiescence-risk walk (:mod:`repro.analysis.quiescence`) predicting
  stack-check retry exhaustion before stop_machine runs, with the
  ``sleep-path`` witness from the same walk;
- a primary-module lint (:mod:`repro.analysis.lint`) for symbols the
  apply-time resolver cannot possibly satisfy;
- an abstract-interpretation engine (:mod:`repro.analysis.absint`)
  for the facts only dataflow can decide — ABI/stack discipline, hunk
  equivalence, and the pointer-escape verdict on resized layouts.

The analyzer runs as the ``analyze`` stage of ksplice-create and its
verdict rides on ``CveResult``; the evaluation engine cross-checks the
verdicts against the dynamic apply outcomes corpus-wide, and the
control plane refuses to publish unproven updates.
"""

from repro.analysis.analyzer import analyze_update
from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.model import (
    ANALYZER_VERSION,
    PROOF_KINDS,
    VERDICT_EXIT_CODES,
    VERDICT_NEEDS_HOOKS,
    VERDICT_NEEDS_SHADOW,
    VERDICT_QUIESCE_RISK,
    VERDICT_REJECT,
    VERDICT_SAFE,
    VERDICT_SEVERITY,
    AnalysisReport,
    Evidence,
    Finding,
)

__all__ = [
    "ANALYZER_VERSION",
    "AnalysisReport",
    "CallGraph",
    "Evidence",
    "Finding",
    "PROOF_KINDS",
    "VERDICT_EXIT_CODES",
    "VERDICT_NEEDS_HOOKS",
    "VERDICT_NEEDS_SHADOW",
    "VERDICT_QUIESCE_RISK",
    "VERDICT_REJECT",
    "VERDICT_SAFE",
    "VERDICT_SEVERITY",
    "analyze_update",
    "build_call_graph",
]
