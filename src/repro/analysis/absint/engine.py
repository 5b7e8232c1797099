"""Orchestration: the passes backed by the abstract interpreter.

:func:`run_absint` is the entry point the combined analyzer calls for
the facts only the interpreter can decide.  It walks the per-unit
diffs once and

* proves (or refutes) ABI preservation for every changed function,
* attaches a hunk-equivalence witness per changed function, and
* decides every resized data layout from its pointer-escape witnesses.

The return value is the findings these passes reach (ABI rejects and
resized-layout verdicts) and the evidence records to hang on the
report.

The passes share one :class:`~repro.analysis.absint.interp.Workspace`:
each changed function's pre and post text is decoded once, and the
escape pass reads the post summaries the ABI pass already computed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.analysis.absint.abi import analyze_abi
from repro.analysis.absint.equiv import equivalence_evidence
from repro.analysis.absint.escape import analyze_escapes
from repro.analysis.absint.interp import Workspace
from repro.analysis.callgraph import CallGraph
from repro.analysis.model import Evidence, Finding
from repro.objfile import ObjectFile

if TYPE_CHECKING:
    from repro.core.objdiff import UnitDiff


def run_absint(unit_diffs: Dict[str, "UnitDiff"],
               pre_objects: Dict[str, ObjectFile],
               post_objects: Dict[str, ObjectFile],
               graph: Optional[CallGraph],
               work: Optional[Workspace] = None,
               ) -> Tuple[List[Finding], List[Evidence]]:
    """All interpreter-backed passes over one update's diffs; ``work``
    (one per create) counts the fixpoints they ran."""
    work = work or Workspace()
    patched_names: Set[str] = set()
    for diff in unit_diffs.values():
        patched_names |= set(diff.changed_functions)
        patched_names |= set(diff.new_functions)

    findings: List[Finding] = []
    evidence: List[Evidence] = []
    for unit in sorted(unit_diffs):
        diff = unit_diffs[unit]
        pre = pre_objects.get(unit)
        post = post_objects.get(unit)

        for fn in sorted(diff.changed_functions):
            abi_findings, abi_evidence = analyze_abi(
                unit, fn, pre, post, graph, patched_names, work)
            findings.extend(abi_findings)
            evidence.extend(abi_evidence)
            equivalence = equivalence_evidence(unit, fn, pre, post, work)
            if equivalence is not None:
                evidence.append(equivalence)

        escape_findings, escape_evidence = analyze_escapes(
            unit, diff, pre, post, graph, work)
        findings.extend(escape_findings)
        evidence.extend(escape_evidence)
    return findings, evidence
