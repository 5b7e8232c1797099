"""Pointer-escape analysis: the verdict for resized data layouts.

A resized data section is the closest object-level analog of adding a
field to a struct.  Whether that needs shadow storage depends on
whether anything can hold a pointer into the live object, so this pass
decides the resized-layout finding itself, from

* **escape witnesses** — instructions in the replacement code where a
  pointer into the symbol leaves the local frame (stored to memory,
  live on the stack at a call, returned in ``r0``), from the abstract
  interpreter's dataflow;
* **reference witnesses** — every run-kernel instruction whose
  relocation targets the symbol, and every data-section relocation
  embedding its address (a function-pointer-table-style anchor).

A resized symbol with witnesses gets a ``needs-shadow`` finding, and
the witnesses ride on its ``escape`` evidence: "layout differs *and
here is who holds pointers into it*".  A resized symbol with *no*
witnesses anywhere cannot have a live pointer into it, so it gets an
informational ``absint-escape`` ``safe`` note instead — the concrete
payoff of running the interpreter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.analysis.absint.interp import FunctionSummary, Workspace
from repro.analysis.callgraph import CallGraph
from repro.analysis.datalayout import run_kernel_references, \
    strip_data_prefix
from repro.analysis.model import (
    EVIDENCE_ESCAPE,
    VERDICT_NEEDS_SHADOW,
    VERDICT_SAFE,
    Evidence,
    Finding,
)
from repro.objfile import ObjectFile

if TYPE_CHECKING:
    from repro.core.objdiff import UnitDiff


def _post_summaries(post_obj: Optional[ObjectFile], work: Workspace,
                    ) -> List[Tuple[str, FunctionSummary]]:
    """Every replacement function's summary, in name order (a changed
    function's is the one its ABI proof already read from ``work``)."""
    if post_obj is None:
        return []
    names = sorted(section.name[len(".text."):]
                   for section in post_obj.text_sections()
                   if section.name.startswith(".text."))
    return [(fn, work.summary(post_obj.sections[".text.%s" % fn], fn))
            for fn in names]


def _section_size(obj: Optional[ObjectFile], section_name: str) -> int:
    if obj is None:
        return 0
    section = obj.sections.get(section_name)
    return section.size if section is not None else 0


def analyze_escapes(unit: str, diff: "UnitDiff",
                    pre_obj: Optional[ObjectFile],
                    post_obj: Optional[ObjectFile],
                    graph: Optional[CallGraph],
                    work: Optional[Workspace] = None,
                    ) -> Tuple[List[Finding], List[Evidence]]:
    """One unit's resized-layout findings with their escape evidence.

    Every resized symbol gets an ``escape`` record; every resized
    persistent-data section gets a ``needs-shadow`` finding when
    anything escapes, else an ``absint-escape`` safe note.
    """
    if not diff.resized_data:
        return [], []
    summaries = _post_summaries(post_obj, work or Workspace())
    evidence: List[Evidence] = []
    escapes_seen: Dict[str, bool] = {}
    for symbol in sorted(set(diff.resized_data)):
        sites: List[str] = []
        escape_count = 0
        access_count = 0
        for fn, summary in summaries:
            for event in summary.escapes:
                if event.symbol == symbol:
                    escape_count += 1
                    sites.append("%s:%s+0x%x: %s — %s"
                                 % (unit, fn, event.offset,
                                    event.mnemonic, event.reason))
            for ret in summary.rets:
                if ret.returns_pointer_to == symbol:
                    escape_count += 1
                    sites.append("%s:%s+0x%x: ret — returns a "
                                 "pointer into %s"
                                 % (unit, fn, ret.offset, symbol))
            for access in summary.accesses:
                if access.symbol == symbol:
                    access_count += 1
                    sites.append("%s:%s+0x%x: %s %s %s"
                                 % (unit, fn, access.offset,
                                    access.mnemonic,
                                    "writes" if access.is_write
                                    else "reads", symbol))
        run_sites, data_anchors = run_kernel_references(graph, symbol)
        sites.extend(run_sites)
        escaped = bool(escape_count or data_anchors or run_sites)
        escapes_seen[symbol] = escaped
        if escaped:
            detail = ("%d escape witness(es), %d direct access(es), "
                      "%d run-kernel reference(s) hold or can form "
                      "live pointers into the resized layout of %s"
                      % (escape_count, access_count, len(run_sites),
                         symbol))
        else:
            detail = ("no instruction in the replacement or the run "
                      "kernel creates, stores, or passes a pointer "
                      "into %s; nothing escapes, so plain code "
                      "replacement is layout-safe" % symbol)
        evidence.append(Evidence(
            kind=EVIDENCE_ESCAPE, unit=unit, symbol=symbol,
            detail=detail, sites=sites,
            facts={"escapes": escape_count,
                   "direct_accesses": access_count,
                   "run_kernel_references": len(run_sites),
                   "data_anchors": data_anchors,
                   "anything_escapes": escaped}))

    findings: List[Finding] = []
    for section_name in diff.persistent_data_sections():
        symbol = strip_data_prefix(section_name)
        if symbol not in escapes_seen:
            continue
        if escapes_seen[symbol]:
            findings.append(Finding(
                analysis="data-layout", verdict=VERDICT_NEEDS_SHADOW,
                unit=unit, symbol=symbol,
                detail="data layout resized (%d -> %d bytes, the "
                       "struct-growth analog); the live object cannot "
                       "hold the new fields — use shadow storage"
                       % (_section_size(pre_obj, section_name),
                          _section_size(post_obj, section_name))))
        else:
            # Report bytes are pinned under ANALYZER_VERSION: change
            # this wording only together with a version bump.
            findings.append(Finding(
                analysis="absint-escape", verdict=VERDICT_SAFE,
                unit=unit, symbol=symbol,
                detail="layout of %s resized, but the escape analysis "
                       "found no live pointer into it anywhere in the "
                       "replacement or the run kernel — downgraded "
                       "from needs-shadow" % symbol))
    return findings, evidence
