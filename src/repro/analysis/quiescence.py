"""Quiescence-risk analysis: predicting stack-check exhaustion.

The apply machinery captures every thread inside ``stop_machine`` and
refuses to patch while any captured stack holds an address inside a
replaced function, retrying a bounded number of times (§3.2).  A thread
parked on a sleep instruction (``sched``/``hlt``) does not drain
between retries — so if a patched function can *be* the sleeper, or can
sit below one on a call chain, every retry is predicted to see the same
stack and the update aborts with retry exhaustion before any code is
patched.

The walk uses direct-call edges only (see
:mod:`repro.analysis.callgraph`): a function's return address lands on
a stack exactly when it appears in an active call chain.  Data
references (function pointers in tables) make a function *reachable*
but do not pin its address ranges onto a sleeping stack by themselves.

Each ``quiesce-risk`` finding comes with its ``sleep-path`` witness from
the same walk: the exact call instructions along the shortest chain
(recovered from the call graph's per-edge call-site offsets) and the
exact sleeping instruction at the end.  Each hop is a program point an
operator — or the control plane's publish gate — can check against the
object code, instead of trusting a whole-function flag.

Without the run kernel's build the analysis degrades to the patched
function's own pre text: a linear sweep for sleep instructions decides
the finding, and the abstract interpreter's reachable sleep sites are
the witness.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.analysis.absint.abi import function_summary
from repro.analysis.callgraph import CallGraph, Node, format_node, \
    text_sleeps
from repro.analysis.model import (
    EVIDENCE_SLEEP_PATH,
    VERDICT_QUIESCE_RISK,
    Evidence,
    Finding,
)
from repro.kernel.stop_machine import STACK_CHECK_RETRIES
from repro.objfile import ObjectFile

if TYPE_CHECKING:
    from repro.core.objdiff import UnitDiff

_PARKED_DETAIL = ("patched function executes a sleep instruction; a "
                  "parked thread's program counter can sit inside it "
                  "indefinitely, so all %d stack-check attempts are "
                  "predicted to fail" % STACK_CHECK_RETRIES)


def analyze_quiescence(graph: Optional[CallGraph],
                       unit_diffs: Dict[str, "UnitDiff"],
                       pre_objects: Dict[str, ObjectFile],
                       ) -> Tuple[List[Finding], List[Evidence]]:
    """One finding per patched function that can sleep or reach sleep,
    and the sleep-path evidence behind it."""
    findings: List[Finding] = []
    evidence: List[Evidence] = []
    for unit in sorted(unit_diffs):
        pre = pre_objects.get(unit)
        for fn in sorted(unit_diffs[unit].changed_functions):
            node = graph.node_for(unit, fn) if graph is not None else None
            if graph is not None and node is not None:
                path = graph.sleep_path(node)
                if path is not None:
                    findings.append(_chain_finding(unit, fn, path))
                    evidence.append(_chain_evidence(graph, unit, fn, path))
                continue
            # No call-graph node: judge the function's own pre text.
            # The interpreter witnesses it only in a build-less run.
            if _own_text_sleeps(pre, fn):
                findings.append(Finding(
                    analysis="quiescence", verdict=VERDICT_QUIESCE_RISK,
                    unit=unit, symbol=fn, detail=_PARKED_DETAIL))
            if graph is None:
                witness = _own_text_evidence(pre, unit, fn)
                if witness is not None:
                    evidence.append(witness)
    return findings, evidence


def _chain_finding(unit: str, fn: str, path: List[Node]) -> Finding:
    if len(path) == 1:
        detail = _PARKED_DETAIL
    else:
        chain = " -> ".join(name for _unit, name in path)
        detail = ("patched function can sleep through %s; its return "
                  "address stays on the sleeping thread's stack "
                  "across all %d stop_machine retries"
                  % (chain, STACK_CHECK_RETRIES))
    return Finding(analysis="quiescence", verdict=VERDICT_QUIESCE_RISK,
                   unit=unit, symbol=fn, detail=detail)


def _chain_evidence(graph: CallGraph, unit: str, fn: str,
                    path: List[Node]) -> Evidence:
    """Every call site along ``path`` and the parked instruction."""
    sites: List[str] = []
    for hop, nxt in zip(path, path[1:]):
        offsets = sorted(graph.call_sites.get((hop, nxt), ()))
        if offsets:
            sites.extend("%s+0x%x: call %s" % (format_node(hop), off,
                                               nxt[1])
                         for off in offsets)
        else:
            sites.append("%s: reaches %s (inlined or data-driven edge)"
                         % (format_node(hop), nxt[1]))
    sleeper = path[-1]
    for off in sorted(graph.sleep_sites.get(sleeper, ())):
        sites.append("%s+0x%x: sleep instruction"
                     % (format_node(sleeper), off))
    chain = " -> ".join(name for _u, name in path)
    return Evidence(
        kind=EVIDENCE_SLEEP_PATH, unit=unit, symbol=fn,
        detail="shortest blocking chain %s: every call site "
               "and the parked instruction are pinned below" % chain,
        sites=sites,
        facts={"chain": [format_node(n) for n in path],
               "hops": len(path) - 1,
               "call_sites": sum(len(graph.call_sites.get((a, b), ()))
                                 for a, b in zip(path, path[1:]))})


def _own_text_sleeps(pre: Optional[ObjectFile], fn: str) -> bool:
    if pre is None:
        return False
    section = pre.sections.get(".text.%s" % fn)
    return section is not None and text_sleeps(section.data)


def _own_text_evidence(pre: Optional[ObjectFile], unit: str,
                       fn: str) -> Optional[Evidence]:
    """The function's own reachable sleep instructions, when no
    run-kernel build was available for a chain walk."""
    summary = function_summary(pre, fn)
    if summary is None or not summary.sleep_sites:
        return None
    return Evidence(
        kind=EVIDENCE_SLEEP_PATH, unit=unit, symbol=fn,
        detail="patched function contains its own sleep "
               "instruction(s); no run-kernel build was available "
               "for a chain walk",
        sites=["%s:%s+0x%x: sleep instruction" % (unit, fn, off)
               for off in sorted(summary.sleep_sites)],
        facts={"chain": ["%s:%s" % (unit, fn)], "hops": 0,
               "call_sites": 0})
