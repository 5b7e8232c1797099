"""ABI/stack dataflow pass: prove a patched function keeps its
callers' calling convention.

For every changed function the pass interprets both the pre and the
post body (:func:`~repro.analysis.absint.interp.summarize_function`)
and compares the observable ABI facts:

* **stack discipline** — the replacement must leave ``sp`` exactly
  balanced and restore ``fp`` at every return; breaking either
  corrupts the caller's frame the first time the patched code runs
  (``reject``);
* **observable arity** — the highest argument slot the replacement
  reads.  Reading *more* argument slots than the pre code is the
  prototype-ripple signature: a caller compiled against the old
  prototype pushed fewer words, so the extra reads hit garbage.  That
  is only fatal when such a caller exists *outside* the patch, which
  the pass checks against the run kernel's actual call sites (the
  pushed-argument count recovered from the caller's own code, not
  from any declaration).

Every changed function gets one ``abi`` evidence record whether or
not a problem was found — the record is what lets a ``safe`` verdict
be *proven* rather than merely asserted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.absint.interp import FunctionSummary, Workspace
from repro.analysis.callgraph import CallGraph
from repro.analysis.model import (
    EVIDENCE_ABI,
    VERDICT_REJECT,
    Evidence,
    Finding,
)
from repro.objfile import ObjectFile


def function_summary(obj: Optional[ObjectFile], fn: str,
                     work: Optional[Workspace] = None,
                     ) -> Optional[FunctionSummary]:
    """Summary of ``fn``'s function-sections text in ``obj``, from
    ``work`` when one create's passes share it."""
    if obj is None:
        return None
    section = obj.sections.get(".text.%s" % fn)
    if section is None:
        return None
    return (work or Workspace()).summary(section, fn)


def caller_arg_counts(graph: Optional[CallGraph],
                      fn: str) -> Dict[str, int]:
    """How many argument words each run-kernel call site of ``fn``
    pushes, recovered from the caller's code by the call graph's sweep.

    Keys are ``unit:function`` of the calling site's host; when a
    function is called from several sites the *minimum* count is kept
    (the weakest caller is the one a wider replacement would break).
    """
    return dict(graph.arg_words.get(fn, {})) if graph is not None else {}


def analyze_abi(unit: str, fn: str,
                pre_obj: Optional[ObjectFile],
                post_obj: Optional[ObjectFile],
                graph: Optional[CallGraph],
                patched_names: Set[str],
                work: Optional[Workspace] = None,
                ) -> Tuple[List[Finding], List[Evidence]]:
    """One changed function's ABI proof (or counterexample)."""
    work = work or Workspace()
    pre = function_summary(pre_obj, fn, work)
    post = function_summary(post_obj, fn, work)
    if post is None or not post.decode_ok:
        return [], []

    findings: List[Finding] = []
    facts: Dict[str, object] = {
        "args_read_pre": pre.args_read if pre else 0,
        "args_read_post": post.args_read,
        "stack_balanced": post.stack_balanced,
        "frame_preserved": post.frame_preserved,
        "returns": len(post.rets),
        "calls": len(post.calls),
        "max_stack_depth": post.max_stack_depth,
    }
    sites = ["%s:%s+0x%x: ret (sp%s, fp %s)"
             % (unit, fn, ret.offset,
                "%+d" % ret.sp if ret.sp is not None else " unknown",
                "preserved" if ret.fp_preserved else "clobbered")
             for ret in post.rets]
    sites += ["%s:%s: reads argument slot %d" % (unit, fn, slot)
              for slot in sorted(post.arg_slots_read)]

    if post.rets and not (post.stack_balanced and post.frame_preserved):
        findings.append(Finding(
            analysis="absint-abi", verdict=VERDICT_REJECT,
            unit=unit, symbol=fn,
            detail="replacement code breaks the stack discipline "
                   "(sp unbalanced or fp clobbered at a return); "
                   "redirecting callers to it would corrupt their "
                   "frames"))

    shortfall: List[str] = []
    if pre is not None and pre.decode_ok \
            and post.args_read > pre.args_read:
        facts["prototype_ripple"] = True
        for caller, pushed in sorted(
                caller_arg_counts(graph, fn).items()):
            caller_fn = caller.split(":", 1)[-1]
            if caller_fn in patched_names:
                continue  # the patch replaces this caller too
            if pushed < post.args_read:
                shortfall.append("%s pushes %d arg%s" %
                                 (caller, pushed,
                                  "s" if pushed != 1 else ""))
        if shortfall:
            findings.append(Finding(
                analysis="absint-abi", verdict=VERDICT_REJECT,
                unit=unit, symbol=fn,
                detail="replacement reads %d argument slot(s) but "
                       "unpatched callers push fewer (%s); the extra "
                       "reads would hit stack garbage"
                       % (post.args_read, "; ".join(shortfall))))
            facts["unpatched_short_callers"] = shortfall

    detail = ("replacement preserves the callers' ABI: stack "
              "balanced at %d return(s), frame pointer restored, "
              "reads %d argument slot(s) (pre read %d)"
              % (len(post.rets), post.args_read,
                 pre.args_read if pre else 0))
    if findings:
        detail = "ABI violation witnessed (see the absint-abi finding)"
    evidence = Evidence(kind=EVIDENCE_ABI, unit=unit, symbol=fn,
                        detail=detail, sites=sites, facts=facts)
    return findings, [evidence]
