"""Abstract interpretation over decoded k86 object code.

A small abstract domain (:mod:`~repro.analysis.absint.domain`) tracks
each register and stack slot as unknown / entry value / constant / data
pointer / stack address; a worklist interpreter
(:mod:`~repro.analysis.absint.interp`) runs every function's decoded
text to a fixpoint and emits a :class:`FunctionSummary`.  Client
passes decide the facts only the interpreter can, each returning its
findings together with machine-checkable
:class:`~repro.analysis.model.Evidence` records:

``abi``            stack discipline and observable arity per changed
                   function, with prototype-ripple detection against
                   the run kernel's actual call sites;
``equivalence``    old/new code outside the compiled hunk equivalent
                   modulo relocations;
``escape``         the resized-layout verdict: concrete pointer-escape
                   witnesses behind ``needs-shadow``, or the safe note
                   when nothing escapes anywhere.

:func:`run_absint` orchestrates these passes for the combined analyzer.
The cheaper witnesses (``shadow-api``, ``data-image``, ``sleep-path``)
come from the analyses that decide their findings
(:mod:`repro.analysis.datalayout`, :mod:`repro.analysis.quiescence`).
"""

from repro.analysis.absint.abi import (
    analyze_abi,
    caller_arg_counts,
    function_summary,
)
from repro.analysis.absint.domain import join_states, join_values
from repro.analysis.absint.engine import run_absint
from repro.analysis.absint.equiv import equivalence_evidence
from repro.analysis.absint.escape import analyze_escapes
from repro.analysis.absint.interp import (
    FunctionSummary,
    Workspace,
    summarize_function,
    summarize_section_function,
)

__all__ = [
    "FunctionSummary",
    "Workspace",
    "analyze_abi",
    "analyze_escapes",
    "caller_arg_counts",
    "equivalence_evidence",
    "function_summary",
    "join_states",
    "join_values",
    "run_absint",
    "summarize_function",
    "summarize_section_function",
]
