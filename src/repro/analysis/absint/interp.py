"""Per-function abstract interpretation of k86 object code.

:func:`summarize_function` decodes one function's text, builds its
control-flow graph (short and long branches resolve to the same
in-buffer targets), and runs a join-based worklist fixpoint over the
tuple states of :mod:`~repro.analysis.absint.domain`.  The result is a
:class:`FunctionSummary` — the single artifact every client pass
(ABI, pointer escape, sleep reachability) reads:

* every ``ret`` site with its stack depth and the provenance of
  ``fp``/``r0`` at that point (stack-discipline and callee-saved
  proofs);
* every argument slot the function reads through its frame pointer
  (the observable arity);
* every call site with its callee and any tracked data pointers live
  on the stack at the moment of the call (escape witnesses);
* every ``sched``/``hlt`` site (sleep points) and every direct
  load/store touching a data symbol (access witnesses).

Events are recorded on every visit of their instruction, so a site
the fixpoint reaches twice is listed twice.

The interpreter is sound-for-evidence rather than complete: anything
it cannot model folds to ``UNKNOWN``/unknown-``sp``, which can only
suppress a downgrade-to-safe, never invent one.

One create's passes share a :class:`Workspace`: each text section is
decoded and each function summarized at most once per create, and the
workspace counts the fixpoints it ran and their worklist visits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.analysis.absint.domain import (
    CONST,
    DATAPTR,
    ENTRY,
    STACKADDR,
    TOP,
    State,
    Value,
    arg_slot_index,
    const,
    dataptr,
    entry_state,
    entry_value,
    join_states,
    signed32,
    stackaddr,
)
from repro.arch.disassembler import DecodedInstruction, iter_instructions
from repro.arch.isa import NUM_REGISTERS, REG_FP, REG_SP, OperandKind
from repro.errors import DisassemblyError
from repro.objfile import Section

#: upper bound on fixpoint iterations per instruction (defensive; the
#: lattice has finite height so real code converges far earlier)
MAX_VISITS_PER_INSTRUCTION = 64

#: registers a call may clobber (everything but fp/sp, which the
#: callee's prologue/epilogue discipline preserves)
CALL_CLOBBERED = tuple(r for r in range(8) if r not in (REG_FP, REG_SP))


@dataclass(frozen=True)
class RetSite:
    """One ``ret`` instruction and the state it returns with."""

    offset: int
    #: entry-relative sp at the ret (0 = balanced), None = unknown
    sp: Optional[int]
    #: fp still holds its entry value
    fp_preserved: bool
    #: registers (by index) proven to hold their entry values
    preserved_registers: Tuple[int, ...]
    #: data symbol r0 points into at return, "" otherwise
    returns_pointer_to: str = ""


@dataclass(frozen=True)
class CallSite:
    """One ``call``/``callr`` and what was live when it ran."""

    offset: int
    callee: str
    #: data symbols with a live pointer on the stack at the call
    live_pointer_symbols: Tuple[str, ...] = ()


@dataclass(frozen=True)
class AccessEvent:
    """One instruction touching a data symbol."""

    offset: int
    symbol: str
    mnemonic: str
    is_write: bool


@dataclass(frozen=True)
class EscapeEvent:
    """A pointer into a data symbol leaving the local frame."""

    offset: int
    symbol: str
    mnemonic: str
    reason: str


@dataclass
class FunctionSummary:
    """Everything the client passes need to know about one function."""

    name: str
    size: int = 0
    instruction_count: int = 0
    decode_ok: bool = True
    opaque_reason: str = ""
    #: argument slot indices read through the frame
    arg_slots_read: Set[int] = field(default_factory=set)
    rets: List[RetSite] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    sleep_sites: List[int] = field(default_factory=list)
    accesses: List[AccessEvent] = field(default_factory=list)
    escapes: List[EscapeEvent] = field(default_factory=list)
    #: deepest entry-relative sp observed (bytes, <= 0)
    max_stack_depth: int = 0

    @property
    def args_read(self) -> int:
        """Observable arity: one past the highest argument slot read."""
        return max(self.arg_slots_read) + 1 if self.arg_slots_read else 0

    @property
    def stack_balanced(self) -> bool:
        """Every return leaves sp exactly where entry found it."""
        return bool(self.rets) and all(r.sp == 0 for r in self.rets)

    @property
    def frame_preserved(self) -> bool:
        return bool(self.rets) and all(r.fp_preserved for r in self.rets)


def _reloc_symbol_for(instr: DecodedInstruction,
                      relocations: Dict[int, Tuple[str, int]],
                      wanted: OperandKind) -> Optional[Tuple[str, int]]:
    """``(symbol, addend)`` of the relocation on ``instr``'s ``wanted``
    operand field, if any."""
    for kind, field_offset in instr.instruction.spec.operand_fields:
        if kind is wanted:
            entry = relocations.get(instr.offset + field_offset)
            if entry is not None:
                return entry
    return None


def _relocation_map(section: Section) -> Dict[int, Tuple[str, int]]:
    return {reloc.offset: (reloc.symbol, reloc.addend)
            for reloc in section.relocations}


#: the transfer each mnemonic dispatches to; any other (compares, nops,
#: ``cli``/``sti`` and branches) is a ``pass`` that changes no state
_OPS: Dict[str, str] = {
    "movi": "set", "lea": "set",
    "load": "kill", "neg": "kill", "not": "kill", "syscall": "kill",
    "movr": "movr", "push": "push", "pop": "pop", "loadr": "loadr",
    "storer": "storer", "store": "store", "addi": "addi",
    "call": "call", "callr": "call", "ret": "ret",
    "sched": "sleep", "hlt": "sleep",
    **{mnem: "alu" for mnem in ("add", "sub", "mul", "div", "and", "or",
                                "xor", "shl", "shr", "mod")},
}

_BRANCHES = ("jmp", "jz", "jnz", "jl", "jg", "jle", "jge")

#: one instruction prepared for the fixpoint:
#: ``(op, operands, in-function successors, payload)``
_Step = Tuple[str, Tuple[int, ...], Tuple[int, ...], Any]


def _prepare(instrs: List[DecodedInstruction],
             relocations: Dict[int, Tuple[str, int]],
             ) -> Dict[int, _Step]:
    """Everything about each instruction that no abstract state can
    change, worked out once per summary: the transfer to run, the
    successors inside the function, and the op's static payload
    (the value a ``movi``/``lea`` loads, the access a relocated
    ``load``/``store`` records, a signed immediate, a call's
    relocated callee)."""
    offsets = {instr.offset for instr in instrs}
    steps: Dict[int, _Step] = {}
    for instr in instrs:
        offset, instruction, _raw = instr
        spec = instruction.spec
        mnem = spec.mnemonic
        ops = instruction.operands
        fall = offset + spec.length
        succs: Tuple[int, ...] = (fall,)
        op = _OPS.get(mnem, "pass")
        payload: Any = None
        if op == "pass":
            canonical = spec.canonical
            if canonical in _BRANCHES:
                # every branch is pc-relative: operand 0 is the
                # displacement from the end of the instruction
                target = fall + ops[0]
                succs = (target,) if canonical == "jmp" \
                    else (fall, target)
        elif op == "set":
            entry = _reloc_symbol_for(instr, relocations,
                                      OperandKind.ABS32) \
                if mnem == "lea" else None
            payload = dataptr(entry[0], entry[1]) if entry is not None \
                else const(ops[1])
        elif op in ("kill", "store"):
            entry = _reloc_symbol_for(instr, relocations,
                                      OperandKind.ABS32) \
                if mnem in ("load", "store") else None
            access = None if entry is None else AccessEvent(
                offset=offset, symbol=entry[0], mnemonic=mnem,
                is_write=mnem == "store")
            # a syscall leaves its result in r0
            payload = access if op == "store" \
                else (ops[0] if ops else 0, access)
        elif op == "loadr":
            payload = signed32(ops[2])
        elif op in ("storer", "addi"):
            payload = signed32(ops[1])
        elif op == "alu":
            payload = mnem
        elif op == "call":
            entry = _reloc_symbol_for(instr, relocations,
                                      OperandKind.REL32) \
                if mnem == "call" else None
            # an unrelocated call's callee is resolved on its first
            # visit, from its branch target
            payload = (mnem, entry[0] if entry is not None
                       else None if mnem == "call" else "",
                       instr.branch_target_offset())
        elif op == "ret" or mnem == "hlt":
            succs = ()  # a halted thread sleeps and never falls through
        if succs and not (succs[0] in offsets and succs[-1] in offsets):
            succs = tuple([succ for succ in succs if succ in offsets])
        steps[offset] = (op, ops, succs, payload)
    return steps


def _fixpoint(summary: FunctionSummary,
              instrs: List[DecodedInstruction],
              relocations: Dict[int, Tuple[str, int]],
              resolve_callee: Optional[Callable[[int], str]],
              ) -> int:
    """Run the worklist fixpoint over ``instrs`` (non-empty), recording
    every visit's events on ``summary``; returns the number of visits.

    The worklist is LIFO; an instruction is visited at most
    :data:`MAX_VISITS_PER_INSTRUCTION` times, and a successor goes back
    on the worklist whenever the state flowing into it changes.  The
    transfers are inline, one branch per op: a function call per visit
    would cost about as much as the transfer itself.
    """
    steps = _prepare(instrs, relocations)
    first = instrs[0].offset
    states: Dict[int, State] = {first: entry_state()}
    worklist = [first]
    pop, push = worklist.pop, worklist.append
    visits: Dict[int, int] = {}
    budget = MAX_VISITS_PER_INSTRUCTION
    callees: Dict[int, str] = {}
    arg_slots_read = summary.arg_slots_read
    accesses, escapes = summary.accesses, summary.escapes
    max_depth = summary.max_stack_depth
    count = 0

    while worklist:
        offset = pop()
        seen = visits.get(offset, 0)
        if seen >= budget:
            continue
        visits[offset] = seen + 1
        count += 1
        op, ops, succs, payload = steps[offset]
        sp, regs, stack = states[offset]
        reg: Optional[int] = None  # the register this op writes
        value: Value = TOP

        if op == "pass":
            pass
        elif op == "set":
            reg, value = ops[0], payload
        elif op == "movr":
            dst, src = ops
            value = regs[src]
            if src == REG_SP and sp is not None:
                value = stackaddr(sp)
            if dst == REG_SP:
                sp = value[1] if value[0] == STACKADDR else None
            else:
                reg = dst
        elif op == "push":
            if sp is not None:
                sp -= 4
                stack = dict(stack)
                stack[sp] = regs[ops[0]]
        elif op == "pop":
            reg = ops[0]
            if sp is not None:
                value = stack.get(sp, TOP)
                sp += 4
        elif op == "kill":
            reg, access = payload
            if access is not None:
                accesses.append(access)
        elif op == "loadr":
            reg, base = ops[0], ops[1]
            base_value = regs[base]
            if base == REG_SP and sp is not None:
                base_value = stackaddr(sp)
            if base_value[0] == STACKADDR:
                at = base_value[1] + payload
                value = stack.get(at, TOP)
                arg = arg_slot_index(at)
                if arg is not None:
                    arg_slots_read.add(arg)
                    if value == TOP:
                        # arguments keep their caller-supplied identity
                        # so pointer arguments stay trackable
                        value = entry_value(-(arg + 1))
            elif base_value[0] == DATAPTR:
                accesses.append(AccessEvent(
                    offset=offset, symbol=base_value[2],
                    mnemonic="loadr", is_write=False))
        elif op == "alu":
            reg, src = ops
            a, b = regs[reg], regs[src]
            if payload in ("add", "sub") \
                    and (a[0] == DATAPTR or b[0] == DATAPTR):
                # indexing into the symbol: keep provenance, drop the
                # offset
                value = dataptr(a[2] if a[0] == DATAPTR else b[2], 0)
            elif payload == "add" and a[0] == CONST and b[0] == CONST:
                value = const(a[1] + b[1])
        elif op == "storer":
            base, src = ops[0], ops[2]
            base_value = regs[base]
            stored = regs[src]
            if base == REG_SP and sp is not None:
                base_value = stackaddr(sp)
            if base_value[0] == STACKADDR:
                stack = dict(stack)
                stack[base_value[1] + payload] = stored
            elif base_value[0] == DATAPTR:
                accesses.append(AccessEvent(
                    offset=offset, symbol=base_value[2],
                    mnemonic="storer", is_write=True))
                if stored[0] == DATAPTR:
                    escapes.append(EscapeEvent(
                        offset=offset, symbol=stored[2],
                        mnemonic="storer",
                        reason="pointer stored through a pointer "
                               "into %s" % base_value[2]))
            elif stored[0] == DATAPTR:
                escapes.append(EscapeEvent(
                    offset=offset, symbol=stored[2], mnemonic="storer",
                    reason="pointer stored through an untracked "
                           "pointer"))
        elif op == "addi":
            dst = ops[0]
            if dst == REG_SP:
                if sp is not None:
                    sp += payload
            else:
                reg = dst
                old = regs[dst]
                kind = old[0]
                if kind == CONST:
                    value = const(old[1] + payload)
                elif kind == STACKADDR:
                    value = stackaddr(old[1] + payload)
                elif kind == DATAPTR:
                    value = dataptr(old[2], old[1] + payload)
        elif op == "ret":
            fp_value = regs[REG_FP]
            r0 = regs[0]
            summary.rets.append(RetSite(
                offset=offset, sp=sp,
                fp_preserved=fp_value[0] == ENTRY
                and fp_value[1] == REG_FP,
                preserved_registers=tuple(
                    i for i in range(8)
                    if i != REG_SP and regs[i][0] == ENTRY
                    and regs[i][1] == i),
                returns_pointer_to=r0[2] if r0[0] == DATAPTR else ""))
        elif op == "store":
            if payload is not None:
                accesses.append(payload)
            stored = regs[ops[1]]
            if stored[0] == DATAPTR:
                escapes.append(EscapeEvent(
                    offset=offset, symbol=stored[2], mnemonic="store",
                    reason="pointer stored to global memory"))
        elif op == "call":
            mnem, callee, branch = payload
            if callee is None:
                callee = callees.get(offset)
                if callee is None:
                    callee = "" if resolve_callee is None \
                        or branch is None else resolve_callee(branch)
                    callees[offset] = callee
            live: Set[str] = set()
            if sp is not None:
                live = {slot_value[2]
                        for slot_offset, slot_value in stack.items()
                        if sp <= slot_offset < 0
                        and slot_value[0] == DATAPTR}
            symbols = tuple(sorted(live))
            summary.calls.append(CallSite(
                offset=offset, callee=callee,
                live_pointer_symbols=symbols))
            for symbol in symbols:
                escapes.append(EscapeEvent(
                    offset=offset, symbol=symbol, mnemonic=mnem,
                    reason="live pointer on the stack at call to %s"
                           % (callee or "(indirect)")))
            regs = tuple([TOP if i in CALL_CLOBBERED else regs[i]
                          for i in range(NUM_REGISTERS)])
        elif op == "sleep":
            summary.sleep_sites.append(offset)

        if reg is not None:
            written = list(regs)
            written[reg] = value
            regs = tuple(written)
        out: State = (sp, regs, stack)
        if sp is not None and sp < max_depth:
            max_depth = sp
        for succ in succs:
            old_state = states.get(succ)
            if old_state is None:
                states[succ] = out
                push(succ)
            else:
                merged = join_states(old_state, out)
                if merged != old_state:
                    states[succ] = merged
                    push(succ)
    summary.max_stack_depth = max_depth
    return count


#: a text's instructions, or None and why they do not decode
_Decoded = Tuple[Optional[List[DecodedInstruction]], str]


def _decode_text(code: bytes, start: int, end: int) -> _Decoded:
    try:
        return list(iter_instructions(code, start, end)), ""
    except DisassemblyError as exc:
        return None, str(exc)


def _summarize(name: str, size: int, decoded: _Decoded,
               relocations: Dict[int, Tuple[str, int]],
               resolve_callee: Optional[Callable[[int], str]],
               ) -> Tuple[FunctionSummary, int]:
    """One function's summary and the fixpoint's visit count."""
    summary = FunctionSummary(name=name, size=size)
    instrs, reason = decoded
    if instrs is None:
        summary.decode_ok = False
        summary.opaque_reason = reason
        return summary, 0
    summary.instruction_count = len(instrs)
    if not instrs:
        return summary, 0
    return summary, _fixpoint(summary, instrs, relocations,
                              resolve_callee)


def summarize_function(
        name: str,
        code: bytes,
        relocations: Dict[int, Tuple[str, int]],
        start: int = 0,
        end: int = -1,
        resolve_callee: Optional[Callable[[int], str]] = None,
        ) -> FunctionSummary:
    """Fixpoint-interpret ``code[start:end]`` as one function body."""
    limit = len(code) if end < 0 else min(end, len(code))
    return _summarize(name, limit - start, _decode_text(code, start, limit),
                      relocations, resolve_callee)[0]


def summarize_section_function(
        obj_section: Section, name: str,
        resolve_callee: Optional[Callable[[int], str]] = None,
        start: int = 0, end: int = -1) -> FunctionSummary:
    """Summarize a function stored in ``obj_section`` (the whole
    section for function-sections objects, an extent of it for merged
    run-kernel builds)."""
    return summarize_function(
        name, obj_section.data, _relocation_map(obj_section),
        start=start, end=end, resolve_callee=resolve_callee)


class Workspace:
    """What one create's interpreter-backed passes share.

    Each function-sections text is decoded at most once, and each
    function summarized at most once: the ABI pass, the hunk
    equivalence pass and the escape pass all read the same decode and
    the same post-image summaries.  A workspace lives for one create.
    It is keyed by section object and holds each section it decoded,
    so no key is reused while it lives.  ``summaries`` counts the
    fixpoints run and ``visits`` their worklist visits (transfers),
    for the ``absint`` stage's counters.
    """

    def __init__(self) -> None:
        self._decodes: Dict[int, Tuple[Section, _Decoded]] = {}
        self._summaries: Dict[Tuple[int, str], FunctionSummary] = {}
        self.summaries = 0
        self.visits = 0

    def _decode(self, section: Section) -> _Decoded:
        held = self._decodes.get(id(section))
        if held is None:
            held = (section, _decode_text(section.data, 0,
                                          len(section.data)))
            self._decodes[id(section)] = held
        return held[1]

    def instructions(self, section: Section,
                     ) -> Optional[List[DecodedInstruction]]:
        """The section's instructions, or None if it does not decode."""
        return self._decode(section)[0]

    def summary(self, section: Section, name: str) -> FunctionSummary:
        """``name``'s summary, ``section`` holding its whole text."""
        key = (id(section), name)
        summary = self._summaries.get(key)
        if summary is None:
            summary, visits = _summarize(
                name, len(section.data), self._decode(section),
                _relocation_map(section), None)
            self.summaries += 1
            self.visits += visits
            self._summaries[key] = summary
        return summary
