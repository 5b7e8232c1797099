"""The abstract interpreter against its reference fixpoint.

``analysis/absint/interp.py`` runs the worklist fixpoint on plain
tuples, prepares each instruction's static facts once per summary, and
reads decoded instructions that are plain tuples; ``engine.py`` shares
one decode and one set of post summaries between a create's passes.
None of that may change a summary.  This file keeps the interpreter
the fast one replaced, verbatim, as a test-only reference: its
frozen-dataclass domain, its per-visit ``_transfer``, and the
frozen-dataclass ``DecodedInstruction`` from an uncached decode.  It
requires every :class:`FunctionSummary` field, list order included,
to be equal on

* every changed function's pre and post text of the 64 seed CVEs,
  plain and augmented, and of a small generated corpus;
* every function extent of the 14 corpus run builds;
* Hypothesis byte buffers: random ones, and seed functions with 1–3
  flipped bytes, undecodable ones included;

and the ``absint`` stage's ``visits`` counter to equal the number of
``_transfer`` calls the reference makes on the same summaries.
"""

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import analyzer
from repro.analysis.absint import interp, run_absint
from repro.analysis.absint.interp import Workspace
from repro.analysis.callgraph import _function_extents
from repro.arch import disassembler, isa
from repro.arch.isa import (
    NUM_REGISTERS,
    REG_FP,
    REG_SP,
    Instruction,
    OperandKind,
)
from repro.compiler import CompilerOptions, compile_source
from repro.core import diff_objects
from repro.core.create import CreateReport, ksplice_create
from repro.errors import DisassemblyError
from repro.evaluation.corpus import CORPUS
from repro.evaluation.engine import run_build_for
from repro.evaluation.kernels import kernel_for_version
from repro.objfile import Section, SectionKind
from repro.pipeline import Trace
from repro.scenarios import GeneratedCorpus

# ---------------------------------------------------------------------------
# The reference: the decoded-instruction type, the domain and the
# interpreter before the fast path, kept verbatim.  Decoding is uncached.


@dataclass(frozen=True)
class DecodedInstruction:
    """An instruction plus where it was found."""

    offset: int
    instruction: Instruction
    raw: bytes

    @property
    def length(self) -> int:
        return self.instruction.length

    @property
    def mnemonic(self) -> str:
        return self.instruction.mnemonic

    @property
    def canonical(self) -> str:
        return self.instruction.spec.canonical

    @property
    def is_nop(self) -> bool:
        return self.instruction.spec.is_nop

    @property
    def is_pc_relative(self) -> bool:
        return self.instruction.spec.is_pc_relative

    def branch_target_offset(self) -> Optional[int]:
        """Branch target as an offset into the disassembled buffer."""
        if not self.is_pc_relative:
            return None
        return self.offset + self.length + self.instruction.operands[0]


def iter_instructions(code: bytes, start: int = 0,
                      end: int = -1):
    """The uncached decode: no memo, a frozen dataclass per
    instruction, the same errors."""
    limit = len(code) if end < 0 else min(end, len(code))
    offset = start
    while offset < limit:
        instruction = isa.decode_instruction(code, offset)
        yield DecodedInstruction(
            offset=offset, instruction=instruction,
            raw=bytes(code[offset:offset + instruction.length]))
        offset += instruction.length


#: AbsValue kinds
UNKNOWN = "unknown"
ENTRY = "entry"          # the value register ``reg`` held at entry
CONST = "const"          # a compile-time constant (``value``)
DATAPTR = "dataptr"      # address of data symbol ``symbol`` (+ offset)
STACKADDR = "stackaddr"  # entry-sp-relative address (``value``)


@dataclass(frozen=True)
class AbsValue:
    """One abstract value; ``kind`` selects which payload is live."""

    kind: str
    value: int = 0
    symbol: str = ""

    def is_entry(self, reg: int) -> bool:
        return self.kind == ENTRY and self.value == reg

    def render(self) -> str:
        if self.kind == CONST:
            return "#%d" % self.value
        if self.kind == DATAPTR:
            return "&%s+%d" % (self.symbol, self.value)
        if self.kind == STACKADDR:
            return "sp%+d" % self.value
        if self.kind == ENTRY:
            return "entry(r%d)" % self.value
        return "?"


TOP = AbsValue(kind=UNKNOWN)


def entry_value(reg: int) -> AbsValue:
    return AbsValue(kind=ENTRY, value=reg)


def const(value: int) -> AbsValue:
    return AbsValue(kind=CONST, value=value & 0xFFFFFFFF)


def dataptr(symbol: str, offset: int = 0) -> AbsValue:
    return AbsValue(kind=DATAPTR, value=offset, symbol=symbol)


def stackaddr(offset: int) -> AbsValue:
    return AbsValue(kind=STACKADDR, value=offset)


def join_values(a: AbsValue, b: AbsValue) -> AbsValue:
    return a if a == b else TOP


def signed32(value: int) -> int:
    """IMM32 fields decode unsigned; interpret as two's complement."""
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value >= 0x80000000 else value


@dataclass(frozen=True)
class MachineState:
    """Abstract registers + frame at one program point.

    ``sp`` is the entry-relative stack pointer (0 at entry, pushes go
    negative) or ``None`` when lost.  ``stack`` maps entry-relative
    byte offsets to values; argument ``i`` lives at ``4 + 4*i`` (the
    return address occupies offset 0).
    """

    sp: Optional[int] = 0
    regs: Tuple[AbsValue, ...] = field(
        default_factory=lambda: tuple(entry_value(i)
                                      for i in range(NUM_REGISTERS)))
    stack: Tuple[Tuple[int, AbsValue], ...] = ()

    def reg(self, index: int) -> AbsValue:
        return self.regs[index]

    def with_reg(self, index: int, value: AbsValue) -> "MachineState":
        regs = list(self.regs)
        regs[index] = value
        return MachineState(sp=self.sp, regs=tuple(regs),
                            stack=self.stack)

    def with_sp(self, sp: Optional[int]) -> "MachineState":
        return MachineState(sp=sp, regs=self.regs, stack=self.stack)

    def stack_dict(self) -> Dict[int, AbsValue]:
        return dict(self.stack)

    def with_slot(self, offset: int, value: AbsValue) -> "MachineState":
        slots = self.stack_dict()
        slots[offset] = value
        return MachineState(
            sp=self.sp, regs=self.regs,
            stack=tuple(sorted(slots.items())))

    def slot(self, offset: int) -> AbsValue:
        return self.stack_dict().get(offset, TOP)


def join_states(a: MachineState, b: MachineState) -> MachineState:
    sp = a.sp if a.sp == b.sp else None
    regs = tuple(join_values(x, y) for x, y in zip(a.regs, b.regs))
    a_stack, b_stack = a.stack_dict(), b.stack_dict()
    slots = {off: join_values(a_stack[off], b_stack[off])
             for off in set(a_stack) & set(b_stack)
             if join_values(a_stack[off], b_stack[off]) != TOP}
    return MachineState(sp=sp, regs=regs,
                        stack=tuple(sorted(slots.items())))


def arg_slot_index(offset: int) -> Optional[int]:
    """Argument index stored at entry-relative stack ``offset``.

    The caller pushed the arguments just above the return address, so
    argument ``i`` sits at ``4 + 4*i``; anything at or below the
    return address is frame-local.
    """
    if offset >= 4 and (offset - 4) % 4 == 0:
        return (offset - 4) // 4
    return None


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
    summary = FunctionSummary(name=name, size=limit - start)
    try:
        instrs = list(iter_instructions(code, start, limit))
    except DisassemblyError as exc:
        summary.decode_ok = False
        summary.opaque_reason = str(exc)
        return summary
    summary.instruction_count = len(instrs)
    if not instrs:
        return summary
    by_offset = {i.offset: i for i in instrs}

    states: Dict[int, MachineState] = {instrs[0].offset: MachineState()}
    worklist: List[int] = [instrs[0].offset]
    visits: Dict[int, int] = {}
    budget = MAX_VISITS_PER_INSTRUCTION

    while worklist:
        offset = worklist.pop()
        if visits.get(offset, 0) >= budget:
            continue
        visits[offset] = visits.get(offset, 0) + 1
        instr = by_offset.get(offset)
        if instr is None:
            continue
        state = states[offset]
        out, successors = _transfer(instr, state, relocations,
                                    resolve_callee, summary)
        if out.sp is not None and out.sp < summary.max_stack_depth:
            summary.max_stack_depth = out.sp
        for succ in successors:
            if succ not in by_offset:
                continue
            merged = out if succ not in states \
                else join_states(states[succ], out)
            if succ not in states or merged != states[succ]:
                states[succ] = merged
                worklist.append(succ)
    return summary


def _transfer(instr: DecodedInstruction, state: MachineState,
              relocations: Dict[int, Tuple[str, int]],
              resolve_callee: Optional[Callable[[int], str]],
              summary: FunctionSummary,
              ) -> Tuple[MachineState, List[int]]:
    """One instruction's abstract effect; returns (state, successors)."""
    mnem = instr.mnemonic
    ops = instr.instruction.operands
    fall = instr.offset + instr.length
    succs = [fall]

    if mnem == "movi":
        state = state.with_reg(ops[0], const(ops[1]))
    elif mnem == "movr":
        dst, src = ops
        value = state.reg(src)
        if src == REG_SP and state.sp is not None:
            value = stackaddr(state.sp)
        if dst == REG_SP:
            state = state.with_sp(
                value.value if value.kind == STACKADDR else None)
        else:
            state = state.with_reg(dst, value)
    elif mnem == "lea":
        entry = _reloc_symbol_for(instr, relocations, OperandKind.ABS32)
        if entry is not None:
            state = state.with_reg(ops[0], dataptr(entry[0], entry[1]))
        else:
            state = state.with_reg(ops[0], const(ops[1]))
    elif mnem == "load":
        entry = _reloc_symbol_for(instr, relocations, OperandKind.ABS32)
        if entry is not None:
            summary.accesses.append(AccessEvent(
                offset=instr.offset, symbol=entry[0], mnemonic=mnem,
                is_write=False))
        state = state.with_reg(ops[0], TOP)
    elif mnem == "store":
        entry = _reloc_symbol_for(instr, relocations, OperandKind.ABS32)
        if entry is not None:
            summary.accesses.append(AccessEvent(
                offset=instr.offset, symbol=entry[0], mnemonic=mnem,
                is_write=True))
        stored = state.reg(ops[1])
        if stored.kind == DATAPTR:
            summary.escapes.append(EscapeEvent(
                offset=instr.offset, symbol=stored.symbol,
                mnemonic=mnem,
                reason="pointer stored to global memory"))
    elif mnem == "loadr":
        dst, base, imm = ops
        base_value = state.reg(base)
        loaded = TOP
        if base == REG_SP and state.sp is not None:
            base_value = stackaddr(state.sp)
        if base_value.kind == STACKADDR:
            slot = base_value.value + signed32(imm)
            loaded = state.slot(slot)
            arg = arg_slot_index(slot)
            if arg is not None:
                summary.arg_slots_read.add(arg)
                if loaded == TOP:
                    # arguments keep their caller-supplied identity so
                    # pointer arguments stay trackable
                    loaded = AbsValue(kind=ENTRY, value=-(arg + 1))
        elif base_value.kind == DATAPTR:
            summary.accesses.append(AccessEvent(
                offset=instr.offset, symbol=base_value.symbol,
                mnemonic=mnem, is_write=False))
        state = state.with_reg(dst, loaded)
    elif mnem == "storer":
        base, imm, src = ops
        base_value = state.reg(base)
        stored = state.reg(src)
        if base == REG_SP and state.sp is not None:
            base_value = stackaddr(state.sp)
        if base_value.kind == STACKADDR:
            state = state.with_slot(base_value.value + signed32(imm),
                                    stored)
        elif base_value.kind == DATAPTR:
            summary.accesses.append(AccessEvent(
                offset=instr.offset, symbol=base_value.symbol,
                mnemonic=mnem, is_write=True))
            if stored.kind == DATAPTR:
                summary.escapes.append(EscapeEvent(
                    offset=instr.offset, symbol=stored.symbol,
                    mnemonic=mnem,
                    reason="pointer stored through a pointer into %s"
                           % base_value.symbol))
        elif stored.kind == DATAPTR:
            summary.escapes.append(EscapeEvent(
                offset=instr.offset, symbol=stored.symbol,
                mnemonic=mnem,
                reason="pointer stored through an untracked pointer"))
    elif mnem == "addi":
        reg, imm = ops
        delta = signed32(imm)
        if reg == REG_SP:
            state = state.with_sp(
                state.sp + delta if state.sp is not None else None)
        else:
            value = state.reg(reg)
            if value.kind == CONST:
                state = state.with_reg(reg, const(value.value + delta))
            elif value.kind == STACKADDR:
                state = state.with_reg(reg,
                                       stackaddr(value.value + delta))
            elif value.kind == DATAPTR:
                state = state.with_reg(
                    reg, dataptr(value.symbol, value.value + delta))
            else:
                state = state.with_reg(reg, TOP)
    elif mnem in ("add", "sub", "mul", "div", "and", "or", "xor",
                  "shl", "shr", "mod"):
        dst, src = ops
        a, b = state.reg(dst), state.reg(src)
        if mnem in ("add", "sub") and DATAPTR in (a.kind, b.kind):
            ptr = a if a.kind == DATAPTR else b
            # indexing into the symbol: keep provenance, drop the offset
            state = state.with_reg(dst, dataptr(ptr.symbol, 0))
        elif a.kind == CONST and b.kind == CONST and mnem == "add":
            state = state.with_reg(dst, const(a.value + b.value))
        else:
            state = state.with_reg(dst, TOP)
    elif mnem in ("neg", "not"):
        state = state.with_reg(ops[0], TOP)
    elif mnem in ("cmp", "cmpi", "nop", "nop2", "nop3", "nop4",
                  "cli", "sti"):
        pass
    elif mnem == "push":
        if state.sp is not None:
            new_sp = state.sp - 4
            state = state.with_sp(new_sp).with_slot(new_sp,
                                                    state.reg(ops[0]))
    elif mnem == "pop":
        if state.sp is not None:
            state = state.with_reg(ops[0], state.slot(state.sp))
            state = state.with_sp(state.sp + 4)
        else:
            state = state.with_reg(ops[0], TOP)
    elif mnem in ("call", "callr"):
        callee = ""
        if mnem == "call":
            entry = _reloc_symbol_for(instr, relocations,
                                      OperandKind.REL32)
            if entry is not None:
                callee = entry[0]
            elif resolve_callee is not None:
                target = instr.branch_target_offset()
                if target is not None:
                    callee = resolve_callee(target)
        live: List[str] = []
        if state.sp is not None:
            for slot_offset, value in state.stack:
                if state.sp <= slot_offset < 0 \
                        and value.kind == DATAPTR:
                    live.append(value.symbol)
        summary.calls.append(CallSite(
            offset=instr.offset, callee=callee,
            live_pointer_symbols=tuple(sorted(set(live)))))
        for symbol in sorted(set(live)):
            summary.escapes.append(EscapeEvent(
                offset=instr.offset, symbol=symbol, mnemonic=mnem,
                reason="live pointer on the stack at call to %s"
                       % (callee or "(indirect)")))
        for reg in CALL_CLOBBERED:
            state = state.with_reg(reg, TOP)
    elif mnem == "ret":
        fp_value = state.reg(REG_FP)
        preserved = tuple(i for i in range(8)
                          if i != REG_SP
                          and state.reg(i).is_entry(i))
        r0 = state.reg(0)
        summary.rets.append(RetSite(
            offset=instr.offset, sp=state.sp,
            fp_preserved=fp_value.is_entry(REG_FP),
            preserved_registers=preserved,
            returns_pointer_to=(r0.symbol
                                if r0.kind == DATAPTR else "")))
        return state, []
    elif mnem in ("sched", "hlt"):
        summary.sleep_sites.append(instr.offset)
        if mnem == "hlt":
            return state, []
    elif mnem == "syscall":
        state = state.with_reg(0, TOP)
    elif instr.canonical in ("jmp", "jz", "jnz", "jl", "jg", "jle",
                             "jge"):
        target = instr.branch_target_offset()
        if instr.canonical == "jmp":
            succs = [] if target is None else [target]
        elif target is not None:
            succs = [fall, target]
        return state, succs
    return state, succs


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


# ---------------------------------------------------------------------------
# Helpers


def as_data(summary) -> dict:
    """Every field of a summary as plain data, list order kept: the two
    interpreters' event classes differ, their fields must not."""
    return dataclasses.asdict(summary)


def reference_counted(section: Section, name: str,
                      resolve_callee: Optional[Callable[[int], str]] = None,
                      start: int = 0, end: int = -1):
    """The reference summary and how many ``_transfer`` calls it made."""
    global _transfer
    real = _transfer
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return real(*args)

    _transfer = counting
    try:
        summary = summarize_section_function(section, name,
                                             resolve_callee, start, end)
    finally:
        _transfer = real
    return summary, calls[0]


def text_section(code: bytes) -> Section:
    return Section(name=".text.fuzz", kind=SectionKind.TEXT, data=code)


@dataclass
class Created:
    """What one create handed its absint stage, and the stage's
    counters."""

    label: str
    unit_diffs: dict
    pre_objects: dict
    post_objects: dict
    counters: Dict[str, int]

    def summarized(self) -> List[Tuple[Section, str]]:
        """Every (section, function) the create's passes summarize, once
        each: each changed function's pre and post text, and every
        replacement function of a unit with a resized data layout."""
        seen: Dict[Tuple[int, str], Tuple[Section, str]] = {}

        def add(obj, fn):
            section = obj.sections.get(".text.%s" % fn) \
                if obj is not None else None
            if section is not None:
                seen.setdefault((id(section), fn), (section, fn))

        for unit in sorted(self.unit_diffs):
            diff = self.unit_diffs[unit]
            pre = self.pre_objects.get(unit)
            post = self.post_objects.get(unit)
            for fn in sorted(diff.changed_functions):
                add(pre, fn)
                add(post, fn)
            if diff.resized_data and post is not None:
                for section in post.text_sections():
                    if section.name.startswith(".text."):
                        add(post, section.name[len(".text."):])
        return list(seen.values())

    def reference_summaries(self) -> int:
        """How many summaries the engine ran before the escape pass
        reused the ABI pass's: the changed functions' post summaries
        were computed twice in units with a resized layout."""
        again = sum(
            1 for unit, diff in self.unit_diffs.items()
            if diff.resized_data and self.post_objects.get(unit) is not None
            for fn in diff.changed_functions
            if ".text.%s" % fn in self.post_objects[unit].sections)
        return len(self.summarized()) + again


def _create(kernel, patch: str, label: str) -> Created:
    seen = []
    real = analyzer.run_absint

    def spy(unit_diffs, pre_objects, post_objects, run_build, work):
        seen.append((unit_diffs, pre_objects, post_objects))
        return real(unit_diffs, pre_objects, post_objects, run_build, work)

    trace = Trace(label=label)
    analyzer.run_absint = spy
    try:
        ksplice_create(kernel.tree, patch, allow_data_changes=True,
                       report=CreateReport(),
                       run_build=run_build_for(kernel), trace=trace)
    finally:
        analyzer.run_absint = real
    [(unit_diffs, pre_objects, post_objects)] = seen
    stage = trace.find("analyze/absint")
    assert stage is not None
    return Created(label, unit_diffs, pre_objects, post_objects,
                   dict(stage.counters))


def _creates(specs) -> List[Created]:
    created = []
    for spec in specs:
        kernel = kernel_for_version(spec.kernel_version)
        flavours = (False, True) if spec.table1 is not None else (False,)
        for augmented in flavours:
            created.append(_create(
                kernel, kernel.patch_for(spec.cve_id, augmented=augmented),
                "%s/%s" % (spec.cve_id, augmented)))
    return created


@pytest.fixture(scope="module")
def seed_creates() -> List[Created]:
    return _creates(sorted(CORPUS, key=lambda s: s.cve_id))


@pytest.fixture(scope="module")
def generated_creates() -> List[Created]:
    return _creates(GeneratedCorpus.generate(1, 32).specs())


# ---------------------------------------------------------------------------
# Summaries equal the reference's


def _assert_creates_match(creates: List[Created]) -> int:
    compared = 0
    for created in creates:
        for section, fn in created.summarized():
            expected, _ = reference_counted(section, fn)
            assert as_data(interp.summarize_section_function(
                section, fn)) == as_data(expected), (created.label, fn)
            compared += 1
    return compared


def test_seed_pre_and_post_summaries_match_the_reference(seed_creates):
    assert len(seed_creates) > 64  # plain and augmented flavours
    assert _assert_creates_match(seed_creates) >= 2 * 64


def test_generated_corpus_summaries_match_the_reference(
        generated_creates):
    assert _assert_creates_match(generated_creates) >= 2 * 32


def test_run_build_extents_match_the_reference():
    """Merged run-kernel text, one extent per function, with calls
    resolved through the extent table as the call-graph sweep does."""
    compared = 0
    for version in sorted({spec.kernel_version for spec in CORPUS}):
        build = run_build_for(kernel_for_version(version))
        for unit in sorted(build.objects):
            obj = build.objects[unit]
            for section in obj.text_sections():
                extents = _function_extents(obj, section)
                starts = {start: name for start, _end, name in extents}

                def resolve(target: int) -> str:
                    return starts.get(target, "?")

                for start, end, name in extents:
                    expected, _ = reference_counted(section, name, resolve,
                                                    start, end)
                    got = interp.summarize_section_function(
                        section, name, resolve, start, end)
                    assert as_data(got) == as_data(expected), \
                        (version, unit, name)
                    compared += 1
    assert compared > 14 * 20


@pytest.fixture(scope="module")
def seed_texts(seed_creates,
               ) -> List[Tuple[str, bytes, Dict[int, Tuple[str, int]]]]:
    """Pre and post texts of the seed creates, for the flip fuzzer."""
    return [(fn, section.data, interp._relocation_map(section))
            for created in seed_creates
            for section, fn in created.summarized()]


_FAST = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@_FAST
@given(code=st.binary(max_size=96))
def test_random_bytes_match_the_reference(code):
    expected, transfers = reference_counted(text_section(code), "fuzz")
    assert as_data(interp.summarize_function("fuzz", code, {})) == \
        as_data(expected)
    work = Workspace()
    assert as_data(work.summary(text_section(code), "fuzz")) == \
        as_data(expected)
    assert work.visits == transfers


@_FAST
@given(data=st.data())
def test_flipped_seed_functions_match_the_reference(seed_texts, data):
    """1–3 bytes of a real function flipped, relocations kept: most
    flips still decode (a changed operand, a different opcode), some
    do not, and both interpreters must agree on each, opaque reason
    included."""
    name, code, relocations = seed_texts[data.draw(
        st.integers(0, len(seed_texts) - 1), label="function")]
    mutated = bytearray(code)
    for _ in range(data.draw(st.integers(1, 3), label="flips")):
        at = data.draw(st.integers(0, len(mutated) - 1), label="at")
        mutated[at] ^= data.draw(st.integers(1, 255), label="mask")
    mutated = bytes(mutated)
    expected = summarize_function(name, mutated, relocations)
    got = interp.summarize_function(name, mutated, relocations)
    assert as_data(got) == as_data(expected)


def test_undecodable_seed_function_matches_the_reference(seed_texts):
    """A seed function whose first byte flips to an unassigned opcode
    does not decode: both summaries are opaque, with one reason."""
    name, code, relocations = seed_texts[0]
    mutated = b"\xff" + code[1:]
    expected = summarize_function(name, mutated, relocations)
    got = interp.summarize_function(name, mutated, relocations)
    assert not got.decode_ok and got.opaque_reason
    assert as_data(got) == as_data(expected)


# ---------------------------------------------------------------------------
# The absint stage counts its work


def test_stage_counters_count_summaries_and_reference_transfers(
        seed_creates, generated_creates):
    """``visits`` is the reference's ``_transfer`` count over the
    create's summaries, and ``summaries`` is the reference engine's
    count: no corpus create resizes a data layout, so the escape pass
    never runs its interpreter there and nothing is reused."""
    for created in seed_creates + generated_creates:
        summarized = created.summarized()
        transfers = sum(reference_counted(section, fn)[1]
                        for section, fn in summarized)
        assert created.counters["summaries"] == len(summarized) \
            == created.reference_summaries(), created.label
        assert created.counters["visits"] == transfers, created.label


GROWN = """
int table[4];
int holder;

int publish(int x) {
    holder = table;
    return x;
}
"""


def test_escape_pass_reuses_the_abi_post_summaries():
    """A unit whose changed function sits beside a resized layout: the
    escape pass reads the post summary the ABI pass computed, so the
    create runs one summary fewer than before, with the same visits as
    the reference's distinct summaries and the same evidence."""
    options = CompilerOptions(opt_level=0, function_sections=True,
                              data_sections=True)
    unit = "kernel/grow.c"
    pre = compile_source(GROWN.replace("table[4]", "table[2]"), unit,
                         options).objfile
    post = compile_source(GROWN.replace("return x;", "return x + 1;"),
                          unit, options).objfile
    diffs = {unit: diff_objects(pre, post)}
    assert diffs[unit].resized_data and diffs[unit].changed_functions
    created = Created("grow", diffs, {unit: pre}, {unit: post}, {})
    work = Workspace()
    findings, evidence = run_absint(diffs, {unit: pre}, {unit: post},
                                    None, work)
    summarized = created.summarized()
    assert work.summaries == len(summarized) == 2
    assert created.reference_summaries() == 3
    assert work.visits == sum(reference_counted(section, fn)[1]
                              for section, fn in summarized)
    assert [e.kind for e in evidence] == ["abi", "equivalence", "escape"]
    assert run_absint(diffs, {unit: pre}, {unit: post}, None) == \
        (findings, evidence)


def test_workspace_summarizes_and_decodes_each_section_once(seed_creates):
    created = seed_creates[0]
    work = Workspace()
    section, fn = created.summarized()[0]
    first = work.summary(section, fn)
    assert work.summary(section, fn) is first
    assert work.instructions(section) is work.instructions(section)
    transfers = reference_counted(section, fn)[1]
    assert (work.summaries, work.visits) == (1, transfers)


# ---------------------------------------------------------------------------
# Decoded instructions


def test_memo_shared_decode_is_immutable_and_equals_a_fresh_decode():
    """The decode memo hands its offset-0 instance to every caller and
    rollout thread, so it must refuse assignment; it must also equal,
    and hash like, an uncached decode (and the reference's frozen
    dataclass's fields)."""
    code = isa.encode_instruction(isa.make("loadr", 1, 2, 0x1234))
    shared = disassembler.disassemble_one(code)
    assert disassembler.disassemble_one(code) is shared
    assert disassembler._DECODE_MEMO[code] is shared
    for name, value in (("offset", 4), ("raw", b""),
                        ("instruction", None), ("note", 1)):
        with pytest.raises(AttributeError):
            setattr(shared, name, value)
    fresh = disassembler.DecodedInstruction(
        offset=0, instruction=isa.decode_instruction(code, 0), raw=code)
    assert shared == fresh and hash(shared) == hash(fresh)
    [reference] = iter_instructions(code)
    assert (shared.offset, shared.instruction, shared.raw) == \
        (reference.offset, reference.instruction, reference.raw)
    assert hash(shared) == hash(reference)
    moved = disassembler.disassemble_one(b"\x01" + code, 1)
    assert moved is not shared and moved.offset == 1
    assert moved.instruction is shared.instruction


def test_decoded_properties_match_the_reference(seed_creates):
    """Same fields and same properties on every instruction of every
    seed pre and post text."""
    checked = 0
    for created in seed_creates[:40]:
        for section, _fn in created.summarized():
            try:
                reference = list(iter_instructions(section.data))
            except DisassemblyError:
                continue
            for got, want in zip(
                    disassembler.iter_instructions(section.data),
                    reference):
                assert (got.offset, got.instruction, got.raw, got.length,
                        got.mnemonic, got.canonical, got.is_nop,
                        got.is_pc_relative, got.branch_target_offset()) \
                    == (want.offset, want.instruction, want.raw,
                        want.length, want.mnemonic, want.canonical,
                        want.is_nop, want.is_pc_relative,
                        want.branch_target_offset())
                checked += 1
    assert checked > 1000
