"""The k86 CPU interpreter.

``step`` executes exactly one instruction against a :class:`CPUState`
and a :class:`~repro.kernel.memory.Memory` and reports what happened via
:class:`StepEvent`.  The scheduler turns SYSCALL events into calls
through the kernel's syscall entry point and SCHED events into yields.

For speed, every decoded instruction is *compiled to a closure* the
first time it is fetched; the closure is cached per address and
invalidated whenever an executable segment is written (so self-modifying
code — Ksplice's jump insertion — is observed immediately; see
:class:`_DecodeCache`).
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.arch.isa import (
    MAX_INSTRUCTION_LENGTH,
    Instruction,
    Opcode,
    decode_instruction,
    instruction_length,
)
from repro.errors import DisassemblyError, MachineError
from repro.kernel.jit import (
    HOT_THRESHOLD,
    TraceRecorder,
    adopt,
    compile_recorded,
)
from repro.kernel.memory import Memory

_MASK = 0xFFFFFFFF


def _signed(value: int) -> int:
    value &= _MASK
    return value - (1 << 32) if value >= (1 << 31) else value


class StepEvent(enum.Enum):
    NORMAL = "normal"
    SYSCALL = "syscall"
    SCHED = "sched"
    HALT = "halt"


_NORMAL = StepEvent.NORMAL
_SYSCALL = StepEvent.SYSCALL


@dataclass
class CPUState:
    """Per-thread architectural state."""

    regs: List[int] = field(default_factory=lambda: [0] * 8)
    ip: int = 0
    zf: bool = False
    sf: bool = False
    #: CLI/STI nesting depth; >0 means the scheduler must not preempt
    preempt_disable_depth: int = 0

    def reg(self, index: int) -> int:
        return self.regs[index] & _MASK

    def set_reg(self, index: int, value: int) -> None:
        self.regs[index] = value & _MASK


_Op = Callable[[CPUState, Memory], StepEvent]


def _compile_insn(insn: Instruction) -> _Op:
    """Translate one decoded instruction into an executable closure."""
    opcode = insn.spec.opcode
    length = insn.spec.length
    ops = insn.operands

    if opcode is Opcode.HLT:
        def op_hlt(state: CPUState, memory: Memory) -> StepEvent:
            return StepEvent.HALT
        return op_hlt

    if insn.spec.is_nop:
        def op_nop(state: CPUState, memory: Memory) -> StepEvent:
            state.ip += length
            return _NORMAL
        return op_nop

    if opcode is Opcode.MOVI:
        rd, imm = ops[0], ops[1] & _MASK

        def op_movi(state, memory):
            state.regs[rd] = imm
            state.ip += length
            return _NORMAL
        return op_movi

    if opcode is Opcode.MOVR:
        rd, rs = ops

        def op_movr(state, memory):
            state.regs[rd] = state.regs[rs]
            state.ip += length
            return _NORMAL
        return op_movr

    if opcode is Opcode.LOAD:
        rd, address = ops

        def op_load(state, memory):
            state.regs[rd] = memory.read_u32(address)
            state.ip += length
            return _NORMAL
        return op_load

    if opcode is Opcode.STORE:
        address, rs = ops

        def op_store(state, memory):
            memory.write_u32(address, state.regs[rs])
            state.ip += length
            return _NORMAL
        return op_store

    if opcode is Opcode.LOADR:
        rd, rb, offset = ops

        def op_loadr(state, memory):
            state.regs[rd] = memory.read_u32(
                (state.regs[rb] + offset) & _MASK)
            state.ip += length
            return _NORMAL
        return op_loadr

    if opcode is Opcode.STORER:
        rb, offset, rs = ops

        def op_storer(state, memory):
            memory.write_u32((state.regs[rb] + offset) & _MASK,
                             state.regs[rs])
            state.ip += length
            return _NORMAL
        return op_storer

    if opcode is Opcode.LEA:
        rd, address = ops

        def op_lea(state, memory):
            state.regs[rd] = address
            state.ip += length
            return _NORMAL
        return op_lea

    if opcode in (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR,
                  Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.MUL):
        rd, rs = ops
        if opcode is Opcode.ADD:
            def op_alu(state, memory):
                state.regs[rd] = (state.regs[rd] + state.regs[rs]) & _MASK
                state.ip += length
                return _NORMAL
        elif opcode is Opcode.SUB:
            def op_alu(state, memory):
                state.regs[rd] = (state.regs[rd] - state.regs[rs]) & _MASK
                state.ip += length
                return _NORMAL
        elif opcode is Opcode.AND:
            def op_alu(state, memory):
                state.regs[rd] &= state.regs[rs]
                state.ip += length
                return _NORMAL
        elif opcode is Opcode.OR:
            def op_alu(state, memory):
                state.regs[rd] |= state.regs[rs]
                state.ip += length
                return _NORMAL
        elif opcode is Opcode.XOR:
            def op_alu(state, memory):
                state.regs[rd] ^= state.regs[rs]
                state.ip += length
                return _NORMAL
        elif opcode is Opcode.SHL:
            def op_alu(state, memory):
                state.regs[rd] = (state.regs[rd]
                                  << (state.regs[rs] & 31)) & _MASK
                state.ip += length
                return _NORMAL
        elif opcode is Opcode.SHR:
            def op_alu(state, memory):
                state.regs[rd] = state.regs[rd] >> (state.regs[rs] & 31)
                state.ip += length
                return _NORMAL
        else:  # MUL: signed multiply, truncated to 32 bits
            def op_alu(state, memory):
                state.regs[rd] = (_signed(state.regs[rd])
                                  * _signed(state.regs[rs])) & _MASK
                state.ip += length
                return _NORMAL
        return op_alu

    if opcode in (Opcode.DIV, Opcode.MOD):
        rd, rs = ops
        want_div = opcode is Opcode.DIV

        def op_divmod(state, memory):
            divisor = _signed(state.regs[rs])
            if divisor == 0:
                raise MachineError("divide by zero at 0x%08x" % state.ip)
            dividend = _signed(state.regs[rd])
            quotient = int(dividend / divisor)  # C truncation
            if want_div:
                state.regs[rd] = quotient & _MASK
            else:
                state.regs[rd] = (dividend - quotient * divisor) & _MASK
            state.ip += length
            return _NORMAL
        return op_divmod

    if opcode is Opcode.ADDI:
        rd, imm = ops[0], _signed(ops[1])

        def op_addi(state, memory):
            state.regs[rd] = (state.regs[rd] + imm) & _MASK
            state.ip += length
            return _NORMAL
        return op_addi

    if opcode is Opcode.CMP:
        ra, rb = ops

        def op_cmp(state, memory):
            left, right = _signed(state.regs[ra]), _signed(state.regs[rb])
            state.zf, state.sf = left == right, left < right
            state.ip += length
            return _NORMAL
        return op_cmp

    if opcode is Opcode.CMPI:
        ra, imm = ops[0], _signed(ops[1])

        def op_cmpi(state, memory):
            left = _signed(state.regs[ra])
            state.zf, state.sf = left == imm, left < imm
            state.ip += length
            return _NORMAL
        return op_cmpi

    if opcode is Opcode.NEG:
        rd = ops[0]

        def op_neg(state, memory):
            state.regs[rd] = (-_signed(state.regs[rd])) & _MASK
            state.ip += length
            return _NORMAL
        return op_neg

    if opcode is Opcode.NOT:
        rd = ops[0]

        def op_not(state, memory):
            state.regs[rd] = (~state.regs[rd]) & _MASK
            state.ip += length
            return _NORMAL
        return op_not

    if insn.spec.is_pc_relative and opcode not in (Opcode.CALL,):
        displacement = ops[0]

        if opcode in (Opcode.JMP, Opcode.JMPS):
            def op_jump(state, memory):
                state.ip += length + displacement
                return _NORMAL
            return op_jump

        def taken(state) -> bool:  # pragma: no cover - replaced below
            return False

        if opcode in (Opcode.JZ, Opcode.JZS):
            def taken(state):
                return state.zf
        elif opcode in (Opcode.JNZ, Opcode.JNZS):
            def taken(state):
                return not state.zf
        elif opcode in (Opcode.JL, Opcode.JLS):
            def taken(state):
                return state.sf
        elif opcode in (Opcode.JG, Opcode.JGS):
            def taken(state):
                return not state.sf and not state.zf
        elif opcode in (Opcode.JLE, Opcode.JLES):
            def taken(state):
                return state.sf or state.zf
        elif opcode in (Opcode.JGE, Opcode.JGES):
            def taken(state):
                return not state.sf

        def op_condjump(state, memory):
            if taken(state):
                state.ip += length + displacement
            else:
                state.ip += length
            return _NORMAL
        return op_condjump

    if opcode is Opcode.CALL:
        displacement = ops[0]

        def op_call(state, memory):
            next_ip = state.ip + length
            sp = (state.regs[6] - 4) & _MASK
            memory.write_u32(sp, next_ip)
            state.regs[6] = sp
            state.ip = next_ip + displacement
            return _NORMAL
        return op_call

    if opcode is Opcode.CALLR:
        rs = ops[0]

        def op_callr(state, memory):
            next_ip = state.ip + length
            sp = (state.regs[6] - 4) & _MASK
            memory.write_u32(sp, next_ip)
            state.regs[6] = sp
            state.ip = state.regs[rs]
            return _NORMAL
        return op_callr

    if opcode is Opcode.RET:
        def op_ret(state, memory):
            sp = state.regs[6]
            state.ip = memory.read_u32(sp)
            state.regs[6] = (sp + 4) & _MASK
            return _NORMAL
        return op_ret

    if opcode is Opcode.PUSH:
        rs = ops[0]

        def op_push(state, memory):
            sp = (state.regs[6] - 4) & _MASK
            memory.write_u32(sp, state.regs[rs])
            state.regs[6] = sp
            state.ip += length
            return _NORMAL
        return op_push

    if opcode is Opcode.POP:
        rd = ops[0]

        def op_pop(state, memory):
            sp = state.regs[6]
            state.regs[rd] = memory.read_u32(sp)
            state.regs[6] = (sp + 4) & _MASK
            state.ip += length
            return _NORMAL
        return op_pop

    if opcode is Opcode.SYSCALL:
        def op_syscall(state, memory):
            state.ip += length
            return StepEvent.SYSCALL
        return op_syscall

    if opcode is Opcode.SCHED:
        def op_sched(state, memory):
            state.ip += length
            return StepEvent.SCHED
        return op_sched

    if opcode is Opcode.CLI:
        def op_cli(state, memory):
            state.preempt_disable_depth += 1
            state.ip += length
            return _NORMAL
        return op_cli

    if opcode is Opcode.STI:
        def op_sti(state, memory):
            if state.preempt_disable_depth > 0:
                state.preempt_disable_depth -= 1
            state.ip += length
            return _NORMAL
        return op_sti

    raise MachineError(  # pragma: no cover - table is exhaustive
        "unimplemented opcode %s" % insn.mnemonic)


class TraceStats:
    """Process-wide JIT counters, aggregated across every machine.

    Per-machine numbers live on that machine's :class:`_DecodeCache`;
    this global mirror lets the evaluation engine report corpus-wide
    interpreted/traced splits without walking hundreds of discarded
    machines.  ``total_insns`` is bumped by the scheduler (one add per
    quantum), the rest by the trace dispatch and eviction paths.
    ``compiled`` counts recordings published (traces recorded on a
    machine; one identical to a library template binds that template
    instead), ``shared`` those of them that took their factory from
    the factory table instead of calling ``compile()`` (another
    recording generated the same text), and ``adopted`` traces a
    machine took from the trace library without recording them.
    """

    __slots__ = ("total_insns", "traced_insns", "trace_hits",
                 "compiled", "adopted", "shared", "evicted")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.total_insns = 0
        self.traced_insns = 0
        self.trace_hits = 0
        self.compiled = 0
        self.adopted = 0
        self.shared = 0
        self.evicted = 0

    def snapshot(self) -> dict:
        return {
            "total_insns": self.total_insns,
            "traced_insns": self.traced_insns,
            "trace_hits": self.trace_hits,
            "compiled": self.compiled,
            "adopted": self.adopted,
            "shared": self.shared,
            "evicted": self.evicted,
        }


TRACE_STATS = TraceStats()

#: JIT switch: off runs the pure interpreter (the bench and the tests
#: use set_jit_enabled to run both sides of the same workload).
_JIT_ENABLED = True


def set_jit_enabled(enabled: bool) -> bool:
    """Toggle trace compilation; returns the previous setting."""
    global _JIT_ENABLED
    previous = _JIT_ENABLED
    _JIT_ENABLED = bool(enabled)
    return previous


def jit_enabled() -> bool:
    return _JIT_ENABLED


class _DecodeCache:
    """Caches compiled instructions and JIT traces per address.

    Invalidated by range whenever an executable segment is written —
    rare (module loads, Ksplice jump insertion), so the common case is a
    dictionary hit per step.  The cache lives on the Memory instance
    itself: a global registry keyed by ``id()`` would leak stale
    instructions into a new Memory reusing a collected one's address.
    Memory invalidates *in place* on executable writes (push
    invalidation), so the hot loop in :func:`run_slice` can alias the
    dicts without a per-instruction version check.

    ``traces`` maps entry PC -> :class:`~repro.kernel.jit.CompiledTrace`
    and ``counters`` holds per-PC back-edge hotness counts; both ride
    the same invalidation as ``entries`` so patched code never executes
    a stale trace.  The stat fields feed ``MachineHealth``.
    """

    __slots__ = ("entries", "traces", "counters", "recording",
                 "traced_insns", "trace_hits", "compiled", "adopted",
                 "shared", "evicted", "code_words")

    def __init__(self) -> None:
        self.entries: dict = {}
        self.traces: dict = {}
        self.counters: dict = {}
        self.recording = None
        self.traced_insns = 0
        self.trace_hits = 0
        self.compiled = 0
        self.adopted = 0
        self.shared = 0
        self.evicted = 0
        #: 4-byte-word keys (address >> 2) covering every byte of every
        #: instruction ever cached — entries, traces, and any in-flight
        #: recording all decode through :func:`_decode_at`, which
        #: registers them here; an adopted trace registers its path's
        #: words when it binds.  A write whose words all miss this set
        #: cannot overlap cached code, so ``invalidate_range`` returns
        #: without scanning anything.  Grows monotonically; staying
        #: large after evictions is merely conservative.
        self.code_words: set = set()

    def invalidate_range(self, address: int, count: int) -> None:
        """Executable bytes in [address, address+count) changed.

        Drops cached instructions that could overlap the write (an
        instruction can start up to max-length minus one bytes before
        it) and evicts any trace whose compiled byte range overlaps.
        Evicted traces are flagged invalid so generated code that is
        *currently executing* the trace side-exits after the store.

        The kernel image maps text and data in one executable segment,
        so every store to a kernel global lands here; the code-word
        filter keeps those data stores O(1).
        """
        words = self.code_words
        word = address >> 2
        last = (address + count - 1) >> 2
        while word not in words:
            if word >= last:
                return
            word += 1
        entries = self.entries
        if entries:
            lo = address - (MAX_INSTRUCTION_LENGTH - 1)
            span = count + MAX_INSTRUCTION_LENGTH - 1
            if span > 4 * len(entries) + 64:
                entries.clear()
            else:
                for ip in range(lo, lo + span):
                    entries.pop(ip, None)
        traces = self.traces
        if traces:
            hi = address + count
            dead = [entry for entry, trace in traces.items()
                    if trace.lo < hi and address < trace.hi]
            for entry in dead:
                traces.pop(entry).valid = False
                self.counters.pop(entry, None)
                self.evicted += 1
                TRACE_STATS.evicted += 1
        # A write over bytes the in-flight recording already decoded
        # would make the eventual compile stale.  Writes elsewhere in
        # the segment (the kernel image maps text and data together, so
        # every store to a global lands here) leave the recording alone.
        rec = self.recording
        if rec is not None and rec.overlaps(address, address + count):
            self.recording = None


def _cache_for(memory: Memory) -> _DecodeCache:
    """``memory``'s decode cache, attached empty on first use."""
    cache = memory._decode_cache
    if cache is None:
        cache = _DecodeCache()
        memory._decode_cache = cache
    return cache


#: Compiled closures keyed by raw instruction bytes.  An op is a pure
#: function of its encoding (operands, length — never its address), so
#: one compile serves every machine that ever executes those bytes:
#: rebooting a version's kernel for the next CVE re-fetches but never
#: re-decodes.  Process-global; the cap is enforced by LRU eviction
#: (hits refresh recency, overflow drops the coldest entry) so a
#: long-running fleet member never suffers the re-decode storm a
#: wholesale clear would cause.  Touched only on decode-cache misses,
#: so the OrderedDict bookkeeping is off the per-instruction path.
_OP_CACHE: "OrderedDict[bytes, _Op]" = OrderedDict()
_OP_CACHE_MAX = 200_000


def _decode_at(state: CPUState, memory: Memory,
               cache: "_DecodeCache") -> _Op:
    try:
        opcode_byte = memory.read_u8(state.ip)
        raw = memory.read_bytes(state.ip,
                                instruction_length(opcode_byte))
    except DisassemblyError as exc:
        # Executing garbage is a machine fault (kernel oops), not a
        # toolchain error.
        raise MachineError("illegal instruction at 0x%08x: %s"
                           % (state.ip, exc)) from None
    word = state.ip >> 2
    last = (state.ip + len(raw) - 1) >> 2
    words = cache.code_words
    while word <= last:
        words.add(word)
        word += 1
    op = _OP_CACHE.get(raw)
    if op is None:
        try:
            insn = decode_instruction(raw)
        except DisassemblyError as exc:
            raise MachineError("illegal instruction at 0x%08x: %s"
                               % (state.ip, exc)) from None
        op = _compile_insn(insn)
        while len(_OP_CACHE) >= _OP_CACHE_MAX:
            _OP_CACHE.popitem(last=False)
        _OP_CACHE[raw] = op
    else:
        _OP_CACHE.move_to_end(raw)
    return op


def step(state: CPUState, memory: Memory) -> StepEvent:
    """Execute one instruction; ``state.ip`` advances appropriately."""
    cache = _cache_for(memory)
    op = cache.entries.get(state.ip)
    if op is None:
        op = _decode_at(state, memory, cache)
        cache.entries[state.ip] = op
    return op(state, memory)


def run_slice(state: CPUState, memory: Memory, max_steps: int,
              syscall_hook: "Callable[[], None]",
              ) -> "Tuple[int, StepEvent, Optional[str]]":
    """Execute up to ``max_steps`` instructions in one tight loop.

    The scheduler's per-quantum fast path: cache and dict lookups are
    hoisted out of the loop and NORMAL events never leave it, so
    straight-line runs pay one Python-level dispatch per instruction
    instead of a ``step()`` call plus scheduler bookkeeping.

    ``syscall_hook`` (the scheduler's syscall trampoline, bound to the
    current thread) services SYSCALL events *inside* the slice: the
    hook redirects ``state.ip`` to the kernel entry point and the loop
    keeps going, instead of unwinding to the scheduler and re-entering
    for the remaining budget.  Syscall-heavy workloads enter the kernel
    several times per quantum, and each unwind/re-enter costs more
    than a short trace body.

    Returns ``(executed, event, fault)``:

    * ``executed`` — instructions that completed (a faulting instruction
      does not count, matching ``step()``'s raise semantics);
    * ``event`` — the event that ended the slice (NORMAL when the step
      budget ran out; never SYSCALL, which the hook consumes);
    * ``fault`` — oops message if a machine fault ended the slice.

    Self-modifying code stays observable without a per-instruction
    version check because Memory invalidates the caches *in place*
    whenever an executable segment is written.

    With the JIT enabled, the loop additionally counts back-edge
    targets (``state.ip <= ip`` after an instruction means control
    moved backwards: a loop head or hot return site), compiles a
    target crossing :data:`~repro.kernel.jit.HOT_THRESHOLD` into a
    superinstruction, and dispatches to compiled traces at slice entry
    and after every backward transfer.  Before counting a dispatch
    point for the first time, and again before recording it, the loop
    tries :func:`~repro.kernel.jit.adopt`: a trace recorded earlier in
    this process, by any machine, over bytes identical to this
    machine's is bound here instead of being counted, recorded and
    compiled again.
    A trace only runs when the remaining step budget covers a
    worst-case pass, so quantum boundaries — and therefore scheduler
    interleavings — are bit-identical to the pure interpreter.
    """
    cache = _cache_for(memory)
    normal = _NORMAL
    executed = 0
    event = normal
    if not _JIT_ENABLED:
        entries = cache.entries
        entries_get = entries.get
        while executed < max_steps:
            op = entries_get(state.ip)
            if op is None:
                try:
                    op = _decode_at(state, memory, cache)
                except MachineError as exc:
                    return executed, normal, str(exc)
                entries[state.ip] = op
            try:
                event = op(state, memory)
            except MachineError as exc:
                return executed, normal, str(exc)
            executed += 1
            if event is not normal:
                if event is _SYSCALL:
                    syscall_hook()
                    continue
                return executed, event, None
        return executed, normal, None

    # Trace-hit accounting accumulates in locals and flushes once per
    # slice on the way out: a syscall-heavy quantum dispatches dozens
    # of chained traces, and four attribute updates per dispatch were
    # measurable against trace bodies this small.
    t_ran = 0
    t_hits = 0
    try:
        check = True
        if cache.recording is None:
            # Dispatch-first: the common steady state is a compiled
            # trace at the slice-entry PC consuming the whole budget,
            # so try it before building the interpreter loop's locals.
            trace = cache.traces.get(state.ip)
            if trace is not None:
                ran, tevent, fault = trace.fn(state, memory, max_steps)
                if ran:
                    t_ran = ran
                    t_hits = 1
                    if fault is not None:
                        return ran, normal, fault
                    if tevent is not normal:
                        if tevent is _SYSCALL:
                            syscall_hook()
                        else:
                            return ran, tevent, None
                    if ran >= max_steps:
                        return ran, normal, None
                    # side exit, budget left: fall into the full loop
                    executed = ran
                else:
                    # nothing retired (a fault on the first
                    # instruction): interpret, don't redispatch
                    check = False
        entries = cache.entries
        entries_get = entries.get
        traces = cache.traces
        traces_get = traces.get
        counters = cache.counters
        counters_get = counters.get
        rec = cache.recording
        while executed < max_steps:
            ip = state.ip
            if check and rec is None:
                check = False
                trace = traces_get(ip)
                if trace is not None:
                    ran, tevent, fault = trace.fn(state, memory,
                                                  max_steps - executed)
                    if ran:
                        executed += ran
                        t_ran += ran
                        t_hits += 1
                        if fault is not None:
                            return executed, normal, fault
                        if tevent is not normal:
                            if tevent is _SYSCALL:
                                syscall_hook()
                            else:
                                return executed, tevent, None
                        check = True
                        continue
                    # non-positive budget (can't happen): interpret
                else:
                    # Hotness is counted at dispatch points: loop
                    # heads (every back edge re-arms the check),
                    # slice-start PCs (where the previous quantum's
                    # trace stopped — these become rotated loop
                    # traces), and trace side-exit continuations.
                    # A point's first visit, and the visit that would
                    # start recording it, first try to adopt a trace
                    # recorded earlier over identical bytes.
                    count = counters_get(ip, 0) + 1
                    counters[ip] = count
                    if count == 1 or count >= HOT_THRESHOLD:
                        trace = adopt(ip, memory, StepEvent)
                        if trace is not None:
                            traces[ip] = trace
                            cache.adopted += 1
                            TRACE_STATS.adopted += 1
                            check = True
                            continue
                        if count >= HOT_THRESHOLD:
                            rec = cache.recording = TraceRecorder(ip)
            op = entries_get(ip)
            if op is None:
                try:
                    op = _decode_at(state, memory, cache)
                except MachineError as exc:
                    return executed, normal, str(exc)
                entries[ip] = op
            try:
                event = op(state, memory)
            except MachineError as exc:
                return executed, normal, str(exc)
            executed += 1
            nip = state.ip
            if rec is not None:
                if cache.recording is not rec:
                    # exec write invalidated the region being recorded
                    rec = None
                else:
                    status = rec.record(memory, ip, nip)
                    if (status is None and rec.steps
                            and traces_get(nip) is not None):
                        # The path reached a PC that already has a
                        # compiled trace: stop here and chain into it
                        # at dispatch time instead of duplicating its
                        # body.  Quantum boundaries rotate through a
                        # hot loop's phases, so without this every
                        # phase would compile its own full-length
                        # variant; with it, rotations become short
                        # bridge traces.
                        rec.exit_target = nip
                        status = "ok"
                    if status is not None:
                        if status == "ok" and cache.recording is rec:
                            compiled = compile_recorded(rec, memory,
                                                        StepEvent)
                            if compiled is not None:
                                traces[rec.entry], shared = compiled
                                cache.compiled += 1
                                TRACE_STATS.compiled += 1
                                if shared:
                                    cache.shared += 1
                                    TRACE_STATS.shared += 1
                            else:
                                # uncompilable path (e.g. spans
                                # segments): back the counter off so
                                # it isn't re-recorded every pass.  A
                                # later patch to the region clears
                                # counters wholesale, re-enabling it.
                                counters[rec.entry] = -(1 << 30)
                        rec = cache.recording = None
            elif event is normal and nip <= ip:
                check = True
            if event is not normal:
                if event is _SYSCALL:
                    syscall_hook()
                    check = True
                    continue
                return executed, event, None
        return executed, normal, None
    finally:
        if t_hits:
            cache.traced_insns += t_ran
            cache.trace_hits += t_hits
            stats = TRACE_STATS
            stats.traced_insns += t_ran
            stats.trace_hits += t_hits
