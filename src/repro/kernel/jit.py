"""Tracing JIT: compile hot k86 paths into Python superinstructions.

The interpreter in :mod:`repro.kernel.cpu` pays one Python-level
dispatch (dict lookup + closure call) per instruction.  That is fast
enough for corpus evaluation but not for fleet members serving real
syscall traffic during a rollout.  This module closes the gap with a
classic tracing translator:

1. **Detect** — ``run_slice`` counts executions of *back-edge targets*
   (the destination of any backward control transfer: loop heads and
   hot return sites).  A PC crossing :data:`HOT_THRESHOLD` arms a
   :class:`TraceRecorder` for that head.
2. **Record** — the recorder rides the interpreter for the next pass:
   it captures the instructions *actually executed* from the head,
   including which way every conditional branch went and *through*
   calls and returns into their callees, until the path returns to
   the head (a loop), reaches a syscall/sched/halt, or hits
   :data:`MAX_TRACE_INSNS` / :data:`MAX_TRACE_SPAN`.  Recording the
   real path — rather than statically decoding fall-through — matters
   because compiled MiniC loops branch *into* their bodies on the hot
   direction, and following calls lets one trace cover a whole
   round's frame chain (dynamic CALLR/RET targets get side-exit
   guards on the recorded destination).
3. **Compile** — :func:`compile_recorded` turns the path into *one
   generated Python function* (a superinstruction): registers live in
   locals, ALU ops are inline arithmetic, loads/stores go through the
   owning Memory's fast accessors, and a loop-shaped path iterates
   inside the function without ever touching the dispatch loop.
   Branches that went the other way become side exits that sync state
   and return to the interpreter.  The function is exact: it never
   runs past the caller's step budget (quantum boundaries — and
   therefore scheduler interleavings — stay bit-identical to the
   interpreter), and a fault commits exactly the instructions that
   completed, with the interpreter's error message and IP.
4. **Invalidate** — a trace records the byte range it was compiled
   from; any executable write overlapping that range (self-modifying
   code, and exactly what ``apply``/``undo`` do at stop_machine when
   they plant or remove the redirection jump) evicts it via
   ``_DecodeCache.invalidate_range`` and flips ``valid`` so an
   *in-flight* trace side-exits right after the store that patched it.

Every compiled recording is published to a process-wide *trace
library* under its entry PC, as a :class:`TraceTemplate`: the byte
range ``[lo, hi)`` it was compiled from with those bytes, the words
its path's instructions cover, and its generated factory.  A machine
whose dispatch point has no trace yet calls :func:`adopt` on the
point's first visit and again before recording it; adoption takes the
first template whose bytes equal this machine's bytes over the same
range, registers the path's words in this machine's ``code_words`` (so
a store into that code still evicts the trace), and binds the factory
to this machine's memory.  A fleet of identical kernels therefore
records, compiles and binds each hot path once per process, and a
trace only ever runs over bytes identical to the ones it was recorded
from.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, FrozenSet, List, Optional, Tuple

from repro.arch.isa import (
    Instruction,
    Opcode,
    decode_instruction,
    instruction_length,
)
from repro.errors import DisassemblyError, MachineError

_MASK = 0xFFFFFFFF

#: executions of a back-edge target before it is trace-recorded
HOT_THRESHOLD = 8

#: instruction cap along one recorded pass of a trace
MAX_TRACE_INSNS = 128

#: longest non-looping path that still gets a budget-checked body for
#: partial passes; longer ones refuse small budgets instead (the
#: interpreter covers the tail) to keep their compile cost down
CAREFUL_MAX = 128

#: the trace library: entry PC -> published templates, oldest first.
#: Rollouts run on daemon threads, so publishing replaces an entry's
#: tuple under :data:`_LIBRARY_LOCK` and never mutates one a reader
#: may be iterating.
_LIBRARY: Dict[int, Tuple["TraceTemplate", ...]] = {}
#: every published template, oldest first (the eviction order)
_LIBRARY_ORDER: Deque["TraceTemplate"] = deque()
_LIBRARY_LOCK = threading.Lock()
_LIBRARY_MAX = 4096

#: opcodes that always end a recording.  Calls and returns are *not*
#: here: the recorder follows them into the callee (the actual executed
#: path), and the generated code guards dynamic targets (CALLR/RET)
#: with a side exit, so one trace can cover a whole
#: user-loop-plus-helpers round instead of shattering at every frame.
_TERMINATORS = frozenset((
    Opcode.SYSCALL, Opcode.SCHED, Opcode.HLT,
))

#: byte-span cap for one trace's covered region.  A path that jumps far
#: (a patched function's redirection into the module area) ends the
#: recording at the jump instead, so the near part still compiles and
#: the far target becomes its own trace — a single compiled region
#: never spans unmapped gaps between segments.
MAX_TRACE_SPAN = 4096

#: taken-condition expression per canonical conditional mnemonic, in
#: terms of the generated locals ``zf``/``sf``
_COND = {
    "jz": "zf",
    "jnz": "not zf",
    "jl": "sf",
    "jg": "not sf and not zf",
    "jle": "sf or zf",
    "jge": "not sf",
}

#: negated condition (side exit when the recorded direction was taken)
_COND_NOT = {
    "jz": "not zf",
    "jnz": "zf",
    "jl": "not sf",
    "jg": "sf or zf",
    "jle": "not sf and not zf",
    "jge": "sf",
}

_ALU = {
    Opcode.ADD: "r%(d)d = (r%(d)d + r%(s)d) & 0xFFFFFFFF",
    Opcode.SUB: "r%(d)d = (r%(d)d - r%(s)d) & 0xFFFFFFFF",
    Opcode.AND: "r%(d)d = r%(d)d & r%(s)d",
    Opcode.OR: "r%(d)d = r%(d)d | r%(s)d",
    Opcode.XOR: "r%(d)d = r%(d)d ^ r%(s)d",
    Opcode.SHL: "r%(d)d = (r%(d)d << (r%(s)d & 31)) & 0xFFFFFFFF",
    Opcode.SHR: "r%(d)d = r%(d)d >> (r%(s)d & 31)",
}

#: opcodes that write the register in operand slot 0
_WRITES_OP0 = frozenset((
    Opcode.MOVI, Opcode.MOVR, Opcode.LOAD, Opcode.LOADR, Opcode.LEA,
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.AND,
    Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.ADDI,
    Opcode.NEG, Opcode.NOT, Opcode.MOD, Opcode.POP,
))

#: opcodes that write the stack pointer (r6)
_WRITES_SP = frozenset((
    Opcode.CALL, Opcode.CALLR, Opcode.RET, Opcode.PUSH, Opcode.POP,
))

#: opcodes whose generated code touches memory (and may therefore call
#: the slow accessors and need the segment-slot locals)
_MEM_OPS = frozenset((
    Opcode.LOAD, Opcode.STORE, Opcode.LOADR, Opcode.STORER,
    Opcode.CALL, Opcode.CALLR, Opcode.RET, Opcode.PUSH, Opcode.POP,
))

_READS_BOTH = frozenset((
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.MOD,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
    Opcode.CMP,
))

_READS_OP0 = frozenset((
    Opcode.ADDI, Opcode.CMPI, Opcode.NEG, Opcode.NOT,
    Opcode.PUSH, Opcode.CALLR,
))


def _regs_read(insn: Instruction) -> Tuple[int, ...]:
    """Registers whose *incoming* value the generated code consumes."""
    opcode = insn.spec.opcode
    ops = insn.operands
    if opcode in _READS_BOTH:
        return (ops[0], ops[1])
    if opcode in _READS_OP0:
        return (ops[0],)
    if opcode in (Opcode.MOVR, Opcode.STORE, Opcode.LOADR):
        return (ops[1],)
    if opcode is Opcode.STORER:
        return (ops[0], ops[2])
    return ()


def _signed(value: int) -> int:
    value &= _MASK
    return value - 0x100000000 if value >= 0x80000000 else value


#: refresh the generated code's segment-slot locals from the shared
#: holder after a slow-path accessor call installed a new segment
_RELOAD = ("_l1, _h1, _v1, _b1, _k1, _q1, "
           "_l2, _h2, _v2, _b2, _k2, _q2 = _S")


class CompiledTrace:
    """One compiled path: entry PC, covered byte range, executor.

    ``fn(state, memory, budget)`` returns ``(executed, event, fault)``
    exactly like ``run_slice``'s inner step.  A *looping* trace checks
    the budget before every instruction of the final partial pass, so
    it consumes any positive budget and stops at the precise
    instruction boundary the interpreter would have stopped at.  A
    non-looping trace instead refuses a budget smaller than its path
    (``executed == 0``) and the interpreter covers the short tail —
    either way quantum accounting is bit-identical.  ``valid`` is
    flipped by range invalidation so a running trace observes its own
    code being patched.
    """

    __slots__ = ("entry", "lo", "hi", "fn", "valid")

    def __init__(self, entry: int, lo: int, hi: int) -> None:
        self.entry = entry
        self.lo = lo
        self.hi = hi
        self.fn = None
        self.valid = True

    def overlaps(self, lo: int, hi: int) -> bool:
        return self.lo < hi and lo < self.hi


class TraceTemplate:
    """One published recording, adoptable by any machine.

    A trace is a pure function of the bytes its path decoded, all of
    which lie in ``[lo, hi)``: a machine holding ``raw`` over that
    range may run it.  ``words`` are the 4-byte words the path's
    instructions cover, ``path`` the recorded addresses (it tells
    identical recordings apart), and ``make`` the generated factory
    that binds the trace to one machine.  Nothing here refers to a
    machine: the library never keeps one alive.
    """

    __slots__ = ("entry", "lo", "hi", "raw", "words", "path", "make")

    def __init__(self, entry: int, lo: int, hi: int, raw: bytes,
                 words: FrozenSet[int], path: Tuple[int, ...],
                 make) -> None:
        self.entry = entry
        self.lo = lo
        self.hi = hi
        self.raw = raw
        self.words = words
        self.path = path
        self.make = make


class TraceRecorder:
    """Captures one executed pass starting at a hot back-edge target.

    ``run_slice`` feeds it every retired instruction via
    :meth:`record`.  The recorder verifies control-flow continuity
    (``ip`` must be the successor of the previous step) so a thread
    switch or an unexpected transfer aborts the recording instead of
    producing a stitched-together nonsense path.
    """

    __slots__ = ("entry", "steps", "expected", "exit_target",
                 "lo", "hi")

    def __init__(self, entry: int) -> None:
        self.entry = entry
        #: (address, decoded instruction, address executed next)
        self.steps: List[Tuple[int, Instruction, int]] = []
        self.expected = entry
        self.exit_target: Optional[int] = None
        #: byte range covered by recorded steps (empty until first one)
        self.lo = entry
        self.hi = entry

    def overlaps(self, lo: int, hi: int) -> bool:
        """True if [lo, hi) touches bytes of an already-recorded step.

        Used by invalidation: a write over recorded instructions would
        make the eventual compile stale, so the recording must die; a
        write anywhere else (data, not-yet-visited code) is harmless
        because future steps decode fresh bytes when they execute.
        """
        return self.lo < hi and lo < self.hi

    def record(self, memory, ip: int, nip: int) -> Optional[str]:
        """Observe the instruction retired at ``ip`` (control moved to
        ``nip``).  Returns None to keep recording, ``"ok"`` when the
        path is complete, ``"abort"`` on discontinuity."""
        if ip != self.expected:
            return "abort"
        try:
            raw = memory.read_bytes(
                ip, instruction_length(memory.read_u8(ip)))
            insn = decode_instruction(raw)
        except (MachineError, DisassemblyError):
            return "abort"
        if self.steps and (max(self.hi, ip + insn.length)
                           - min(self.lo, ip)) > MAX_TRACE_SPAN:
            self.exit_target = ip
            return "ok"
        self.steps.append((ip, insn, nip))
        if ip < self.lo:
            self.lo = ip
        if ip + insn.length > self.hi:
            self.hi = ip + insn.length
        if insn.spec.opcode in _TERMINATORS:
            return "ok"
        if nip == self.entry:
            return "ok"
        if len(self.steps) >= MAX_TRACE_INSNS:
            self.exit_target = nip
            return "ok"
        self.expected = nip
        return None

    def kind(self) -> str:
        _, insn, succ = self.steps[-1]
        if insn.spec.opcode in _TERMINATORS:
            return "term"
        if succ == self.entry:
            return "loop"
        return "cap"


def _generate_source(entry: int,
                     steps: List[Tuple[int, Instruction, int]],
                     kind: str,
                     exit_target: Optional[int]) -> str:
    """Emit the superinstruction's Python source (a factory function).

    The path body is emitted twice.  The *fast* body runs while the
    remaining budget covers a whole pass, so it carries no per-step
    budget checks at all; the *careful* body handles the final
    partial pass, checking the budget before every instruction so the
    trace stops at the precise boundary the interpreter would have
    stopped at (quantum accounting — and therefore scheduler
    interleavings — stay bit-identical).
    """
    written = set()
    reads = set()
    flags_read = flags_written = has_mem = False
    for _, insn, _ in steps:
        opcode = insn.spec.opcode
        if opcode in _WRITES_OP0:
            written.add(insn.operands[0])
        if opcode in _WRITES_SP:
            written.add(6)
            reads.add(6)
        reads.update(_regs_read(insn))
        if opcode in (Opcode.CMP, Opcode.CMPI):
            flags_written = True
        if insn.spec.canonical in _COND:
            flags_read = True
        if opcode in _MEM_OPS:
            has_mem = True

    # Only registers the path touches become locals: ``written`` regs
    # must exist from entry (any side exit syncs them, possibly before
    # the write retired), ``reads`` obviously must, everything else is
    # never loaded nor synced — exactly the registers the interpreter
    # would have left alone.
    used = sorted(written | reads)
    length = len(steps)
    sync = ["regs[%d] = r%d" % (i, i) for i in sorted(written)]
    if flags_written:
        sync += ["state.zf = zf", "state.sf = sf"]

    lines: List[str] = []

    def emit(depth: int, text: str) -> None:
        lines.append("    " * depth + text)

    def emit_sync(depth: int) -> None:
        for stmt in sync:
            emit(depth, stmt)

    needs_event = any(
        insn.spec.opcode in _TERMINATORS for _, insn, _ in steps)

    def emit_exit(depth: int, target: str, done: int,
                  event: str = "_N") -> None:
        # All exits funnel through one shared sync-and-return epilogue
        # (via ``break``): exits are emitted per step in both bodies,
        # so inlining the sync at each would double the generated
        # source — and compiling rotated trace variants is the JIT's
        # dominant one-time cost on syscall-heavy workloads.
        emit(depth, "_x = %s" % target)
        if done:
            emit(depth, "_d = %d" % done)
        if event != "_N":
            emit(depth, "_e = %s" % event)
        emit(depth, "break")

    tmp_count = [0]

    def new_tmp() -> str:
        tmp_count[0] += 1
        return "_s%d" % tmp_count[0]

    def emit_body(depth: int, careful: bool, close: bool = True) -> None:
        # ``close`` picks the loop-closing form: True restarts the
        # ``while 1`` (the final — or only — unrolled copy), False
        # falls through into the next unrolled copy, with the close
        # condition inverted into a side exit.
        closed = False

        # Store-to-load forwarding: MiniC keeps every value on the
        # stack, so hot paths are chains of PUSH/POP operand traffic
        # and LOADR/op/STORER on frame slots.  ``avail`` maps an
        # address key to a Python expression *known* to equal memory
        # at that address, so a reload becomes a register copy (or
        # vanishes).  Keys come in two classes:
        #
        # * ``("sp", epoch, depth)`` — stack slots.  PUSH/POP/CALL/
        #   RET and ``ADDI r6`` move r6 by compile-time constants, so
        #   every stack access within an epoch has a known byte
        #   offset from the r6 the body entered with; two slots at
        #   depths a word apart are provably distinct.  Any other
        #   write to r6 starts a new epoch (all stack knowledge
        #   dies).  Stored values are captured in fresh ``_sN``
        #   temporaries at the store site, so the pattern
        #   ``PUSH r0; MOVI r0, ..; POP r1`` still forwards after r0
        #   is clobbered.
        # * ``(base_reg, offset)`` / ``("lit", address)`` — frame
        #   slots and globals.  A store through the *same* base at an
        #   offset at least a word away (or a literal a word away) is
        #   provably distinct; anything else that stores — including
        #   the other class, whose addresses are not comparable at
        #   compile time — kills the entry.
        #
        # Stores are never elided, so memory — and therefore every
        # side exit, fault, and eviction guard — stays bit-identical;
        # forwarding only ever replaces a load whose result is fully
        # determined by earlier statements of the same pass.
        avail: dict = {}
        sp_epoch = 0
        sp_depth = 0

        def kill_reg(written: int) -> None:
            value = "r%d" % written
            for akey in list(avail):
                if akey[0] == written or avail[akey] == value:
                    del avail[akey]

        def kill_stores(skey) -> None:
            for akey in list(avail):
                if (akey != skey and akey[0] == skey[0]
                        and abs(akey[-1] - skey[-1]) >= 4):
                    continue
                if akey != skey:
                    del avail[akey]

        def kill_other_class() -> None:
            # a stack store's address is not comparable with frame or
            # literal addresses at compile time
            for akey in list(avail):
                if akey[0] != "sp":
                    del avail[akey]
        for k, (addr, insn, succ) in enumerate(steps):
            opcode = insn.spec.opcode
            ops = insn.operands
            nxt = addr + insn.length
            done = k + 1

            if careful:
                # Exact quantum accounting: if the budget expires
                # here, stop *before* this instruction with the IP
                # pointing at it — the interpreter (or a rotated
                # trace at this PC) resumes exactly where a
                # pure-interpreter run would have been preempted.
                emit(depth, "if lim <= %d:" % k)
                emit_exit(depth + 1, "0x%08X" % addr, k)

            def fault_prefix(extra: int = 0) -> None:
                emit(depth + extra, "state.ip = 0x%08X" % addr)
                emit(depth + extra, "_f = %d" % k)

            def emit_slow_load(d: int, dst: str, a1: str) -> None:
                fault_prefix(d - depth)
                emit(d, "%s = _r(%s)" % (dst, a1))
                emit(d, _RELOAD)

            def emit_load(dst: str, a) -> None:
                # Inline two-slot word-view load; only the miss path
                # can fault, so the fault prefix lives there.
                if isinstance(a, int):
                    if a & 3:
                        emit_slow_load(depth, dst, "0x%08X" % a)
                        return
                    a1 = "0x%08X" % a
                    i1 = "%d - _b1" % (a >> 2)
                    i2 = "%d - _b2" % (a >> 2)
                    al = ""
                else:
                    a1 = a
                    i1 = "(%s >> 2) - _b1" % a
                    i2 = "(%s >> 2) - _b2" % a
                    al = " and not %s & 3" % a
                emit(depth, "if _l1 <= %s <= _h1%s:" % (a1, al))
                emit(depth + 1, "%s = _v1[%s]" % (dst, i1))
                emit(depth, "elif _l2 <= %s <= _h2%s:" % (a1, al))
                emit(depth + 1, "%s = _v2[%s]" % (dst, i2))
                emit(depth, "else:")
                emit_slow_load(depth + 1, dst, a1)

            def emit_store(a, val: str, post: tuple = (),
                           guard: bool = True,
                           target: Optional[str] = None) -> None:
                # Inline store: a plain (writable, non-executable)
                # segment can neither fault nor invalidate code.  A
                # writable *executable* segment (the kernel image
                # maps text and data together) is still inlined when
                # the stored word misses the code-word set — it then
                # cannot overlap any cached instruction or compiled
                # trace.  A store that might patch code (self-
                # modifying code, a stop_machine jump landing in this
                # very trace) necessarily goes through ``_w``, after
                # which the guard bails out so the new bytes are
                # observed immediately.
                if isinstance(a, int):
                    fast = not a & 3
                    a1 = "0x%08X" % a
                    i1 = "%d - _b1" % (a >> 2)
                    i2 = "%d - _b2" % (a >> 2)
                    w = "%d" % (a >> 2)
                    al = ""
                else:
                    fast = True
                    a1 = a
                    i1 = "(%s >> 2) - _b1" % a
                    i2 = "(%s >> 2) - _b2" % a
                    w = "%s >> 2" % a
                    al = " and not %s & 3" % a
                d = depth
                if fast:
                    emit(depth, "if _l1 <= %s <= _h1%s and "
                                "(_k1 or (_q1 and %s not in _CW)):"
                         % (a1, al, w))
                    emit(depth + 1, "_v1[%s] = %s" % (i1, val))
                    for stmt in post:
                        emit(depth + 1, stmt)
                    emit(depth, "elif _l2 <= %s <= _h2%s and "
                                "(_k2 or (_q2 and %s not in _CW)):"
                         % (a1, al, w))
                    emit(depth + 1, "_v2[%s] = %s" % (i2, val))
                    for stmt in post:
                        emit(depth + 1, stmt)
                    emit(depth, "else:")
                    d = depth + 1
                fault_prefix(d - depth)
                emit(d, "_w(%s, %s)" % (a1, val))
                emit(d, _RELOAD)
                for stmt in post:
                    emit(d, stmt)
                if guard:
                    emit(d, "if not _t.valid:")
                    emit_exit(d + 1, target or "0x%08X" % nxt, done)

            if insn.spec.is_nop:
                continue
            pending = None
            if opcode is Opcode.MOVI:
                emit(depth, "r%d = %d" % (ops[0], ops[1] & _MASK))
            elif opcode is Opcode.MOVR:
                emit(depth, "r%d = r%d" % (ops[0], ops[1]))
            elif opcode is Opcode.LOAD:
                key = ("lit", ops[1])
                fwd = avail.get(key)
                if fwd is None:
                    emit_load("r%d" % ops[0], ops[1])
                elif fwd != "r%d" % ops[0]:
                    emit(depth, "r%d = %s" % (ops[0], fwd))
                pending = (key, fwd if fwd is not None
                           else "r%d" % ops[0])
            elif opcode is Opcode.STORE:
                key = ("lit", ops[0])
                tmp = new_tmp()
                emit(depth, "%s = r%d" % (tmp, ops[1]))
                emit_store(ops[0], "r%d" % ops[1])
                kill_stores(key)
                pending = (key, tmp)
            elif opcode is Opcode.LOADR:
                key = (ops[1], ops[2])
                fwd = avail.get(key)
                if fwd is None:
                    emit(depth, "_a = (r%d + %d) & 0xFFFFFFFF"
                         % (ops[1], ops[2]))
                    emit_load("r%d" % ops[0], "_a")
                elif fwd != "r%d" % ops[0]:
                    emit(depth, "r%d = %s" % (ops[0], fwd))
                if ops[1] != ops[0]:
                    pending = (key, fwd if fwd is not None
                               else "r%d" % ops[0])
            elif opcode is Opcode.STORER:
                key = (ops[0], ops[1])
                tmp = new_tmp()
                emit(depth, "%s = r%d" % (tmp, ops[2]))
                emit(depth, "_a = (r%d + %d) & 0xFFFFFFFF"
                     % (ops[0], ops[1]))
                emit_store("_a", "r%d" % ops[2])
                kill_stores(key)
                pending = (key, tmp)
            elif opcode is Opcode.LEA:
                emit(depth, "r%d = %d" % (ops[0], ops[1]))
            elif opcode in _ALU:
                emit(depth, _ALU[opcode] % {"d": ops[0], "s": ops[1]})
            elif opcode is Opcode.MUL:
                d, s = ops
                emit(depth, "_a = r%d - 0x100000000 "
                            "if r%d >= 0x80000000 else r%d" % (d, d, d))
                emit(depth, "_b = r%d - 0x100000000 "
                            "if r%d >= 0x80000000 else r%d" % (s, s, s))
                emit(depth, "r%d = (_a * _b) & 0xFFFFFFFF" % d)
            elif opcode in (Opcode.DIV, Opcode.MOD):
                d, s = ops
                fault_prefix()
                emit(depth, "_dv = r%d - 0x100000000 "
                            "if r%d >= 0x80000000 else r%d" % (s, s, s))
                emit(depth, "if _dv == 0:")
                emit_sync(depth + 1)
                emit(depth + 1, "return n + %d, _N, "
                                "'divide by zero at 0x%08x'" % (k, addr))
                emit(depth, "_dd = r%d - 0x100000000 "
                            "if r%d >= 0x80000000 else r%d" % (d, d, d))
                emit(depth, "_q = int(_dd / _dv)")
                if opcode is Opcode.DIV:
                    emit(depth, "r%d = _q & 0xFFFFFFFF" % d)
                else:
                    emit(depth, "r%d = (_dd - _q * _dv) & 0xFFFFFFFF"
                         % d)
            elif opcode is Opcode.ADDI:
                emit(depth, "r%d = (r%d + %d) & 0xFFFFFFFF"
                     % (ops[0], ops[0], _signed(ops[1])))
            elif opcode is Opcode.CMP:
                a, b = ops
                emit(depth, "_a = r%d - 0x100000000 "
                            "if r%d >= 0x80000000 else r%d" % (a, a, a))
                emit(depth, "_b = r%d - 0x100000000 "
                            "if r%d >= 0x80000000 else r%d" % (b, b, b))
                emit(depth, "zf = _a == _b")
                emit(depth, "sf = _a < _b")
            elif opcode is Opcode.CMPI:
                a, imm = ops[0], _signed(ops[1])
                emit(depth, "_a = r%d - 0x100000000 "
                            "if r%d >= 0x80000000 else r%d" % (a, a, a))
                emit(depth, "zf = _a == %d" % imm)
                emit(depth, "sf = _a < %d" % imm)
            elif opcode is Opcode.NEG:
                emit(depth, "r%d = (-(r%d - 0x100000000 "
                            "if r%d >= 0x80000000 else r%d)) "
                            "& 0xFFFFFFFF"
                     % (ops[0], ops[0], ops[0], ops[0]))
            elif opcode is Opcode.NOT:
                emit(depth, "r%d = (~r%d) & 0xFFFFFFFF"
                     % (ops[0], ops[0]))
            elif insn.spec.canonical in _COND:
                taken_target = nxt + ops[0]
                if succ == nxt:
                    # recorded not-taken: side exit if the branch fires
                    emit(depth, "if %s:" % _COND[insn.spec.canonical])
                    emit_exit(depth + 1, "0x%08X" % taken_target, done)
                elif succ == entry:
                    # recorded taken, closing the loop
                    if close:
                        emit(depth, "if %s:"
                             % _COND[insn.spec.canonical])
                        emit(depth + 1, "n += %d" % done)
                        emit(depth + 1, "continue")
                        emit_exit(depth, "0x%08X" % nxt, done)
                    else:
                        emit(depth, "if %s:"
                             % _COND_NOT[insn.spec.canonical])
                        emit_exit(depth + 1, "0x%08X" % nxt, done)
                        emit(depth, "n += %d" % done)
                    closed = True
                else:
                    # recorded taken mid-path: side exit on
                    # fall-through
                    emit(depth, "if %s:"
                         % _COND_NOT[insn.spec.canonical])
                    emit_exit(depth + 1, "0x%08X" % nxt, done)
            elif opcode in (Opcode.JMP, Opcode.JMPS):
                # control simply continues at the target, which is
                # the next recorded step (or the entry, handled by
                # the generic close)
                pass
            elif opcode is Opcode.CALL:
                # Static target: the recorded successor IS where the
                # call goes, so control simply falls through into the
                # callee's recorded instructions.
                emit(depth, "_sp = (r6 - 4) & 0xFFFFFFFF")
                emit_store("_sp", "0x%08X" % nxt, post=("r6 = _sp",),
                           target="0x%08X" % succ)
                sp_depth -= 4
                kill_other_class()
                pending = (("sp", sp_epoch, sp_depth), "0x%08X" % nxt)
            elif opcode is Opcode.CALLR:
                # Dynamic target: side-exit unless it goes where the
                # recording went.  The register is read *after* the
                # push updates r6, matching the interpreter (CALLR
                # through r6 targets the new stack pointer).
                emit(depth, "_sp = (r6 - 4) & 0xFFFFFFFF")
                emit_store("_sp", "0x%08X" % nxt, post=("r6 = _sp",),
                           target="r%d" % ops[0])
                sp_depth -= 4
                kill_other_class()
                pending = (("sp", sp_epoch, sp_depth), "0x%08X" % nxt)
                if succ != entry or kind != "loop":
                    emit(depth, "if r%d != 0x%08X:" % (ops[0], succ))
                    emit_exit(depth + 1, "r%d" % ops[0], done)
                elif close:
                    emit(depth, "if r%d == 0x%08X:" % (ops[0], succ))
                    emit(depth + 1, "n += %d" % done)
                    emit(depth + 1, "continue")
                    emit_exit(depth, "r%d" % ops[0], done)
                    closed = True
                else:
                    emit(depth, "if r%d != 0x%08X:" % (ops[0], succ))
                    emit_exit(depth + 1, "r%d" % ops[0], done)
                    emit(depth, "n += %d" % done)
                    closed = True
            elif opcode is Opcode.RET:
                # Dynamic target: guard on the recorded return site.
                # When the return slot's value is known (forwarded
                # from the matching CALL's pushed literal — any
                # aliasing store would have killed the entry), the
                # guard resolves at compile time and the whole
                # load-and-check disappears.
                key = ("sp", sp_epoch, sp_depth)
                fwd = avail.get(key)
                sp_depth += 4
                if (fwd is not None and fwd.startswith("0x")
                        and int(fwd, 16) != succ):
                    fwd = None  # defensive: recording says otherwise
                if fwd is None:
                    emit(depth, "_a = r6")
                    emit_load("_ra", "_a")
                    emit(depth, "r6 = (_a + 4) & 0xFFFFFFFF")
                else:
                    emit(depth, "r6 = (r6 + 4) & 0xFFFFFFFF")
                if fwd is not None and fwd.startswith("0x"):
                    # statically matches the recorded return site
                    if succ == entry and kind == "loop":
                        emit(depth, "n += %d" % done)
                        if close:
                            emit(depth, "continue")
                        closed = True
                elif succ != entry or kind != "loop":
                    if fwd is not None:
                        emit(depth, "_ra = %s" % fwd)
                    emit(depth, "if _ra != 0x%08X:" % succ)
                    emit_exit(depth + 1, "_ra", done)
                elif close:
                    if fwd is not None:
                        emit(depth, "_ra = %s" % fwd)
                    emit(depth, "if _ra == 0x%08X:" % succ)
                    emit(depth + 1, "n += %d" % done)
                    emit(depth + 1, "continue")
                    emit_exit(depth, "_ra", done)
                    closed = True
                else:
                    if fwd is not None:
                        emit(depth, "_ra = %s" % fwd)
                    emit(depth, "if _ra != 0x%08X:" % succ)
                    emit_exit(depth + 1, "_ra", done)
                    emit(depth, "n += %d" % done)
                    closed = True
            elif opcode is Opcode.PUSH:
                tmp = new_tmp()
                emit(depth, "%s = r%d" % (tmp, ops[0]))
                emit(depth, "_sp = (r6 - 4) & 0xFFFFFFFF")
                emit_store("_sp", "r%d" % ops[0], post=("r6 = _sp",))
                sp_depth -= 4
                kill_other_class()
                pending = (("sp", sp_epoch, sp_depth), tmp)
            elif opcode is Opcode.POP:
                key = ("sp", sp_epoch, sp_depth)
                fwd = None if ops[0] == 6 else avail.get(key)
                if fwd is None:
                    emit(depth, "_a = r6")
                    emit_load("r%d" % ops[0], "_a")
                    emit(depth, "r6 = (_a + 4) & 0xFFFFFFFF")
                else:
                    if fwd != "r%d" % ops[0]:
                        emit(depth, "r%d = %s" % (ops[0], fwd))
                    emit(depth, "r6 = (r6 + 4) & 0xFFFFFFFF")
                sp_depth += 4
            elif opcode is Opcode.SYSCALL:
                emit_exit(depth, "0x%08X" % nxt, done, "_SY")
            elif opcode is Opcode.SCHED:
                emit_exit(depth, "0x%08X" % nxt, done, "_SC")
            elif opcode is Opcode.HLT:
                emit_exit(depth, "0x%08X" % addr, done, "_H")
            elif opcode is Opcode.CLI:
                emit(depth, "state.preempt_disable_depth += 1")
            elif opcode is Opcode.STI:
                emit(depth, "if state.preempt_disable_depth > 0:")
                emit(depth + 1, "state.preempt_disable_depth -= 1")
            else:  # pragma: no cover - table is exhaustive
                raise MachineError(
                    "untraceable opcode %s" % insn.mnemonic)
            if opcode is Opcode.ADDI and ops[0] == 6:
                # constant stack adjustment (frame setup/teardown):
                # stack-slot depths stay tracked
                sp_depth += _signed(ops[1])
            elif opcode in _WRITES_OP0 and ops[0] == 6:
                # r6 rewritten by an untracked amount: every known
                # stack depth is relative to a stale r6
                sp_epoch += 1
                sp_depth = 0
                for akey in list(avail):
                    if akey[0] == "sp":
                        del avail[akey]
            if opcode in _WRITES_OP0:
                kill_reg(ops[0])
            if opcode in _WRITES_SP:
                kill_reg(6)
            if pending is not None:
                avail[pending[0]] = pending[1]

        if kind == "cap":
            emit_exit(depth, "0x%08X" % exit_target, length)
        elif kind == "loop" and not closed:
            # last step falls (or jumps) straight back to the entry
            emit(depth, "n += %d" % length)
            if not careful and close:
                emit(depth, "continue")

    emit(0, "def _make(_t, _r, _w, _S, _CW, _N, _SY, _SC, _H, _ME):")
    emit(1, "def _trace(state, memory, budget,")
    emit(1, "           _t=_t, _r=_r, _w=_w, _S=_S, _CW=_CW,")
    emit(1, "           _N=_N, _SY=_SY, _SC=_SC, _H=_H, _ME=_ME):")
    has_careful = kind == "loop" or length <= CAREFUL_MAX
    if not has_careful:
        # A long non-looping trace executes its path at most once, so
        # instead of compiling a second per-step budget-checked body
        # for the quantum's final partial pass, it *refuses* a budget
        # that cannot cover a whole pass: ``run_slice`` interprets the
        # short tail instruction by instruction (bit-identical by
        # construction).  This halves the generated source — and
        # compiling trace variants is the JIT's dominant one-time
        # cost on syscall-heavy workloads.
        emit(2, "if budget < %d:" % length)
        emit(3, "return 0, _N, None")
    if used:
        emit(2, "regs = state.regs")
    for i in used:
        emit(2, "r%d = regs[%d]" % (i, i))
    if flags_read or flags_written:
        emit(2, "zf = state.zf")
        emit(2, "sf = state.sf")
    if has_mem:
        emit(2, _RELOAD)
    emit(2, "n = 0")
    emit(2, "_f = 0")
    emit(2, "_d = 0")
    if needs_event:
        emit(2, "_e = _N")
    emit(2, "try:")
    emit(3, "while 1:")
    # Short loop bodies are dominated by per-pass mechanics (the budget
    # check and the while-restart), so their fast body is unrolled:
    # copies fall through into each other, and only the last restarts
    # the while.  Exit accounting is unchanged — ``n`` accrues per
    # copy, so a side exit anywhere reports the exact boundary.
    unroll = 4 if kind == "loop" and length <= 32 else 1
    if has_careful:
        # Fast body: a whole pass of budget remains, so no per-step
        # budget checks.  Every exit breaks to the shared epilogue.
        emit(4, "if budget - n >= %d:" % (length * unroll))
        for j in range(unroll):
            emit_body(5, careful=False, close=j == unroll - 1)
        # Careful body: the final partial pass.  ``lim`` is how many
        # more instructions may retire; it only changes when the loop
        # closes (n += pass length, falling back to the top), so it
        # is hoisted out of the per-step checks.
        emit(4, "lim = budget - n")
        emit_body(4, careful=True)
    else:
        # Entry guard above proved the budget covers the whole pass;
        # every exit breaks to the shared epilogue.
        emit_body(4, careful=False)
    emit(2, "except _ME as exc:")
    emit_sync(3)
    emit(3, "return n + _f, _N, str(exc)")
    emit_sync(2)
    emit(2, "state.ip = _x")
    emit(2, "return n + _d, %s, None" % ("_e" if needs_event else "_N"))
    emit(1, "return _trace")
    return "\n".join(lines) + "\n"


def compile_recorded(recorder: TraceRecorder, memory,
                     events) -> Optional[CompiledTrace]:
    """Compile a completed recording, publish it, bind it to ``memory``.

    ``events`` supplies the interpreter's StepEvent singletons so
    generated code returns the very same objects ``run_slice``
    compares against.  An identical recording already in the library
    (same entry, path and bytes) is bound without compiling again.
    Returns None when the path cannot be compiled.
    """
    steps = recorder.steps
    if not steps:
        return None
    kind = recorder.kind()
    entry = recorder.entry
    lo = min(addr for addr, _, _ in steps)
    hi = max(addr + insn.length for addr, insn, _ in steps)
    try:
        raw = memory.read_bytes(lo, hi - lo)
    except MachineError:
        # The path crossed between segments (e.g. a patched function's
        # redirection jump from kernel text into the module area), so
        # its byte span covers an unmapped gap.  Such a trace would
        # also be evicted by every write in between; decline instead.
        return None
    path = tuple(addr for addr, _, _ in steps)
    for template in _LIBRARY.get(entry, ()):
        if template.path == path and template.raw == raw:
            return _bind(template, memory, events)
    try:
        source = _generate_source(entry, steps, kind,
                                  recorder.exit_target)
    except MachineError:
        return None
    code = compile(source, "<k86-trace-0x%08x>" % entry, "exec")
    namespace: Dict[str, object] = {}
    exec(code, namespace)  # noqa: S102 - generated from decoded insns
    words = frozenset(
        word for addr, insn, _ in steps
        for word in range(addr >> 2, ((addr + insn.length - 1) >> 2) + 1))
    template = TraceTemplate(entry, lo, hi, raw, words, path,
                             namespace["_make"])
    _publish(template)
    return _bind(template, memory, events)


def adopt(entry: int, memory, events) -> Optional[CompiledTrace]:
    """Bind the first library trace at ``entry`` whose recorded bytes
    equal ``memory``'s over the same range, or return None."""
    for template in _LIBRARY.get(entry, ()):
        lo = template.lo
        try:
            here = memory.read_bytes(lo, template.hi - lo)
        except MachineError:
            continue
        if here == template.raw:
            return _bind(template, memory, events)
    return None


def _bind(template: TraceTemplate, memory, events) -> CompiledTrace:
    """Instantiate ``template`` on ``memory``.

    The path's words join this machine's ``code_words``: an adopting
    machine may never have decoded them, and without them a store into
    the trace's code would skip the invalidation that evicts it.
    """
    trace = CompiledTrace(template.entry, template.lo, template.hi)
    read, write, holder = memory.jit_accessors()
    code_words = memory._decode_cache.code_words
    code_words.update(template.words)
    trace.fn = template.make(
        trace, read, write, holder, code_words,
        events.NORMAL, events.SYSCALL, events.SCHED,
        events.HALT, MachineError)
    return trace


def _publish(template: TraceTemplate) -> None:
    """Add ``template`` to the library, dropping the oldest templates
    beyond :data:`_LIBRARY_MAX`."""
    with _LIBRARY_LOCK:
        entry = template.entry
        _LIBRARY[entry] = _LIBRARY.get(entry, ()) + (template,)
        _LIBRARY_ORDER.append(template)
        while len(_LIBRARY_ORDER) > _LIBRARY_MAX:
            old = _LIBRARY_ORDER.popleft()
            rest = tuple(t for t in _LIBRARY[old.entry] if t is not old)
            if rest:
                _LIBRARY[old.entry] = rest
            else:
                del _LIBRARY[old.entry]


def clear_code_cache() -> None:
    """Empty the trace library (test and benchmark isolation)."""
    with _LIBRARY_LOCK:
        _LIBRARY.clear()
        _LIBRARY_ORDER.clear()
