"""Linear-sweep disassembler for k86.

The run-pre matcher depends on exactly the two architecture facts the paper
names in §4.3: instruction lengths, and which instructions take pc-relative
offsets.  Both come from the instruction table; this module packages them
as a stream decoder.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, NamedTuple, Optional

from repro.arch import isa
from repro.arch.isa import Instruction, OperandKind


class DecodedInstruction(NamedTuple):
    """An instruction plus where it was found.

    A plain immutable tuple: the decode memo shares its offset-0
    instances across callers and threads, and the analysis sweeps build
    one per instruction they decode, so it must be both unassignable
    and cheap to make.
    """

    offset: int
    instruction: Instruction
    raw: bytes

    @property
    def length(self) -> int:
        return self.instruction.spec.length

    @property
    def mnemonic(self) -> str:
        return self.instruction.spec.mnemonic

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


#: builds a DecodedInstruction from its field tuple without the
#: keyword-argument ``__new__`` NamedTuple generates
_new_decoded = tuple.__new__


#: Decoded instructions keyed by their raw bytes, stored at offset 0.
#: An instruction is a pure function of its encoding (the opcode byte
#: fixes the length, the rest fixes the operands), so one decode serves
#: every buffer and every address those bytes ever appear at.
#: Process-global and bounded by LRU eviction, like the CPU's op cache.
#: Only successful decodes are stored: a bad encoding misses every time
#: and raises the same error, with the same offsets, as an uncached one.
#: Control-plane rollout threads decode concurrently with the publish
#: gate: a hit tolerates another thread evicting its entry in between,
#: and concurrent inserts can overshoot the cap by one entry per thread
#: until the next insert trims it.
_DECODE_MEMO: "OrderedDict[bytes, DecodedInstruction]" = OrderedDict()
_DECODE_MEMO_MAX = 1 << 16


def disassemble_one(code: bytes, offset: int = 0) -> DecodedInstruction:
    """Decode a single instruction at ``offset``."""
    length = isa.LENGTH_BY_OPCODE.get(code[offset]) \
        if 0 <= offset < len(code) else None
    if length is not None:
        raw = bytes(code[offset:offset + length])
        cached = _DECODE_MEMO.get(raw)
        if cached is not None:
            try:
                _DECODE_MEMO.move_to_end(raw)
            except KeyError:
                pass
            if offset == 0:
                return cached
            return _new_decoded(DecodedInstruction,
                                (offset, cached.instruction, raw))
    # Decode in place: errors name offsets into ``code``.
    instruction = isa.decode_instruction(code, offset)
    raw = bytes(code[offset:offset + instruction.length])
    decoded = _new_decoded(DecodedInstruction, (offset, instruction, raw))
    if length is not None:
        while len(_DECODE_MEMO) >= _DECODE_MEMO_MAX:
            _DECODE_MEMO.popitem(last=False)
        _DECODE_MEMO[raw] = decoded if offset == 0 else _new_decoded(
            DecodedInstruction, (0, instruction, raw))
    return decoded


def iter_instructions(code: bytes, start: int = 0,
                      end: int = -1) -> Iterator[DecodedInstruction]:
    """Yield instructions from ``start`` until ``end`` (or end of buffer).

    Exactly :func:`disassemble_one` at each offset.  Its memo-hit path
    is inline here: the call-graph sweep, absint and lint decode whole
    sections, and a call per instruction costs about a quarter of a
    sweep.  Everything else (a miss, a bad or truncated encoding) goes
    through :func:`disassemble_one`.
    """
    limit = len(code) if end < 0 else min(end, len(code))
    offset = start
    while offset < limit:
        length = isa.LENGTH_BY_OPCODE.get(code[offset])
        if length is not None:
            raw = bytes(code[offset:offset + length])
            cached = _DECODE_MEMO.get(raw)
            if cached is not None:
                try:
                    _DECODE_MEMO.move_to_end(raw)
                except KeyError:
                    pass
                yield cached if offset == 0 else _new_decoded(
                    DecodedInstruction, (offset, cached.instruction, raw))
                offset += length
                continue
        decoded = disassemble_one(code, offset)
        yield decoded
        offset += len(decoded.raw)


def disassemble(code: bytes) -> List[DecodedInstruction]:
    """Disassemble the whole buffer as a list."""
    return list(iter_instructions(code))


def format_instruction(decoded: DecodedInstruction) -> str:
    """Human-readable rendering, e.g. ``0004: movi r0, 42``."""
    instr = decoded.instruction
    parts: List[str] = []
    operand_iter = iter(instr.operands)
    for kind in instr.spec.operands:
        if kind is OperandKind.PAD:
            continue
        value = next(operand_iter)
        if kind is OperandKind.REG:
            parts.append(isa.REGISTER_NAMES[value])
        elif kind in (OperandKind.REL32, OperandKind.REL8):
            target = decoded.offset + instr.length + value
            parts.append("0x%x" % target)
        elif kind is OperandKind.ABS32:
            parts.append("[0x%08x]" % value)
        else:
            parts.append(str(value))
    text = instr.mnemonic
    if parts:
        text += " " + ", ".join(parts)
    return "%04x: %s" % (decoded.offset, text)
