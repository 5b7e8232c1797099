"""Two-pass assembler for k86 with branch relaxation.

The assembler consumes a list of structured items (labels, instructions,
alignment and data directives) and produces raw bytes plus label offsets
and relocation requests.  A small text front-end parses ``.s`` source into
those items, which is what kernel assembly files (e.g. the syscall entry
path) use.

Branch relaxation follows the classic grow-only algorithm: every branch to
a label defined in the same stream starts as a *short* (rel8) encoding and
is widened to the *long* (rel32) form when its displacement does not fit;
iteration continues until no branch grows.  Branches to undefined symbols
are always long and yield a pc32 relocation request with the canonical -4
addend, mirroring x86.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.arch import isa
from repro.arch.isa import (
    Instruction,
    InstructionSpec,
    OperandKind,
    PC32_ADDEND,
)
from repro.arch.nops import nop_sequence
from repro.errors import AssemblyError

# ---------------------------------------------------------------------------
# Structured assembly items


@dataclass(frozen=True)
class Label:
    name: str


@dataclass(frozen=True)
class SymRef:
    """Symbolic reference used where an abs32/imm32 operand goes."""

    name: str
    addend: int = 0


@dataclass(frozen=True)
class LabelRef:
    """Branch-target reference (local label or external symbol)."""

    name: str


@dataclass(frozen=True)
class Insn:
    mnemonic: str
    operands: Tuple[object, ...] = ()


@dataclass(frozen=True)
class Align:
    boundary: int


@dataclass(frozen=True)
class Data:
    """Literal data bytes; ``relocs`` are (offset-within-data, SymRef)."""

    payload: bytes
    relocs: Tuple[Tuple[int, SymRef], ...] = ()


Item = Union[Label, Insn, Align, Data]


@dataclass(frozen=True)
class RelocationRequest:
    """A fix-up the linker or Ksplice must perform later."""

    offset: int
    symbol: str
    kind: str  # "abs32" or "pc32"
    addend: int


@dataclass
class AssembledCode:
    """Result of assembling one stream (one section's worth of items)."""

    code: bytes = b""
    labels: Dict[str, int] = field(default_factory=dict)
    relocations: List[RelocationRequest] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Core assembly

_SHORT_FOR_LONG = {
    "jmp": "jmps",
    "jz": "jzs",
    "jnz": "jnzs",
    "jl": "jls",
    "jg": "jgs",
    "jle": "jles",
    "jge": "jges",
}
_LONG_LEN = 5
_SHORT_LEN = 2

# What each item is, decided once per stream: the layout and emit passes
# dispatch on these instead of re-inspecting the items.
_LABEL = 0    # argument: label name
_ALIGN = 1    # argument: boundary
_DATA = 2     # argument: payload length
_PLAIN = 3    # argument: InstructionSpec (a non-branch instruction)
_BRANCH = 4   # argument: target label or symbol name

#: One non-branch instruction's bytes, and the ``(field offset, SymRef)``
#: of each symbolic operand, which the caller turns into a relocation.
_Encoding = Tuple[bytes, Tuple[Tuple[int, SymRef], ...]]

#: Non-branch encodings keyed by ``(mnemonic, operands)``: an ``Insn``'s
#: equality, hashed as a plain tuple.  An encoding is a pure function of
#: the frozen ``Insn``: a ``SymRef`` field encodes as zero at a fixed
#: offset within the instruction, and nothing depends on where the
#: instruction lands.  Branches do depend on the layout and are never
#: stored.  Process-global and bounded by LRU eviction, like the decode
#: memo (``disassembler._DECODE_MEMO``).  Only successful encodes are
#: stored: a bad instruction misses every time and raises the same
#: error.  Control-plane threads compile beside the publish gate: a hit
#: tolerates another thread evicting its entry in between, and
#: concurrent inserts can overshoot the cap by one entry per thread
#: until the next insert trims it.
_ENCODE_MEMO: "OrderedDict[Tuple[str, Tuple[object, ...]], _Encoding]" = \
    OrderedDict()
_ENCODE_MEMO_MAX = 1 << 14


def _encode_plain(item: Insn, spec: InstructionSpec) -> _Encoding:
    """Encode a non-branch instruction."""
    fields = spec.operand_fields
    if len(item.operands) != len(fields):
        raise AssemblyError(
            "%s takes %d operands, got %d"
            % (item.mnemonic, len(fields), len(item.operands)))
    values: List[int] = []
    pending: List[Tuple[int, SymRef]] = []
    for (kind, field_offset), operand in zip(fields, item.operands):
        if isinstance(operand, SymRef):
            if kind not in (OperandKind.ABS32, OperandKind.IMM32):
                raise AssemblyError(
                    "symbolic operand not allowed for %s field of %s"
                    % (kind.value, item.mnemonic))
            pending.append((field_offset, operand))
            values.append(0)
        elif isinstance(operand, LabelRef):
            raise AssemblyError(
                "label reference in non-branch operand of %s"
                % item.mnemonic)
        else:
            values.append(int(operand))
    encoded = isa.encode_instruction(Instruction(spec=spec,
                                                 operands=tuple(values)))
    return encoded, tuple(pending)


def _encode_plain_memoised(item: Insn, spec: InstructionSpec) -> _Encoding:
    key = (item.mnemonic, item.operands)
    cached = _ENCODE_MEMO.get(key)
    if cached is not None:
        try:
            _ENCODE_MEMO.move_to_end(key)
        except KeyError:
            pass
        return cached
    encoded = _encode_plain(item, spec)
    while len(_ENCODE_MEMO) >= _ENCODE_MEMO_MAX:
        try:
            _ENCODE_MEMO.popitem(last=False)
        except KeyError:
            break
    _ENCODE_MEMO[key] = encoded
    return encoded


class Assembler:
    """Assembles one item stream into :class:`AssembledCode`."""

    def __init__(self, items: Sequence[Item], allow_short_branches: bool = True):
        self._items = list(items)
        self._allow_short = allow_short_branches

    def assemble(self) -> AssembledCode:
        classes, long_branches = self._classify()
        while True:
            labels, starts = self._layout(classes, long_branches)
            grew = False
            for idx, is_long in long_branches.items():
                if is_long:
                    continue
                disp = labels[classes[idx][1]] - (starts[idx] + _SHORT_LEN)
                if not -128 <= disp < 128:
                    long_branches[idx] = True
                    grew = True
            if not grew:
                break
        return self._emit(classes, long_branches, labels, starts)

    # -- helpers ---------------------------------------------------------

    def _classify(self) -> Tuple[List[Tuple[int, Any]], Dict[int, bool]]:
        """Each item's class and argument, and the grow-only relaxation
        state: branch index -> currently long?"""
        defined = {
            item.name for item in self._items if isinstance(item, Label)
        }
        classes: List[Tuple[int, Any]] = []
        long_branches: Dict[int, bool] = {}
        boundaries: List[int] = []
        for idx, item in enumerate(self._items):
            if isinstance(item, Insn):
                spec = isa.SPEC_BY_MNEMONIC.get(item.mnemonic)
                if spec is None:
                    raise AssemblyError("unknown mnemonic %r" % item.mnemonic)
                if (spec.is_pc_relative and item.operands
                        and isinstance(item.operands[0], LabelRef)):
                    target = item.operands[0].name
                    classes.append((_BRANCH, target))
                    # Calls have no short form; undefined targets are
                    # always long.
                    relaxable = (target in defined
                                 and item.mnemonic in _SHORT_FOR_LONG)
                    long_branches[idx] = \
                        not self._allow_short if relaxable else True
                else:
                    classes.append((_PLAIN, spec))
            elif isinstance(item, Label):
                classes.append((_LABEL, item.name))
            elif isinstance(item, Align):
                classes.append((_ALIGN, item.boundary))
                boundaries.append(item.boundary)
            else:
                assert isinstance(item, Data)
                classes.append((_DATA, len(item.payload)))
        # Checked after the loop: an unknown mnemonic anywhere in the
        # stream is the error reported, as it always was.
        for boundary in boundaries:
            if boundary <= 0 or boundary & (boundary - 1):
                raise AssemblyError("alignment must be a power of two")
        return classes, long_branches

    @staticmethod
    def _layout(classes: List[Tuple[int, Any]],
                long_branches: Dict[int, bool],
                ) -> Tuple[Dict[str, int], List[int]]:
        """Label offsets and item start offsets for the current state;
        ``starts`` has one extra entry, the end of the stream."""
        labels: Dict[str, int] = {}
        starts: List[int] = []
        pos = 0
        for idx, (cls, arg) in enumerate(classes):
            starts.append(pos)
            if cls == _PLAIN:
                pos += arg.length
            elif cls == _LABEL:
                labels[arg] = pos
            elif cls == _BRANCH:
                pos += _LONG_LEN if long_branches[idx] else _SHORT_LEN
            elif cls == _ALIGN:
                pos += -pos % arg
            else:
                pos += arg
        starts.append(pos)
        return labels, starts

    def _emit(self, classes: List[Tuple[int, Any]],
              long_branches: Dict[int, bool], labels: Dict[str, int],
              starts: List[int]) -> AssembledCode:
        out = bytearray()
        relocs: List[RelocationRequest] = []
        for idx, (cls, arg) in enumerate(classes):
            if cls == _LABEL:
                continue
            item = self._items[idx]
            at = len(out)
            if cls == _PLAIN:
                encoded, fields = _encode_plain_memoised(item, arg)
                out += encoded
                for field_offset, ref in fields:
                    relocs.append(RelocationRequest(
                        offset=at + field_offset, symbol=ref.name,
                        kind="abs32", addend=ref.addend))
            elif cls == _BRANCH:
                out += self._encode_branch(item, arg, long_branches[idx],
                                           labels, at, relocs)
            elif cls == _ALIGN:
                out += nop_sequence(starts[idx + 1] - starts[idx])
            else:
                out += item.payload
                for rel_off, ref in item.relocs:
                    relocs.append(RelocationRequest(
                        offset=at + rel_off, symbol=ref.name,
                        kind="abs32", addend=ref.addend))
        return AssembledCode(code=bytes(out), labels=labels,
                             relocations=relocs)

    @staticmethod
    def _encode_branch(item: Insn, target: str, is_long: bool,
                       labels: Dict[str, int], at: int,
                       relocs: List[RelocationRequest]) -> bytes:
        mnemonic = item.mnemonic
        if not is_long:
            disp = labels[target] - (at + _SHORT_LEN)
            return isa.encode_instruction(
                isa.make(_SHORT_FOR_LONG[mnemonic], disp))
        if target in labels:
            disp = labels[target] - (at + _LONG_LEN)
            return isa.encode_instruction(isa.make(mnemonic, disp))
        # Undefined symbol: emit long form with pc32 relocation.
        encoded = isa.encode_instruction(isa.make(mnemonic, 0))
        rel_off = isa.SPEC_BY_MNEMONIC[mnemonic].pc_relative_operand_offset
        assert rel_off is not None
        relocs.append(RelocationRequest(
            offset=at + rel_off, symbol=target, kind="pc32",
            addend=PC32_ADDEND))
        return encoded


def assemble(items: Sequence[Item], allow_short_branches: bool = True) -> AssembledCode:
    """Assemble structured ``items`` into code, labels, and relocations."""
    return Assembler(items, allow_short_branches=allow_short_branches).assemble()


# ---------------------------------------------------------------------------
# Text front-end

_LABEL_RE = re.compile(r"^([.\w$]+):$")
_REG_BY_NAME = {name: i for i, name in enumerate(isa.REGISTER_NAMES)}
# r5/r6 are also addressable by number for convenience.
_REG_BY_NAME.update({"r5": isa.REG_FP, "r6": isa.REG_SP})


def _parse_operand(token: str, kind: OperandKind) -> object:
    token = token.strip()
    if kind is OperandKind.REG:
        if token not in _REG_BY_NAME:
            raise AssemblyError("bad register %r" % token)
        return _REG_BY_NAME[token]
    if kind in (OperandKind.REL32, OperandKind.REL8):
        return LabelRef(token)
    # imm32 / abs32: integer literal, or symbol with optional +offset.
    try:
        return int(token, 0)
    except ValueError:
        pass
    match = re.match(r"^([.\w$]+)\s*([+-]\s*\d+)?$", token)
    if not match:
        raise AssemblyError("bad operand %r" % token)
    addend = int(match.group(2).replace(" ", "")) if match.group(2) else 0
    return SymRef(match.group(1), addend)


def _directive_int(directive: str, token: str) -> int:
    try:
        return int(token.strip(), 0)
    except ValueError:
        raise AssemblyError("bad %s value %r"
                            % (directive, token.strip())) from None


@dataclass
class ParsedAsm:
    """One parsed ``.s`` file: item streams per section, symbol directives."""

    sections: Dict[str, List[Item]]
    global_symbols: List[str]
    local_symbols: List[str]


def parse_asm(text: str) -> ParsedAsm:
    """Parse textual k86 assembly into per-section item streams.

    Supported directives: ``.section NAME``, ``.global NAME``,
    ``.local NAME``, ``.align N``, ``.byte v, ...``, ``.word v, ...``
    (32-bit words; symbol names allowed and produce abs32 relocations).
    Comments start with ``;`` or ``#``.
    """
    sections: Dict[str, List[Item]] = {}
    global_symbols: List[str] = []
    local_symbols: List[str] = []
    current = ".text"

    def items() -> List[Item]:
        return sections.setdefault(current, [])

    for raw_line in text.splitlines():
        line = re.split(r"[;#]", raw_line, maxsplit=1)[0].strip()
        if not line:
            continue
        label_match = _LABEL_RE.match(line)
        if label_match:
            items().append(Label(label_match.group(1)))
            continue
        parts = line.split(None, 1)
        head = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if head == ".section":
            current = rest.strip()
            continue
        if head == ".global":
            global_symbols.append(rest.strip())
            continue
        if head == ".local":
            local_symbols.append(rest.strip())
            continue
        if head == ".align":
            items().append(Align(_directive_int(head, rest)))
            continue
        if head == ".byte":
            values = [_directive_int(head, v) & 0xFF for v in rest.split(",")]
            items().append(Data(bytes(values)))
            continue
        if head == ".word":
            payload = bytearray()
            relocs: List[Tuple[int, SymRef]] = []
            for token in rest.split(","):
                token = token.strip()
                try:
                    value = int(token, 0)
                    payload += (value & 0xFFFFFFFF).to_bytes(4, "little")
                except ValueError:
                    relocs.append((len(payload), SymRef(token)))
                    payload += b"\0\0\0\0"
            items().append(Data(bytes(payload), tuple(relocs)))
            continue
        if head.startswith("."):
            raise AssemblyError("unknown directive %r" % head)
        # Instruction.
        spec = isa.SPEC_BY_MNEMONIC.get(head)
        if spec is None:
            raise AssemblyError("unknown mnemonic %r" % head)
        real_kinds = [k for k in spec.operands if k is not OperandKind.PAD]
        tokens = [t for t in rest.split(",")] if rest else []
        if len(tokens) != len(real_kinds):
            raise AssemblyError(
                "%s takes %d operands, got %d in %r"
                % (head, len(real_kinds), len(tokens), raw_line.strip()))
        operands = tuple(
            _parse_operand(token, kind)
            for token, kind in zip(tokens, real_kinds)
        )
        items().append(Insn(head, operands))

    return ParsedAsm(sections=sections, global_symbols=global_symbols,
                     local_symbols=local_symbols)
