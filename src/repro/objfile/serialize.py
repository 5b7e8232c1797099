"""Binary serialization of KELF object files.

Update packs written by ksplice-create carry serialized object files (the
paper's update tarball); this module implements the on-disk format:

    magic "KELF" | version u16 | name | nsections u32 | sections | nsyms u32 | symbols

Strings are u16 length-prefixed UTF-8.  All integers little-endian.
"""

from __future__ import annotations

import io
import struct
from typing import BinaryIO

from repro.errors import ObjectFormatError
from repro.objfile.objectfile import ObjectFile
from repro.objfile.relocation import Relocation, RelocationType
from repro.objfile.section import Section, SectionKind
from repro.objfile.symbol import Symbol, SymbolBinding, SymbolKind

MAGIC = b"KELF"
VERSION = 1

_SECTION_KINDS = list(SectionKind)
_RELOC_TYPES = list(RelocationType)
_BINDINGS = list(SymbolBinding)
_SYMBOL_KINDS = list(SymbolKind)


def _write_str(stream: BinaryIO, text: str) -> None:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ObjectFormatError("string too long to serialize")
    stream.write(struct.pack("<H", len(raw)))
    stream.write(raw)


def _read_str(stream: BinaryIO) -> str:
    (length,) = struct.unpack("<H", _read_exact(stream, 2))
    try:
        return _read_exact(stream, length).decode("utf-8")
    except UnicodeDecodeError:
        raise ObjectFormatError("KELF string is not UTF-8") from None


def _pick(table: list, index: int, what: str):
    """``table[index]``, or ObjectFormatError for an unknown code."""
    if index >= len(table):
        raise ObjectFormatError("unknown KELF %s code %d" % (what, index))
    return table[index]


def _read_exact(stream: BinaryIO, count: int) -> bytes:
    data = stream.read(count)
    if len(data) != count:
        raise ObjectFormatError("truncated KELF stream")
    return data


def dump_object(obj: ObjectFile) -> bytes:
    """Serialize ``obj`` to bytes."""
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(struct.pack("<H", VERSION))
    _write_str(out, obj.name)
    out.write(struct.pack("<I", len(obj.sections)))
    for section in obj.sections.values():
        _write_str(out, section.name)
        out.write(struct.pack("<BH", _SECTION_KINDS.index(section.kind),
                              section.alignment))
        out.write(struct.pack("<I", section.size))
        out.write(section.data)
        out.write(struct.pack("<I", len(section.relocations)))
        for reloc in section.sorted_relocations():
            out.write(struct.pack("<IB", reloc.offset,
                                  _RELOC_TYPES.index(reloc.type)))
            out.write(struct.pack("<i", reloc.addend))
            _write_str(out, reloc.symbol)
    out.write(struct.pack("<I", len(obj.symbols)))
    for symbol in obj.symbols:
        _write_str(out, symbol.name)
        out.write(struct.pack("<BB", _BINDINGS.index(symbol.binding),
                              _SYMBOL_KINDS.index(symbol.kind)))
        has_section = symbol.section is not None
        out.write(struct.pack("<B", 1 if has_section else 0))
        if has_section:
            _write_str(out, symbol.section)
        out.write(struct.pack("<II", symbol.value, symbol.size))
    return out.getvalue()


def load_object(data: bytes) -> ObjectFile:
    """Deserialize an object file produced by :func:`dump_object`."""
    stream = io.BytesIO(data)
    if _read_exact(stream, 4) != MAGIC:
        raise ObjectFormatError("bad KELF magic")
    (version,) = struct.unpack("<H", _read_exact(stream, 2))
    if version != VERSION:
        raise ObjectFormatError("unsupported KELF version %d" % version)
    obj = ObjectFile(name=_read_str(stream))
    (nsections,) = struct.unpack("<I", _read_exact(stream, 4))
    for _ in range(nsections):
        name = _read_str(stream)
        kind_idx, alignment = struct.unpack("<BH", _read_exact(stream, 3))
        (size,) = struct.unpack("<I", _read_exact(stream, 4))
        payload = _read_exact(stream, size)
        kind = _pick(_SECTION_KINDS, kind_idx, "section kind")
        section = Section(name=name, kind=kind, data=payload,
                          alignment=alignment)
        (nrelocs,) = struct.unpack("<I", _read_exact(stream, 4))
        for _ in range(nrelocs):
            offset, type_idx = struct.unpack("<IB", _read_exact(stream, 5))
            (addend,) = struct.unpack("<i", _read_exact(stream, 4))
            symbol = _read_str(stream)
            section.relocations.append(Relocation(
                offset=offset, symbol=symbol,
                type=_pick(_RELOC_TYPES, type_idx, "relocation type"),
                addend=addend))
        obj.add_section(section)
    (nsymbols,) = struct.unpack("<I", _read_exact(stream, 4))
    for _ in range(nsymbols):
        name = _read_str(stream)
        binding_idx, kind_idx = struct.unpack("<BB", _read_exact(stream, 2))
        (has_section,) = struct.unpack("<B", _read_exact(stream, 1))
        section_name = _read_str(stream) if has_section else None
        value, size = struct.unpack("<II", _read_exact(stream, 8))
        obj.add_symbol(Symbol(name=name,
                              binding=_pick(_BINDINGS, binding_idx,
                                            "symbol binding"),
                              kind=_pick(_SYMBOL_KINDS, kind_idx,
                                         "symbol kind"),
                              section=section_name, value=value, size=size))
    return obj
