"""Object-file layout: placing compiled functions and data into sections.

Two layouts are supported, selected by :class:`~repro.compiler.driver.
CompilerOptions`:

* **merged** (default, how distribution kernels are built): all functions
  of a unit share one ``.text`` section, 16-byte aligned, with intra-unit
  calls and jumps resolved at assembly time (short encodings where they
  fit); initialized data shares ``.data``, zero-initialized data ``.bss``.
* **function/data sections** (``-ffunction-sections -fdata-sections``):
  every function becomes ``.text.<name>`` and every datum
  ``.data.<name>``/``.bss.<name>``, so *all* cross-references — including
  ones inside the same unit — are relocations.  This is the layout
  ksplice-create builds with (§3.2), which keeps sections free of
  position assumptions.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.arch.assembler import Align, Item, Label, assemble
from repro.errors import CompileError
from repro.lang import ast
from repro.lang.types import Type
from repro.objfile import (
    ObjectFile,
    Relocation,
    RelocationType,
    Section,
    SectionKind,
    Symbol,
    SymbolBinding,
    SymbolKind,
)
from repro.compiler.codegen import FunctionCode, StaticLocal

_RELOC_TYPE = {"abs32": RelocationType.ABS32, "pc32": RelocationType.PC32}


@dataclass
class DataItem:
    """One variable destined for a data/bss section."""

    symbol: str
    typ: Type
    init_words: Optional[List[int]]  # None or all-zero -> bss
    is_static: bool

    @property
    def is_bss(self) -> bool:
        return self.init_words is None or not any(self.init_words)

    @property
    def size(self) -> int:
        return max(4, self.typ.size)

    def image(self) -> bytes:
        words = list(self.init_words or [])
        want = self.size // 4
        words += [0] * (want - len(words))
        # Words wrap mod 2**32, as movi immediates do.
        return b"".join(struct.pack("<I", w & 0xFFFFFFFF) for w in words)


def collect_data_items(unit: ast.Unit,
                       static_locals: List[StaticLocal]) -> List[DataItem]:
    """Gather unit globals and promoted static locals, in declaration order."""
    items: List[DataItem] = []
    for gvar in unit.global_vars():
        if gvar.is_extern:
            continue
        items.append(DataItem(symbol=gvar.name, typ=gvar.typ,
                              init_words=gvar.init, is_static=gvar.is_static))
    for static in static_locals:
        init = [static.init] if static.init else None
        items.append(DataItem(symbol=static.symbol, typ=static.typ,
                              init_words=init, is_static=True))
    return items


def _binding(is_static: bool) -> SymbolBinding:
    return SymbolBinding.LOCAL if is_static else SymbolBinding.GLOBAL


def _add_assembled_section(obj: ObjectFile, name: str, kind: SectionKind,
                           items: List[Item], alignment: int,
                           allow_short: bool) -> Dict[str, int]:
    result = assemble(items, allow_short_branches=allow_short)
    section = Section(name=name, kind=kind, data=result.code,
                      alignment=alignment)
    for request in result.relocations:
        section.relocations.append(Relocation(
            offset=request.offset, symbol=request.symbol,
            type=_RELOC_TYPE[request.kind], addend=request.addend))
    obj.add_section(section)
    return result.labels


def layout_merged(unit: ast.Unit, functions: List[FunctionCode],
                  data_items: List[DataItem], align_functions: int,
                  unit_name: str) -> ObjectFile:
    """Build the run-kernel flavour: one .text, one .data, one .bss."""
    obj = ObjectFile(name=unit_name)
    static_fns = {fn.name for fn in unit.functions() if fn.is_static}

    stream: List[Item] = []
    end_labels: Dict[str, str] = {}
    for code in functions:
        if stream:
            stream.append(Align(align_functions))
        stream.extend(code.items)
        end_label = ".Lfnend_%s" % code.name
        end_labels[code.name] = end_label
        stream.append(Label(end_label))
    if stream:
        labels = _add_assembled_section(
            obj, ".text", SectionKind.TEXT, stream,
            alignment=align_functions, allow_short=True)
        for code in functions:
            start = labels[code.name]
            size = labels[end_labels[code.name]] - start
            obj.add_symbol(Symbol(
                name=code.name, binding=_binding(code.name in static_fns),
                kind=SymbolKind.FUNC, section=".text", value=start,
                size=size))

    _layout_data_merged(obj, data_items)
    _layout_hooks(obj, unit)
    obj.ensure_undefined(obj.referenced_symbol_names())
    obj.validate()
    return obj


def layout_split(unit: ast.Unit, functions: List[FunctionCode],
                 data_items: List[DataItem], align_functions: int,
                 unit_name: str, data_sections: bool) -> ObjectFile:
    """Build the pre/post flavour: per-function and per-datum sections."""
    obj = ObjectFile(name=unit_name)
    static_fns = {fn.name for fn in unit.functions() if fn.is_static}

    for code in functions:
        section_name = ".text.%s" % code.name
        # §4.3: "small relative jump instructions can turn into longer
        # jump instructions when -ffunction-sections is enabled" — the
        # split flavour always emits rel32 branch forms, so the pre code
        # differs in encoding (and therefore alignment) from the merged
        # run kernel, which is exactly what run-pre matching bridges.
        labels = _add_assembled_section(
            obj, section_name, SectionKind.TEXT, code.items,
            alignment=align_functions, allow_short=False)
        section = obj.section(section_name)
        obj.add_symbol(Symbol(
            name=code.name, binding=_binding(code.name in static_fns),
            kind=SymbolKind.FUNC, section=section_name,
            value=labels[code.name], size=section.size))

    if data_sections:
        for item in data_items:
            prefix = ".bss" if item.is_bss else ".data"
            section_name = "%s.%s" % (prefix, item.symbol)
            kind = SectionKind.BSS if item.is_bss else SectionKind.DATA
            obj.add_section(Section(name=section_name, kind=kind,
                                    data=item.image(), alignment=4))
            obj.add_symbol(Symbol(
                name=item.symbol, binding=_binding(item.is_static),
                kind=SymbolKind.OBJECT, section=section_name, value=0,
                size=item.size))
    else:
        _layout_data_merged(obj, data_items)

    _layout_hooks(obj, unit)
    obj.ensure_undefined(obj.referenced_symbol_names())
    obj.validate()
    return obj


def _layout_data_merged(obj: ObjectFile, data_items: List[DataItem]) -> None:
    data_image = bytearray()
    bss_image = bytearray()
    data_symbols: List[Tuple[DataItem, int]] = []
    bss_symbols: List[Tuple[DataItem, int]] = []
    for item in data_items:
        if item.is_bss:
            bss_symbols.append((item, len(bss_image)))
            bss_image += item.image()
        else:
            data_symbols.append((item, len(data_image)))
            data_image += item.image()
    if data_image:
        obj.add_section(Section(name=".data", kind=SectionKind.DATA,
                                data=bytes(data_image), alignment=4))
        for item, offset in data_symbols:
            obj.add_symbol(Symbol(
                name=item.symbol, binding=_binding(item.is_static),
                kind=SymbolKind.OBJECT, section=".data", value=offset,
                size=item.size))
    if bss_image:
        obj.add_section(Section(name=".bss", kind=SectionKind.BSS,
                                data=bytes(bss_image), alignment=4))
        for item, offset in bss_symbols:
            obj.add_symbol(Symbol(
                name=item.symbol, binding=_binding(item.is_static),
                kind=SymbolKind.OBJECT, section=".bss", value=offset,
                size=item.size))


def _layout_hooks(obj: ObjectFile, unit: ast.Unit) -> None:
    """Emit .ksplice_* function-pointer tables (the paper's §5.3 macros)."""
    by_section: Dict[str, List[str]] = {}
    for hook in unit.hooks():
        by_section.setdefault(hook.section, []).append(hook.function)
    for section_name, fn_names in by_section.items():
        section = Section(name=section_name, kind=SectionKind.KSPLICE,
                          data=b"\0\0\0\0" * len(fn_names), alignment=4)
        for index, fn_name in enumerate(fn_names):
            if unit.find_function(fn_name) is None:
                raise CompileError(
                    "%s: ksplice hook references unknown function %r"
                    % (unit.name, fn_name))
            section.relocations.append(Relocation(
                offset=4 * index, symbol=fn_name,
                type=RelocationType.ABS32, addend=0))
        obj.add_section(section)
