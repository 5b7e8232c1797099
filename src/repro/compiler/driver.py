"""The compiler driver ("kcc"): source text in, object file out.

Handles both MiniC (``.c``) and k86 assembly (``.s``) units, applying the
layout mode the options select.  Assembly units keep their hand-written
section structure in the merged build; in the function-sections build
their ``.text`` is split at global labels exactly the way gcc splits C
functions, so ksplice-create sees per-function sections for assembly too
(the paper's ia32entry.S case).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import List, Optional

from repro.arch.assembler import Item, Label, assemble, parse_asm
from repro.errors import CompileError
from repro.lang import ast, parse_unit
from repro.objfile import (
    ObjectFile,
    Relocation,
    RelocationType,
    Section,
    Symbol,
    SymbolBinding,
    SymbolKind,
)
from repro.objfile.section import kind_for_name
from repro.compiler.codegen import FunctionCode, UnitContext, compile_function
from repro.compiler.inliner import (
    InlineReport,
    inline_unit,
    rewritten_functions,
)
from repro.compiler.layout import (
    collect_data_items,
    layout_merged,
    layout_split,
)

_RELOC_TYPE = {"abs32": RelocationType.ABS32, "pc32": RelocationType.PC32}


@dataclass(frozen=True)
class CompilerOptions:
    """Build flags.

    ``opt_level`` 0/1/2 controls inlining (see :mod:`repro.compiler.
    inliner`).  ``function_sections``/``data_sections`` mirror gcc's
    ``-ffunction-sections``/``-fdata-sections``.  ``compiler_version``
    feeds the "same compiler version" advice in §4.3: builds with
    different versions produce (slightly) different code.
    """

    opt_level: int = 2
    function_sections: bool = False
    data_sections: bool = False
    align_functions: int = 16
    compiler_version: str = "kcc-1.0"

    def pre_post_flavor(self) -> "CompilerOptions":
        """The flags ksplice-create builds with."""
        return replace(self, function_sections=True, data_sections=True)


@dataclass
class CompileResult:
    objfile: ObjectFile
    inline_report: InlineReport


def compile_unit(unit: ast.Unit, options: CompilerOptions) -> CompileResult:
    """Compile a parsed MiniC unit into an object file.

    ``unit`` is never modified (the parse cache shares it).  The inliner
    rewrites a shallow copy whose decls hold deep copies of exactly the
    functions it rewrites; every other decl, and every type, is shared.
    """
    rewritten = {id(fn) for fn in rewritten_functions(unit,
                                                      options.opt_level)}
    working = replace(unit, decls=[
        copy.deepcopy(decl) if id(decl) in rewritten else decl
        for decl in unit.decls])
    report = inline_unit(working, opt_level=options.opt_level)
    ctx = UnitContext.for_unit(working,
                               align_loops=options.opt_level >= 2)

    functions: List[FunctionCode] = []
    static_locals = []
    for fn in working.functions():
        code = compile_function(fn, ctx)
        code = _apply_version_quirks(code, options)
        functions.append(code)
        static_locals.extend(code.static_locals)

    data_items = collect_data_items(working, static_locals)
    if options.function_sections:
        obj = layout_split(working, functions, data_items,
                           options.align_functions, working.name,
                           data_sections=options.data_sections)
    else:
        obj = layout_merged(working, functions, data_items,
                            options.align_functions, working.name)
    return CompileResult(objfile=obj, inline_report=report)


def _apply_version_quirks(code: FunctionCode,
                          options: CompilerOptions) -> FunctionCode:
    """Model compiler-version skew (§4.3).

    A different ``compiler_version`` emits a (harmless but real)
    register self-move at every function entry, so run-pre matching of a
    kernel built by one version against pre code built by another sees
    genuine code differences — exactly the hazard the paper advises
    avoiding by using the same compiler version.  (A nop would not do:
    run-pre matching correctly skips nop padding.)
    """
    if options.compiler_version == "kcc-1.0":
        return code
    from repro.arch.assembler import Insn

    items: List[Item] = []
    for item in code.items:
        items.append(item)
        if isinstance(item, Label) and item.name == code.name:
            items.append(Insn("movr", (4, 4)))
    return FunctionCode(name=code.name, items=items,
                        static_locals=code.static_locals)


def compile_asm(source: str, unit_name: str,
                options: CompilerOptions) -> CompileResult:
    """Assemble a ``.s`` unit into an object file."""
    parsed = parse_asm(source)
    obj = ObjectFile(name=unit_name)
    globals_declared = set(parsed.global_symbols)

    for section_name, items in parsed.sections.items():
        if (options.function_sections and section_name == ".text"
                and globals_declared):
            _assemble_split_text(obj, items, globals_declared)
        else:
            _assemble_whole_section(obj, section_name, items,
                                    globals_declared)
    obj.ensure_undefined(obj.referenced_symbol_names())
    obj.validate()
    return CompileResult(objfile=obj, inline_report=InlineReport())


def _is_symbol_label(name: str) -> bool:
    return not name.startswith(".L")


def _assemble_whole_section(obj: ObjectFile, section_name: str,
                            items: List[Item], globals_declared: set) -> None:
    result = assemble(items)
    kind = kind_for_name(section_name)
    section = Section(name=section_name, kind=kind, data=result.code,
                      alignment=16 if kind.is_code else 4)
    for request in result.relocations:
        section.relocations.append(Relocation(
            offset=request.offset, symbol=request.symbol,
            type=_RELOC_TYPE[request.kind], addend=request.addend))
    obj.add_section(section)
    symbol_labels = [(name, offset) for name, offset in result.labels.items()
                     if _is_symbol_label(name)]
    symbol_labels.sort(key=lambda pair: pair[1])
    for index, (name, offset) in enumerate(symbol_labels):
        end = (symbol_labels[index + 1][1] if index + 1 < len(symbol_labels)
               else section.size)
        binding = (SymbolBinding.GLOBAL if name in globals_declared
                   else SymbolBinding.LOCAL)
        sym_kind = SymbolKind.FUNC if kind.is_code else SymbolKind.OBJECT
        obj.add_symbol(Symbol(name=name, binding=binding, kind=sym_kind,
                              section=section_name, value=offset,
                              size=end - offset))


def _assemble_split_text(obj: ObjectFile, items: List[Item],
                         globals_declared: set) -> None:
    """Split a .text item stream at global labels into .text.<fn> sections."""
    groups: List[List[Item]] = []
    current: Optional[List[Item]] = None
    names: List[str] = []
    for item in items:
        if isinstance(item, Label) and item.name in globals_declared:
            current = [item]
            groups.append(current)
            names.append(item.name)
            continue
        if current is None:
            raise CompileError(
                "assembly .text must start with a global label to be "
                "split into function sections")
        current.append(item)
    for name, group in zip(names, groups):
        result = assemble(group)
        section_name = ".text.%s" % name
        section = Section(name=section_name, kind=kind_for_name(section_name),
                          data=result.code, alignment=16)
        for request in result.relocations:
            section.relocations.append(Relocation(
                offset=request.offset, symbol=request.symbol,
                type=_RELOC_TYPE[request.kind], addend=request.addend))
        obj.add_section(section)
        obj.add_symbol(Symbol(name=name, binding=SymbolBinding.GLOBAL,
                              kind=SymbolKind.FUNC, section=section_name,
                              value=result.labels[name], size=section.size))


def compile_source(source: str, unit_name: str,
                   options: Optional[CompilerOptions] = None) -> CompileResult:
    """Compile one source file (``.c`` MiniC or ``.s`` assembly)."""
    options = options or CompilerOptions()
    if unit_name.endswith(".s"):
        return compile_asm(source, unit_name, options)
    unit = parse_unit(source, unit_name)
    return compile_unit(unit, options)


def compile_source_cached(source: str, unit_name: str,
                          options: Optional[CompilerOptions] = None,
                          ) -> CompileResult:
    """Content-addressed :func:`compile_source`.

    Keyed by ``(unit path, sha256(source), options)``, so a patched unit
    can never hit the pre-patch entry.  The returned CompileResult is
    shared: every consumer (linker, extraction, objdiff) treats object
    files as immutable.  On a miss the parse itself goes through the
    parse cache, so two option flavors of one source (merged run-kernel
    build vs function-sections pre/post build) share one AST.
    """
    from repro.compiler.cache import (
        COMPILE_CACHE,
        compile_cache_key,
        parse_unit_cached,
    )

    options = options or CompilerOptions()
    key = compile_cache_key(source, unit_name, options)
    cached = COMPILE_CACHE.get(key, size=len(source))
    if cached is None:
        if unit_name.endswith(".s"):
            cached = compile_asm(source, unit_name, options)
        else:
            cached = compile_unit(parse_unit_cached(source, unit_name),
                                  options)
        COMPILE_CACHE.put(key, cached, size=len(source))
    return cached
