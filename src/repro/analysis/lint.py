"""Primary-module lint: what the apply-time machinery cannot possibly do.

Mirrors the resolver and planner in ``repro.core.apply`` statically:

- every undefined symbol of a primary must be satisfiable by one of the
  apply-time sources — run-pre solved values (anything the pre unit's
  relocations reference, plus its matched text functions), the update's
  own exports, the ksplice core module, or a *unique* kallsyms
  definition;
- an ambiguous kallsyms name is fatal only when run-pre matching cannot
  pin it down (the pre unit neither defines nor references it);
- relocation kinds must be ones the loader computes;
- a replaced function's pre text must decode (run-pre walks it
  instruction by instruction) and be large enough to hold the
  redirection jump the planner installs.

Anything flagged here aborts at apply time; the verdict is ``reject``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Set

from repro.analysis.callgraph import CallGraph
from repro.analysis.model import VERDICT_REJECT, VERDICT_SAFE, Finding
from repro.arch.disassembler import iter_instructions
from repro.arch.info import DEFAULT_ARCH
from repro.errors import DisassemblyError
from repro.objfile import RelocationType, SymbolKind

if TYPE_CHECKING:
    from repro.core.update import UnitUpdate, UpdatePack

#: symbols exported by the always-loaded ksplice core module
#: (``repro.core.shadow.KSPLICE_CORE_SOURCE``)
SHADOW_CORE_SYMBOLS = (
    "ksplice_shadow_attach",
    "ksplice_shadow_count",
    "ksplice_shadow_detach",
    "ksplice_shadow_get",
    "ksplice_shadow_has",
    "ksplice_shadow_keys",
    "ksplice_shadow_objs",
    "ksplice_shadow_set",
    "ksplice_shadow_vals",
)

SUPPORTED_RELOCATIONS = (RelocationType.ABS32, RelocationType.PC32)


def lint_pack(pack: "UpdatePack",
              graph: Optional[CallGraph] = None) -> List[Finding]:
    """Lint every unit of the pack against the run kernel's call graph
    (its definition counts); deterministic finding order."""
    findings: List[Finding] = []
    update_exports: Set[str] = set()
    for uu in pack.units:
        for sym in uu.primary.defined_symbols():
            if not sym.is_local:
                update_exports.add(sym.name)

    for uu in sorted(pack.units, key=lambda u: u.unit):
        findings.extend(_lint_unit(uu, update_exports, graph))
    return findings


def _lint_unit(uu: "UnitUpdate", update_exports: Set[str],
               graph: Optional[CallGraph]) -> List[Finding]:
    findings: List[Finding] = []
    unit = uu.unit
    helper = uu.helper
    primary = uu.primary

    # what run-pre matching will have solved before the resolver runs
    runpre_solvable: Set[str] = set(helper.referenced_symbol_names())
    for section in helper.text_sections():
        for sym in helper.symbols_in_section(section.name):
            if sym.kind is SymbolKind.FUNC:
                runpre_solvable.add(sym.name)

    for section_name in sorted(primary.sections):
        for reloc in primary.sections[section_name].sorted_relocations():
            if reloc.type not in SUPPORTED_RELOCATIONS:
                findings.append(Finding(
                    analysis="lint", verdict=VERDICT_REJECT,
                    unit=unit, symbol=reloc.symbol,
                    detail="unsupported relocation kind %r at %s+%#x"
                           % (getattr(reloc.type, "value", reloc.type),
                              section_name, reloc.offset)))

    for fn in sorted(uu.changed_functions):
        sym = helper.find_symbol(fn)
        if sym is not None and sym.is_defined \
                and 0 < sym.size < DEFAULT_ARCH.jump_size:
            findings.append(Finding(
                analysis="lint", verdict=VERDICT_REJECT,
                unit=unit, symbol=fn,
                detail="replaced function is only %d bytes; it cannot "
                       "hold the %d-byte redirection jump"
                       % (sym.size, DEFAULT_ARCH.jump_size)))
        section = helper.sections.get(".text.%s" % fn)
        if section is not None and not _decodes(section.data):
            findings.append(Finding(
                analysis="lint", verdict=VERDICT_REJECT,
                unit=unit, symbol=fn,
                detail="pre text does not disassemble; run-pre matching "
                       "cannot walk it instruction by instruction"))

    for sym in sorted(primary.undefined_symbols(), key=lambda s: s.name):
        name = sym.name
        if (name in runpre_solvable or name in update_exports
                or name in SHADOW_CORE_SYMBOLS):
            continue
        if graph is None:
            continue  # cannot judge kallsyms without the run build
        count = graph.definition_counts.get(name, 0)
        if count == 0:
            findings.append(Finding(
                analysis="lint", verdict=VERDICT_REJECT,
                unit=unit, symbol=name,
                detail="unresolvable symbol: not defined by the update, "
                       "the core module, or the running kernel"))
        elif count > 1:
            findings.append(Finding(
                analysis="lint", verdict=VERDICT_REJECT,
                unit=unit, symbol=name,
                detail="ambiguous symbol: %d definitions in the running "
                       "kernel and the pre unit neither defines nor "
                       "references it, so run-pre matching cannot pick "
                       "one" % count))

    if graph is not None:
        run_defs = graph.definition_counts
        ambiguous = sorted(
            {reloc.symbol
             for section in primary.sections.values()
             for reloc in section.relocations
             if run_defs.get(reloc.symbol, 0) > 1
             and reloc.symbol in runpre_solvable})
        for name in ambiguous:
            findings.append(Finding(
                analysis="lint", verdict=VERDICT_SAFE,
                unit=unit, symbol=name,
                detail="symbol name has %d candidate definitions in the "
                       "running kernel; run-pre matching disambiguates "
                       "by byte comparison" % run_defs[name]))
    return findings


def _decodes(data: bytes) -> bool:
    try:
        for _instr in iter_instructions(data):
            pass
    except DisassemblyError:
        return False
    return True
