"""Hunk equivalence: prove old and new code agree outside the diff.

run-pre matching (§4.3 of the paper) tolerates drift *dynamically* —
at apply time it walks the running code against the helper object.
This pass is its static counterpart: for every changed function it
normalizes the pre and post instruction streams (canonical mnemonics
so short and long branch encodings compare equal, relocated fields
masked and compared by symbol instead of by bits) and computes the
longest common prefix and suffix.  What remains in the middle is the
*changed window* — the compiled hunk.  The evidence record pins down,
instruction by instruction, that everything outside that window is
equivalent modulo relocations, so a reviewer knows the replacement
differs from the original exactly where the source diff says it
should.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.model import EVIDENCE_EQUIVALENCE, Evidence
from repro.arch.disassembler import DecodedInstruction, iter_instructions
from repro.arch.isa import OperandKind
from repro.errors import DisassemblyError
from repro.objfile import ObjectFile, Section

#: a normalized instruction: (canonical mnemonic, operand view)
NormInstr = Tuple[str, Tuple[str, ...]]


def _normalize(instr: DecodedInstruction,
               reloc_symbols: Dict[int, str]) -> NormInstr:
    """Encoding-independent view of one instruction.

    Register and immediate operands keep their values; relocated
    fields compare by target symbol; branch displacements are masked
    entirely (layout moves them even when the control flow is
    unchanged — the CFG shape is compared via the mnemonic stream).
    """
    operands: List[str] = []
    for (kind, field_offset), value in zip(
            instr.instruction.spec.operand_fields,
            instr.instruction.operands):
        symbol = reloc_symbols.get(instr.offset + field_offset)
        if symbol is not None:
            operands.append("@" + symbol)
        elif kind in (OperandKind.REL32, OperandKind.REL8):
            operands.append("rel")
        elif kind is OperandKind.REG:
            operands.append("r%d" % value)
        else:
            operands.append("%d" % value)
    return (instr.canonical, tuple(operands))


def _normalized_stream(
        section: Optional[Section]) -> Optional[List[NormInstr]]:
    if section is None:
        return None
    reloc_symbols = {r.offset: r.symbol for r in section.relocations}
    try:
        return [_normalize(instr, reloc_symbols)
                for instr in iter_instructions(section.data)
                if not instr.is_nop]
    except DisassemblyError:
        return None


def equivalence_evidence(unit: str, fn: str,
                         pre_obj: Optional[ObjectFile],
                         post_obj: Optional[ObjectFile],
                         ) -> Optional[Evidence]:
    """Common-prefix/suffix proof for one changed function."""
    pre_section = pre_obj.sections.get(".text.%s" % fn) \
        if pre_obj is not None else None
    post_section = post_obj.sections.get(".text.%s" % fn) \
        if post_obj is not None else None
    pre = _normalized_stream(pre_section)
    post = _normalized_stream(post_section)
    if pre is None or post is None:
        return None

    prefix = 0
    while prefix < len(pre) and prefix < len(post) \
            and pre[prefix] == post[prefix]:
        prefix += 1
    suffix = 0
    while suffix < len(pre) - prefix and suffix < len(post) - prefix \
            and pre[len(pre) - 1 - suffix] == post[len(post) - 1 - suffix]:
        suffix += 1

    changed_pre = len(pre) - prefix - suffix
    changed_post = len(post) - prefix - suffix
    identical = changed_pre == 0 and changed_post == 0
    if identical:
        detail = ("all %d instructions equivalent modulo relocations "
                  "and branch encodings: the binary change is "
                  "relocation/layout-only" % len(pre))
    else:
        detail = ("%d leading and %d trailing instruction(s) "
                  "equivalent modulo relocations; the compiled hunk "
                  "replaces %d instruction(s) with %d"
                  % (prefix, suffix, changed_pre, changed_post))
    sites = []
    if not identical:
        sites.append("%s:%s: changed window pre[%d:%d] -> post[%d:%d] "
                     "(instruction indices, nops skipped)"
                     % (unit, fn, prefix, len(pre) - suffix,
                        prefix, len(post) - suffix))
    else:
        sites.append("%s:%s: streams identical after normalization"
                     % (unit, fn))
    return Evidence(
        kind=EVIDENCE_EQUIVALENCE, unit=unit, symbol=fn,
        detail=detail, sites=sites,
        facts={"pre_instructions": len(pre),
               "post_instructions": len(post),
               "common_prefix": prefix,
               "common_suffix": suffix,
               "changed_pre": changed_pre,
               "changed_post": changed_post,
               "relocation_only": identical})
