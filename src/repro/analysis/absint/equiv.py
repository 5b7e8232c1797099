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

from bisect import bisect_right
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.absint.interp import Workspace
from repro.analysis.model import EVIDENCE_EQUIVALENCE, Evidence
from repro.arch.disassembler import DecodedInstruction
from repro.arch.isa import OperandKind
from repro.objfile import ObjectFile, Section

#: a normalized instruction: (canonical mnemonic, operand view)
NormInstr = Tuple[str, Tuple[Union[int, str], ...]]


def _normalize(instr: DecodedInstruction,
               reloc_symbols: Dict[int, str]) -> NormInstr:
    """Encoding-independent view of one instruction.

    Register and immediate operands keep their values; relocated
    fields compare by target symbol (``"@sym"``); branch displacements
    are masked entirely (``"rel"``: layout moves them even when the
    control flow is unchanged — the CFG shape is compared via the
    mnemonic stream).  Values are compared as plain integers: two
    instructions with one canonical mnemonic have the same operand
    kinds, except the short and long forms of a branch, whose only
    operand is the masked displacement.
    """
    offset, instruction, _raw = instr
    view: List[Union[int, str]] = []
    for (kind, field_offset), value in zip(
            instruction.spec.operand_fields, instruction.operands):
        symbol = reloc_symbols.get(offset + field_offset)
        if symbol is not None:
            view.append("@" + symbol)
        elif kind in (OperandKind.REL32, OperandKind.REL8):
            view.append("rel")
        else:
            view.append(value)
    return (instruction.spec.canonical, tuple(view))


def _normalized_stream(section: Optional[Section], work: Workspace,
                       ) -> Optional[List[NormInstr]]:
    if section is None:
        return None
    instrs = work.instructions(section)
    if instrs is None:
        return None
    reloc_symbols = {r.offset: r.symbol for r in section.relocations}
    # An instruction with no relocated field and no displacement is its
    # own view: only those holding a relocation or a branch go through
    # _normalize.
    starts = [instr.offset for instr in instrs]
    relocated = {starts[bisect_right(starts, at) - 1]
                 for at in reloc_symbols if starts}
    stream: List[NormInstr] = []
    for instr in instrs:
        spec = instr.instruction.spec
        if spec.is_nop:
            continue
        if spec.is_pc_relative or instr.offset in relocated:
            stream.append(_normalize(instr, reloc_symbols))
        else:
            stream.append((spec.canonical, instr.instruction.operands))
    return stream


def equivalence_evidence(unit: str, fn: str,
                         pre_obj: Optional[ObjectFile],
                         post_obj: Optional[ObjectFile],
                         work: Optional[Workspace] = None,
                         ) -> Optional[Evidence]:
    """Common-prefix/suffix proof for one changed function, reading
    the decode ``work`` shares with the other passes of a create."""
    pre_section = pre_obj.sections.get(".text.%s" % fn) \
        if pre_obj is not None else None
    post_section = post_obj.sections.get(".text.%s" % fn) \
        if post_obj is not None else None
    work = work or Workspace()
    pre = _normalized_stream(pre_section, work)
    post = _normalized_stream(post_section, work)
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
