"""Tests for the assembler: relaxation, relocations, and the text parser."""

import pytest

from repro.arch import isa
from repro.arch.assembler import (
    Align,
    Data,
    Insn,
    Label,
    LabelRef,
    SymRef,
    assemble,
    parse_asm,
)
from repro.arch.disassembler import disassemble
from repro.errors import AssemblyError


def test_simple_sequence():
    result = assemble([
        Insn("movi", (0, 42)),
        Insn("ret", ()),
    ])
    decoded = disassemble(result.code)
    assert [d.mnemonic for d in decoded] == ["movi", "ret"]
    assert decoded[0].instruction.operands == (0, 42)


def test_labels_have_offsets():
    result = assemble([
        Label("start"),
        Insn("movi", (0, 1)),
        Label("end"),
    ])
    assert result.labels == {"start": 0, "end": 6}


def test_short_branch_to_near_label():
    result = assemble([
        Label("loop"),
        Insn("addi", (0, 1)),
        Insn("jmp", (LabelRef("loop"),)),
    ])
    decoded = disassemble(result.code)
    assert decoded[-1].mnemonic == "jmps"
    assert decoded[-1].branch_target_offset() == 0


def test_long_branch_when_out_of_rel8_range():
    filler = [Insn("movi", (0, i)) for i in range(40)]  # 240 bytes
    result = assemble([Label("top")] + filler + [Insn("jmp", (LabelRef("top"),))])
    decoded = disassemble(result.code)
    assert decoded[-1].mnemonic == "jmp"
    assert decoded[-1].branch_target_offset() == 0


def test_short_branches_disabled():
    result = assemble([
        Label("loop"),
        Insn("jmp", (LabelRef("loop"),)),
    ], allow_short_branches=False)
    decoded = disassemble(result.code)
    assert decoded[0].mnemonic == "jmp"


def test_forward_branch():
    result = assemble([
        Insn("jz", (LabelRef("out"),)),
        Insn("movi", (0, 1)),
        Label("out"),
        Insn("ret", ()),
    ])
    decoded = disassemble(result.code)
    assert decoded[0].mnemonic == "jzs"
    assert decoded[0].branch_target_offset() == result.labels["out"]


def test_undefined_branch_target_becomes_pc32_reloc():
    result = assemble([Insn("call", (LabelRef("extern_fn"),))])
    assert len(result.relocations) == 1
    reloc = result.relocations[0]
    assert reloc.symbol == "extern_fn"
    assert reloc.kind == "pc32"
    assert reloc.addend == isa.PC32_ADDEND
    assert reloc.offset == 1  # field right after the opcode


def test_symref_operand_becomes_abs32_reloc():
    result = assemble([Insn("load", (0, SymRef("counter", 4)))])
    assert len(result.relocations) == 1
    reloc = result.relocations[0]
    assert reloc.symbol == "counter"
    assert reloc.kind == "abs32"
    assert reloc.addend == 4
    assert reloc.offset == 2  # opcode + reg byte


def test_align_pads_with_nops():
    result = assemble([
        Insn("ret", ()),
        Align(8),
        Label("aligned"),
        Insn("ret", ()),
    ])
    assert result.labels["aligned"] == 8
    middle = disassemble(result.code)[1:-1]
    assert all(d.is_nop for d in middle)


def test_align_non_power_of_two_raises():
    with pytest.raises(AssemblyError):
        assemble([Insn("ret", ()), Align(6), Insn("ret", ())])


def test_data_with_relocs():
    result = assemble([Data(b"\0\0\0\0\0\0\0\0",
                            ((4, SymRef("fn", 0)),))])
    assert result.code == b"\0" * 8
    assert result.relocations[0].offset == 4
    assert result.relocations[0].kind == "abs32"


def test_relaxation_cascade():
    # A chain of branches near the rel8 boundary: widening one branch can
    # push another out of range; the fixpoint must widen both.
    items = [Insn("jmp", (LabelRef("far"),))]
    items += [Insn("movi", (0, i)) for i in range(20)]  # 120 bytes
    items += [Insn("jmp", (LabelRef("far"),))]
    items += [Insn("movi", (0, i)) for i in range(20)]  # 120 bytes
    items.append(Label("far"))
    items.append(Insn("ret", ()))
    result = assemble(items)
    decoded = disassemble(result.code)
    jumps = [d for d in decoded if d.canonical == "jmp"]
    assert all(d.branch_target_offset() == result.labels["far"] for d in jumps)


def test_wrong_arity_raises():
    with pytest.raises(AssemblyError):
        assemble([Insn("movi", (0,))])


def test_unknown_mnemonic_raises():
    with pytest.raises(AssemblyError):
        assemble([Insn("nope", ())])


# ---------------------------------------------------------------------------
# Text front-end


def test_parse_simple_text():
    parsed = parse_asm("""
    .global entry
    entry:
        movi r0, 42
        ret
    """)
    assert parsed.global_symbols == ["entry"]
    items = parsed.sections[".text"]
    assert items[0] == Label("entry")
    result = assemble(items)
    assert [d.mnemonic for d in disassemble(result.code)] == ["movi", "ret"]


def test_parse_comments_and_blank_lines():
    parsed = parse_asm("""
    ; leading comment
    start:             # trailing comment
        nop            ; another
    """)
    assert parsed.sections[".text"] == [Label("start"), Insn("nop", ())]


def test_parse_sections():
    parsed = parse_asm("""
    .section .text
        ret
    .section .data
        .word 1, 2, tbl
    """)
    assert ".text" in parsed.sections
    data_items = parsed.sections[".data"]
    assert isinstance(data_items[0], Data)
    assert len(data_items[0].relocs) == 1
    assert data_items[0].relocs[0][1] == SymRef("tbl")


def test_parse_symbolic_operand_with_addend():
    parsed = parse_asm("    load r1, counter + 8\n")
    insn = parsed.sections[".text"][0]
    assert insn.operands[1] == SymRef("counter", 8)


def test_parse_branch_operand():
    parsed = parse_asm("    call do_thing\n")
    insn = parsed.sections[".text"][0]
    assert insn.operands == (LabelRef("do_thing"),)


def test_parse_register_aliases():
    parsed = parse_asm("    movr sp, fp\n")
    insn = parsed.sections[".text"][0]
    assert insn.operands == (isa.REG_SP, isa.REG_FP)


def test_parse_byte_directive():
    parsed = parse_asm("    .byte 1, 2, 0xff\n")
    assert parsed.sections[".text"][0] == Data(b"\x01\x02\xff")


def test_parse_bad_directive_raises():
    with pytest.raises(AssemblyError):
        parse_asm("    .bogus 1\n")


@pytest.mark.parametrize("line, message", [
    (".align abc", "bad .align value 'abc'"),
    (".align", "bad .align value ''"),
    (".byte 1, zz", "bad .byte value 'zz'"),
])
def test_parse_bad_directive_value_raises(line, message):
    with pytest.raises(AssemblyError) as exc:
        parse_asm("    %s\n" % line)
    assert str(exc.value) == message


def test_parse_bad_mnemonic_raises():
    with pytest.raises(AssemblyError):
        parse_asm("    frobnicate r0\n")


def test_parse_wrong_operand_count_raises():
    with pytest.raises(AssemblyError):
        parse_asm("    movi r0\n")


def test_end_to_end_assembly_of_loop():
    parsed = parse_asm("""
    .global sum_to_ten
    sum_to_ten:
        movi r0, 0
        movi r1, 10
    loop:
        add r0, r1
        addi r1, -1
        cmpi r1, 0
        jnz loop
        ret
    """)
    result = assemble(parsed.sections[".text"])
    decoded = disassemble(result.code)
    back_jump = [d for d in decoded if d.canonical == "jnz"][0]
    assert back_jump.branch_target_offset() == result.labels["loop"]
