"""Edge-case tests for run-pre matching: read-only data sections,
function-pointer tables in data, and matcher bookkeeping."""

import pytest

from repro.compiler import CompilerOptions
from repro.core.runpre import RunPreMatcher
from repro.errors import RunPreMismatchError
from repro.kbuild import SourceTree, build_units
from repro.kernel import boot_kernel
from repro.objfile import Relocation, RelocationType, Section, SectionKind
from repro.objfile.symbol import Symbol, SymbolBinding, SymbolKind

FLAVOR = CompilerOptions().pre_post_flavor()

ASM_WITH_TABLE = """
.global dispatch
dispatch:
    cmpi r0, 2
    jge fail
    movi r4, 4
    mul r0, r4
    lea r4, handlers
    add r4, r0
    loadr r4, r4, 0
    callr r4
    ret
fail:
    movi r0, -1
    ret

.global handler_a
handler_a:
    movi r0, 100
    ret

.global handler_b
handler_b:
    movi r0, 200
    ret

.section .data
handlers:
    .word handler_a, handler_b
"""

TREE = SourceTree(version="rp-edge", files={"arch/tbl.s": ASM_WITH_TABLE})


def test_function_pointer_table_solved_through_text_relocs():
    """The dispatch code's `lea handlers` relocation lets run-pre solve
    the table's address even though `handlers` is a local data symbol."""
    machine = boot_kernel(TREE)
    pre = build_units(TREE, ["arch/tbl.s"], FLAVOR).object_for("arch/tbl.s")
    matcher = RunPreMatcher(memory=machine.memory,
                            kallsyms=machine.image.kallsyms)
    result = matcher.match_unit(pre)
    solved = result.symbol_values["handlers"]
    # The solved address holds the relocated pointers.
    assert machine.read_u32(solved) == \
        machine.image.kallsyms.unique_address("handler_a")
    assert machine.read_u32(solved + 4) == \
        machine.image.kallsyms.unique_address("handler_b")
    # Dispatch through the table still behaves (the asm routine takes
    # its selector in r0, so prime the register directly).
    thread = machine.create_thread("dispatch")
    thread.cpu.set_reg(0, 1)
    assert machine.run_thread(thread) == 200
    machine.reap_thread(thread)


def _pre_with_rodata(machine, payload, relocs=(), anchor="ro_anchor",
                     address=None):
    """Craft a helper object with a .rodata section anchored at a chosen
    run address (default: a real rodata-like blob we plant in the kernel
    image copy in machine memory)."""
    # build_units returns cache-shared objects; copy before mutating.
    pre = build_units(TREE, ["arch/tbl.s"],
                      FLAVOR).object_for("arch/tbl.s").copy()
    section = Section(name=".rodata.%s" % anchor, kind=SectionKind.RODATA,
                      data=payload, alignment=4)
    for reloc in relocs:
        section.relocations.append(reloc)
    pre.add_section(section)
    pre.add_symbol(Symbol(name=anchor, binding=SymbolBinding.LOCAL,
                          kind=SymbolKind.OBJECT,
                          section=".rodata.%s" % anchor, value=0,
                          size=len(payload)))
    pre.ensure_undefined(pre.referenced_symbol_names())
    return pre


def test_rodata_matching_succeeds_on_identical_bytes():
    machine = boot_kernel(TREE)
    # Plant a blob in the heap and register it via a fake kallsyms entry.
    blob = b"\x01\x02\x03\x04\x05\x06\x07\x08"
    address = machine.kmalloc(len(blob))
    machine.memory.write_bytes(address, blob)
    from repro.linker.kallsyms import KallsymsEntry

    machine.image.kallsyms.add(KallsymsEntry(
        name="ro_anchor", address=address, size=len(blob),
        kind=SymbolKind.OBJECT, binding=SymbolBinding.LOCAL,
        unit="arch/tbl.s"))

    pre = _pre_with_rodata(machine, blob)
    matcher = RunPreMatcher(memory=machine.memory,
                            kallsyms=machine.image.kallsyms)
    result = matcher.match_unit(pre)
    assert result.bytes_matched > 0


def test_rodata_matching_aborts_on_difference():
    machine = boot_kernel(TREE)
    blob = b"\x01\x02\x03\x04\x05\x06\x07\x08"
    address = machine.kmalloc(len(blob))
    machine.memory.write_bytes(address, b"\x01\x02\x03\x04\xFF\x06\x07\x08")
    from repro.linker.kallsyms import KallsymsEntry

    machine.image.kallsyms.add(KallsymsEntry(
        name="ro_anchor", address=address, size=len(blob),
        kind=SymbolKind.OBJECT, binding=SymbolBinding.LOCAL,
        unit="arch/tbl.s"))

    pre = _pre_with_rodata(machine, blob)
    matcher = RunPreMatcher(memory=machine.memory,
                            kallsyms=machine.image.kallsyms)
    with pytest.raises(RunPreMismatchError) as exc:
        matcher.match_unit(pre)
    assert str(exc.value) == "rodata .rodata.ro_anchor differs at +4"


def test_rodata_difference_is_reported_outside_relocation_holes():
    machine = boot_kernel(TREE)
    # holes at +0 and +2 overlap (+0..+5 skipped); bytes differ at
    # +1 and +3 (inside) and at +6 and +9 (outside): +6 is reported
    blob_pre = bytes(range(12))
    blob_run = bytearray(blob_pre)
    for offset in (1, 3, 6, 9):
        blob_run[offset] ^= 0xFF
    address = machine.kmalloc(len(blob_run))
    machine.memory.write_bytes(address, bytes(blob_run))
    from repro.linker.kallsyms import KallsymsEntry

    machine.image.kallsyms.add(KallsymsEntry(
        name="ro_anchor", address=address, size=len(blob_run),
        kind=SymbolKind.OBJECT, binding=SymbolBinding.LOCAL,
        unit="arch/tbl.s"))
    pre = _pre_with_rodata(
        machine, blob_pre,
        relocs=[Relocation(offset=hole, symbol="handler_a",
                           type=RelocationType.ABS32, addend=0)
                for hole in (2, 0)])
    matcher = RunPreMatcher(memory=machine.memory,
                            kallsyms=machine.image.kallsyms)
    with pytest.raises(RunPreMismatchError) as exc:
        matcher.match_unit(pre)
    assert str(exc.value) == "rodata .rodata.ro_anchor differs at +6"


def test_rodata_relocation_holes_are_skipped():
    machine = boot_kernel(TREE)
    handler_a = machine.image.kallsyms.unique_address("handler_a")
    # Run blob holds a relocated pointer; pre blob has a zero hole with
    # a relocation entry covering it.
    blob_run = handler_a.to_bytes(4, "little") + b"\xAA\xBB\xCC\xDD"
    blob_pre = b"\x00\x00\x00\x00" + b"\xAA\xBB\xCC\xDD"
    address = machine.kmalloc(len(blob_run))
    machine.memory.write_bytes(address, blob_run)
    from repro.linker.kallsyms import KallsymsEntry

    machine.image.kallsyms.add(KallsymsEntry(
        name="ro_anchor", address=address, size=len(blob_run),
        kind=SymbolKind.OBJECT, binding=SymbolBinding.LOCAL,
        unit="arch/tbl.s"))

    pre = _pre_with_rodata(
        machine, blob_pre,
        relocs=[Relocation(offset=0, symbol="handler_a",
                           type=RelocationType.ABS32, addend=0)])
    matcher = RunPreMatcher(memory=machine.memory,
                            kallsyms=machine.image.kallsyms)
    matcher.match_unit(pre)  # must not raise


def test_matcher_reports_byte_and_reloc_counts():
    machine = boot_kernel(TREE)
    pre = build_units(TREE, ["arch/tbl.s"], FLAVOR).object_for("arch/tbl.s")
    matcher = RunPreMatcher(memory=machine.memory,
                            kallsyms=machine.image.kallsyms)
    result = matcher.match_unit(pre)
    assert result.bytes_matched >= sum(
        s.size for s in pre.sections.values() if s.kind.is_code) - 16
    assert result.relocations_solved >= 1  # lea handlers
    assert set(result.matched_functions) == {"dispatch", "handler_a",
                                             "handler_b"}


def test_value_of_unknown_symbol_raises():
    from repro.core.runpre import RunPreResult
    from repro.errors import SymbolResolutionError

    result = RunPreResult(unit="x")
    with pytest.raises(SymbolResolutionError):
        result.value_of("nope")


def test_replay_rechecks_the_rodata_anchor_and_bytes():
    """A recorded match replays only on a member whose .rodata anchor
    lookup and rodata bytes are identical: a changed byte, or an anchor
    that kallsyms places at other bytes, takes the full walk and aborts
    as it would have."""
    from repro.core.runpre import clear_replays, replay_stats
    from repro.linker.kallsyms import KallsymsEntry

    blob = b"\x01\x02\x03\x04\x05\x06\x07\x08"
    changed = b"\x01\x02\x03\x04\xFF\x06\x07\x08"

    def member(at_first, at_second=None):
        machine = boot_kernel(TREE)
        first = machine.kmalloc(len(blob))
        machine.memory.write_bytes(first, at_first)
        anchor = first
        if at_second is not None:
            anchor = machine.kmalloc(len(blob))
            machine.memory.write_bytes(anchor, at_second)
        machine.image.kallsyms.add(KallsymsEntry(
            name="ro_anchor", address=anchor, size=len(blob),
            kind=SymbolKind.OBJECT, binding=SymbolBinding.LOCAL,
            unit="arch/tbl.s"))
        return RunPreMatcher(memory=machine.memory,
                             kallsyms=machine.image.kallsyms)

    pre = _pre_with_rodata(None, blob)
    clear_replays()
    recorded = member(blob).match_unit(pre)
    assert member(blob).match_unit(pre) == recorded
    assert replay_stats()["replays"] == 1
    for run in (member(changed), member(blob, at_second=changed)):
        with pytest.raises(RunPreMismatchError,
                           match="rodata .rodata.ro_anchor differs at"):
            run.match_unit(pre)
    assert replay_stats() == {"replays": 1, "walks": 3, "records": 1}
