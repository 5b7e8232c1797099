"""Unit tests for corners not covered by the subsystem suites:
disassembler formatting, scheduler control, memory mapping rules,
stop_machine reporting, thread stack scans, build-result queries."""

import pytest

from repro.arch import assemble, disassemble, format_instruction
from repro.arch.assembler import Insn, Label, LabelRef
from repro.arch.disassembler import disassemble_one, iter_instructions
from repro.compiler import CompilerOptions
from repro.errors import BuildError, MachineError
from repro.kbuild import KernelConfig, SourceTree, build_tree
from repro.kernel import boot_kernel
from repro.kernel.cpu import CPUState, step
from repro.kernel.memory import Memory
from repro.kernel.threads import Thread
from repro.linker import link_kernel


# ---------------------------------------------------------------------------
# Disassembler


def test_format_instruction_register_and_immediate():
    code = assemble([Insn("movi", (0, 42))]).code
    text = format_instruction(disassemble_one(code))
    assert "movi" in text and "r0" in text and "42" in text


def test_format_instruction_branch_target_absolute():
    code = assemble([Insn("jmp", (LabelRef("x"),)), Label("pad"),
                     Insn("ret", ()), Label("x"), Insn("hlt", ())]).code
    decoded = disassemble(code)
    text = format_instruction(decoded[0])
    # Target renders as the absolute offset of label x.
    assert hex(decoded[0].branch_target_offset()) in text


def test_format_instruction_memory_operand():
    code = assemble([Insn("load", (1, 0xC0100000))]).code
    text = format_instruction(disassemble_one(code))
    assert "[0xc0100000]" in text


def test_iter_instructions_with_bounds():
    code = assemble([Insn("nop", ()), Insn("ret", ()),
                     Insn("hlt", ())]).code
    middle = list(iter_instructions(code, start=1, end=2))
    assert [d.mnemonic for d in middle] == ["ret"]


# ---------------------------------------------------------------------------
# Memory


def test_overlapping_segments_rejected():
    memory = Memory()
    memory.map_segment("a", 0x1000, size=0x100)
    with pytest.raises(MachineError):
        memory.map_segment("b", 0x10FF, size=0x10)
    memory.map_segment("c", 0x1100, size=0x10)  # adjacent is fine


def test_segment_lookup_by_name_and_address():
    memory = Memory()
    memory.map_segment("a", 0x1000, size=0x100)
    assert memory.segment("a").base == 0x1000
    with pytest.raises(MachineError):
        memory.segment("zzz")
    assert memory.segment_for(0x10FF).name == "a"
    with pytest.raises(MachineError):
        memory.segment_for(0x10FD, count=8)  # straddles the end


def test_is_mapped():
    memory = Memory()
    memory.map_segment("a", 0x1000, size=16)
    assert memory.is_mapped(0x1000, 16)
    assert not memory.is_mapped(0x1000, 17)
    assert not memory.is_mapped(0x0FFF)


def test_stores_drop_only_the_cached_decodes_they_overlap():
    """A store to a data segment keeps every cached decode; a store
    over cached code drops the entries it overlaps and no others."""
    from repro.arch import isa

    movi = isa.encode_instruction(isa.make("movi", 0, 1))
    memory = Memory()
    memory.map_segment("code-a", 0x1000, data=movi, executable=True)
    memory.map_segment("data", 0x2000, size=16)
    memory.map_segment("code-b", 0x3000, data=movi, executable=True)
    state = CPUState()
    for ip in (0x1000, 0x3000):
        state.ip = ip
        step(state, memory)
    cached = memory._decode_cache.entries
    assert set(cached) == {0x1000, 0x3000}
    memory.write_u32(0x2000, 7)
    assert set(cached) == {0x1000, 0x3000}
    memory.write_bytes(0x1000,
                       isa.encode_instruction(isa.make("movi", 0, 99)))
    assert set(cached) == {0x3000}


# ---------------------------------------------------------------------------
# CPU odds and ends


def test_invalid_opcode_faults():
    memory = Memory()
    memory.map_segment("code", 0x1000, data=b"\xEE", executable=True)
    state = CPUState()
    state.ip = 0x1000
    with pytest.raises(MachineError):
        step(state, memory)


def test_self_modifying_code_is_observed():
    """Writing over an executable segment invalidates the decode cache
    (this is exactly what Ksplice's jump insertion relies on)."""
    from repro.arch import isa

    memory = Memory()
    code = isa.encode_instruction(isa.make("movi", 0, 1)) + b"\x00"
    memory.map_segment("code", 0x1000, data=code, executable=True)
    state = CPUState()
    state.ip = 0x1000
    step(state, memory)  # executes movi r0, 1 (and caches the decode)
    assert state.reg(0) == 1
    # Overwrite the same instruction with movi r0, 99 and re-run it.
    memory.write_bytes(0x1000,
                       isa.encode_instruction(isa.make("movi", 0, 99)))
    state.ip = 0x1000
    step(state, memory)
    assert state.reg(0) == 99


def test_shift_counts_masked_to_五bits_is_c_behaviour():
    tree = SourceTree(version="t", files={
        "u.c": "int f(int x, int n) { return x << n; }"})
    machine = boot_kernel(tree)
    assert machine.call_function("f", [1, 33]) == 2  # 33 & 31 == 1


# ---------------------------------------------------------------------------
# Scheduler


def _spin_tree():
    return SourceTree(version="s", files={"k.c": """
int progress_a;
int progress_b;
int work_a(void) {
    for (int i = 0; i < 100; i++) { progress_a++; __sched(); }
    return progress_a;
}
int work_b(void) {
    for (int i = 0; i < 100; i++) { progress_b++; __sched(); }
    return progress_b;
}
"""})


def test_run_until_predicate():
    machine = boot_kernel(_spin_tree())
    machine.create_thread("work_a", name="a")

    def a_done():
        return machine.read_u32(machine.symbol("progress_a")) >= 50

    assert machine.scheduler.run_until(a_done)
    assert machine.read_u32(machine.symbol("progress_a")) >= 50


def test_run_until_budget_exhaustion_returns_false():
    machine = boot_kernel(_spin_tree())
    machine.create_thread("work_a", name="a")
    assert not machine.scheduler.run_until(lambda: False,
                                           max_instructions=100)


def test_voluntary_yield_alternates_threads():
    machine = boot_kernel(_spin_tree(), quantum=1000)
    machine.create_thread("work_a", name="a")
    machine.create_thread("work_b", name="b")
    machine.run(max_instructions=4_000)
    # Despite the huge quantum, __sched() yields interleave the two.
    pa = machine.read_u32(machine.symbol("progress_a"))
    pb = machine.read_u32(machine.symbol("progress_b"))
    assert pa > 0 and pb > 0


def test_find_thread():
    machine = boot_kernel(_spin_tree())
    machine.create_thread("work_a", name="alpha")
    assert machine.scheduler.find_thread("alpha") is not None
    assert machine.scheduler.find_thread("ghost") is None


def test_frozen_scheduler_runs_nothing():
    machine = boot_kernel(_spin_tree())
    machine.create_thread("work_a", name="a")
    machine.scheduler.frozen = True
    assert machine.scheduler.run(10_000) == 0
    machine.scheduler.frozen = False
    assert machine.scheduler.run(1_000) > 0


# ---------------------------------------------------------------------------
# stop_machine


def test_stop_machine_returns_value_and_stacks_reports():
    machine = boot_kernel(_spin_tree())
    assert machine.stop_machine.run(lambda: 42) == 42
    machine.stop_machine.run(lambda: None)
    assert len(machine.stop_machine.reports) == 2
    assert machine.stop_machine.last_report.instructions_during_stop == 0


def test_stop_machine_releases_on_exception():
    machine = boot_kernel(_spin_tree())

    with pytest.raises(RuntimeError):
        machine.stop_machine.run(lambda: (_ for _ in ()).throw(
            RuntimeError("boom")))
    assert not machine.scheduler.frozen
    assert len(machine.stop_machine.reports) == 1


def test_stop_machine_last_report_before_any_run_raises():
    machine = boot_kernel(_spin_tree())
    with pytest.raises(RuntimeError):
        machine.stop_machine.last_report


# ---------------------------------------------------------------------------
# Threads


def test_live_stack_words_empty_when_sp_out_of_range():
    thread = Thread(tid=1, name="x", cpu=CPUState(), stack_base=0x1000,
                    stack_size=0x100)
    thread.cpu.set_reg(6, 0x9999)  # sp outside the stack
    assert thread.live_stack_words() == []


def test_live_stack_words_covers_sp_to_top():
    thread = Thread(tid=1, name="x", cpu=CPUState(), stack_base=0x1000,
                    stack_size=0x100)
    thread.cpu.set_reg(6, 0x10F0)
    words = thread.live_stack_words()
    assert words[0] == 0x10F0 and words[-1] == 0x10FC
    assert len(words) == 4


def test_reap_live_thread_rejected():
    machine = boot_kernel(_spin_tree())
    thread = machine.create_thread("work_a", name="a")
    with pytest.raises(MachineError):
        machine.reap_thread(thread)


# ---------------------------------------------------------------------------
# Build results


def test_build_result_queries():
    tree = SourceTree(version="t", files={
        "a.c": """
            static int tiny(int x) { return x + 1; }
            int outer(int x) { return tiny(x); }
        """,
        "b.c": "int plain(int x) { return x; }",
    })
    build = build_tree(tree, CompilerOptions(opt_level=2))
    assert build.function_inlined_anywhere("tiny")
    assert not build.function_inlined_anywhere("plain")
    merged = build.merged_inline_report()
    assert merged.was_inlined("tiny")
    with pytest.raises(BuildError):
        build.object_for("missing.c")


def test_kernel_config_filtering():
    config = KernelConfig(name="custom").without(["b.c"])
    assert config.is_enabled("a.c")
    assert not config.is_enabled("b.c")
    assert config.filter_units(["a.c", "b.c", "c.c"]) == ["a.c", "c.c"]


# ---------------------------------------------------------------------------
# kallsyms details


def test_symbol_at_prefers_innermost():
    tree = SourceTree(version="t", files={
        "a.c": "int first(void) { return 1; }\n"
               "int second(void) { return 2; }\n"})
    image = link_kernel(build_tree(tree))
    second_addr = image.kallsyms.unique_address("second")
    found = image.kallsyms.symbol_at(second_addr + 2)
    assert found.name == "second"
    # An address past everything finds nothing.
    assert image.kallsyms.symbol_at(image.end + 0x1000) is None
