"""Structural tests for the MiniC compiler (execution tests live with the
kernel machine tests)."""

import pytest

from repro.compiler import CompilerOptions, compile_source
from repro.errors import CompileError
from repro.objfile import RelocationType, SymbolBinding, SymbolKind

KERNEL_C = """
struct task { int pid; int uid; };

static int debug;
int boot_count = 1;
int zeroed;

extern int other_unit_counter;

static int check_uid(struct task *t) { return t->uid == 0; }

int helper(int x) {
    return x * 2 + 1;
}

int entry(struct task *t, int request) {
    static int calls = 0;
    calls++;
    if (!check_uid(t)) {
        return -1;
    }
    debug = helper(request);
    other_unit_counter += 1;
    return debug;
}
"""


def compile_both(source, name="unit.c", opt_level=2):
    merged = compile_source(source, name, CompilerOptions(
        opt_level=opt_level))
    split = compile_source(source, name, CompilerOptions(
        opt_level=opt_level, function_sections=True, data_sections=True))
    return merged, split


def test_merged_layout_single_text_section():
    merged, _ = compile_both(KERNEL_C)
    obj = merged.objfile
    assert ".text" in obj.sections
    assert not any(name.startswith(".text.") for name in obj.sections)
    # All three functions have FUNC symbols inside .text.
    for fn in ("check_uid", "helper", "entry"):
        sym = obj.symbol(fn)
        assert sym.section == ".text" and sym.kind is SymbolKind.FUNC
        assert sym.size > 0


def test_split_layout_per_function_sections():
    _, split = compile_both(KERNEL_C)
    obj = split.objfile
    assert ".text" not in obj.sections
    for fn in ("check_uid", "helper", "entry"):
        assert ".text.%s" % fn in obj.sections
        assert obj.symbol(fn).section == ".text.%s" % fn


def test_static_function_symbol_is_local():
    merged, _ = compile_both(KERNEL_C)
    assert merged.objfile.symbol("check_uid").binding is SymbolBinding.LOCAL
    assert merged.objfile.symbol("entry").binding is SymbolBinding.GLOBAL


def test_static_global_and_static_local_are_local_symbols():
    merged, _ = compile_both(KERNEL_C)
    obj = merged.objfile
    assert obj.symbol("debug").binding is SymbolBinding.LOCAL
    calls = obj.symbol("entry.calls")
    assert calls.binding is SymbolBinding.LOCAL
    assert calls.kind is SymbolKind.OBJECT


def test_data_vs_bss_placement():
    merged, split = compile_both(KERNEL_C)
    obj = merged.objfile
    assert obj.symbol("boot_count").section == ".data"
    assert obj.symbol("zeroed").section == ".bss"
    assert obj.symbol("debug").section == ".bss"  # zero-initialized
    split_obj = split.objfile
    assert split_obj.symbol("boot_count").section == ".data.boot_count"
    assert split_obj.symbol("zeroed").section == ".bss.zeroed"


def test_data_words_wrap_like_immediates():
    """Initializers outside signed 32 bits wrap mod 2**32, as ``movi``
    immediates do; in-range values pack exactly as before."""
    import struct

    source = ("int big = 0xFFFFFFFF;\n"
              "int table[4] = {-1, 0x80000000, -2147483648, 7};\n"
              "int f(void) { return 0xFFFFFFFF; }\n")
    merged, split = compile_both(source)
    assert split.objfile.section(".data.big").data == b"\xff" * 4
    assert split.objfile.section(".data.table").data == \
        struct.pack("<iiii", -1, -2 ** 31, -2 ** 31, 7)
    data = merged.objfile.section(".data").data
    assert data[:4] == b"\xff" * 4


def test_literal_and_shift_errors_are_compile_errors():
    for source in ("int f(void) { return 0123; }", "int x = 09;",
                   "int x = 1 << -1;"):
        with pytest.raises(CompileError):
            compile_source(source, "u.c")


def test_extern_produces_undefined_symbol():
    merged, _ = compile_both(KERNEL_C)
    undefined = {s.name for s in merged.objfile.undefined_symbols()}
    assert "other_unit_counter" in undefined


def test_intra_unit_call_resolved_in_merged_but_reloc_in_split():
    source = """
    int callee(int x) { if (x) { x = x + 1; } while (x > 9) { x--; } return x; }
    int caller(int y) { return callee(y); }
    """
    merged, split = compile_both(source, opt_level=0)
    merged_refs = merged.objfile.referenced_symbol_names()
    assert "callee" not in merged_refs
    split_refs = split.objfile.referenced_symbol_names()
    assert "callee" in split_refs
    # The split reloc is pc-relative with the canonical -4 addend.
    caller_sec = split.objfile.section(".text.caller")
    call_relocs = [r for r in caller_sec.relocations if r.symbol == "callee"]
    assert call_relocs and all(
        r.type is RelocationType.PC32 and r.addend == -4 for r in call_relocs)


def test_global_data_reference_is_reloc_in_both_modes():
    merged, split = compile_both(KERNEL_C)
    for result in (merged, split):
        refs = result.objfile.referenced_symbol_names()
        assert "debug" in refs


def test_merged_functions_are_aligned():
    merged, _ = compile_both(KERNEL_C)
    obj = merged.objfile
    for fn in ("check_uid", "helper", "entry"):
        assert obj.symbol(fn).value % 16 == 0


def test_inlining_at_o2_not_at_o0():
    source = """
    static int is_root(int uid) { return uid == 0; }
    int gate(int uid) { return is_root(uid); }
    """
    at_o2 = compile_source(source, "u.c", CompilerOptions(opt_level=2))
    assert at_o2.inline_report.was_inlined("is_root")
    assert at_o2.inline_report.callers_of("is_root") == ["gate"]
    # The call disappears from the object code.
    refs = at_o2.objfile.referenced_symbol_names()
    assert "is_root" not in refs

    at_o0 = compile_source(source, "u.c", CompilerOptions(opt_level=0))
    assert not at_o0.inline_report.was_inlined("is_root")


def test_inline_keyword_inlined_at_o1():
    source = """
    inline int twice(int x) { return x + x; }
    int f(int x) { return twice(x); }
    """
    at_o1 = compile_source(source, "u.c", CompilerOptions(opt_level=1))
    assert at_o1.inline_report.was_inlined("twice")


def test_non_inline_functions_not_inlined_at_o1():
    source = """
    static int twice(int x) { return x + x; }
    int f(int x) { return twice(x); }
    """
    at_o1 = compile_source(source, "u.c", CompilerOptions(opt_level=1))
    assert not at_o1.inline_report.was_inlined("twice")


def test_large_function_not_inlined():
    source = """
    static int big(int a, int b) {
        return a*b + a/b + a%b + (a<<2) + (b>>1) + (a&b) + (a|b) + (a^b)
             + a*a + b*b + a*3 + b*5 + a*7 + b*11 + a*13;
    }
    int f(int x) { return big(x, x + 1); }
    """
    result = compile_source(source, "u.c", CompilerOptions(opt_level=2))
    assert not result.inline_report.was_inlined("big")


def test_multi_statement_function_not_inlined():
    source = """
    static int stateful(int x) { x = x + 1; return x; }
    int f(int x) { return stateful(x); }
    """
    result = compile_source(source, "u.c", CompilerOptions(opt_level=2))
    assert not result.inline_report.was_inlined("stateful")


def test_side_effect_arg_with_multi_use_param_not_inlined():
    source = """
    int sink;
    static int square(int x) { return x * x; }
    int f(int y) { return square(sink = y); }
    """
    result = compile_source(source, "u.c", CompilerOptions(opt_level=2))
    assert not result.inline_report.was_inlined("square")


def test_recursive_function_not_inlined():
    source = """
    static int fact(int n) { return n ? n * fact(n - 1) : 1; }
    int f(void) { return fact(5); }
    """
    result = compile_source(source, "u.c", CompilerOptions(opt_level=2))
    assert not result.inline_report.was_inlined("fact")


def test_prototype_change_changes_caller_object_code():
    """The paper's §3.1 point: a header-level prototype change alters the
    *callers'* object code even though their source is untouched."""
    base = """
    int callee(int a);
    int caller(void) { return callee(7); }
    """
    changed = """
    int callee(int a, int b);
    int caller(void) { return callee(7, 0); }
    """
    obj_a = compile_source(base, "u.c", CompilerOptions(
        function_sections=True, data_sections=True)).objfile
    obj_b = compile_source(changed, "u.c", CompilerOptions(
        function_sections=True, data_sections=True)).objfile
    assert obj_a.section(".text.caller").data != \
        obj_b.section(".text.caller").data


def test_hook_sections_emitted():
    source = """
    int my_transition(void) { return 0; }
    __ksplice_apply__(my_transition);
    __ksplice_reverse__(my_transition);
    """
    obj = compile_source(source, "u.c").objfile
    for name in (".ksplice_apply", ".ksplice_reverse"):
        section = obj.section(name)
        assert section.size == 4
        assert section.relocations[0].symbol == "my_transition"


def test_hook_against_missing_function_raises():
    with pytest.raises(CompileError):
        compile_source("__ksplice_apply__(ghost);", "u.c")


def test_compiler_version_skew_changes_code():
    source = "int f(void) { return 1; }"
    v1 = compile_source(source, "u.c", CompilerOptions())
    v2 = compile_source(source, "u.c",
                        CompilerOptions(compiler_version="kcc-1.1"))
    assert v1.objfile.section(".text").data != \
        v2.objfile.section(".text").data


def test_compile_asm_merged_and_split():
    source = """
    .global entry_a
    .global entry_b
    entry_a:
        movi r0, 1
        ret
    .align 16
    entry_b:
        call helper_c
        ret
    """
    merged = compile_source(source, "arch/entry.s", CompilerOptions())
    obj = merged.objfile
    assert ".text" in obj.sections
    assert obj.symbol("entry_a").value == 0
    assert obj.symbol("entry_b").value == 16
    assert "helper_c" in {s.name for s in obj.undefined_symbols()}

    split = compile_source(source, "arch/entry.s", CompilerOptions(
        function_sections=True, data_sections=True))
    assert ".text.entry_a" in split.objfile.sections
    assert ".text.entry_b" in split.objfile.sections


def test_compile_asm_data_section_with_table():
    source = """
    .global dispatch
    dispatch:
        ret
    .section .data
    table:
        .word dispatch, 0
    """
    obj = compile_source(source, "arch/tbl.s", CompilerOptions()).objfile
    data = obj.section(".data")
    assert data.relocations[0].symbol == "dispatch"
    assert obj.symbol("table").binding is SymbolBinding.LOCAL


def test_unknown_identifier_raises():
    with pytest.raises(CompileError):
        compile_source("int f(void) { return ghost_var; }", "u.c")


def test_break_outside_loop_raises():
    with pytest.raises(CompileError):
        compile_source("int f(void) { break; return 0; }", "u.c")


def test_deref_non_pointer_raises():
    with pytest.raises(CompileError):
        compile_source("int f(int x) { return *x; }", "u.c")


def test_field_access_on_non_struct_raises():
    with pytest.raises(CompileError):
        compile_source("int f(int x) { return x.pid; }", "u.c")


def test_deterministic_output():
    first = compile_source(KERNEL_C, "u.c", CompilerOptions())
    second = compile_source(KERNEL_C, "u.c", CompilerOptions())
    for name, section in first.objfile.sections.items():
        assert second.objfile.section(name).data == section.data
