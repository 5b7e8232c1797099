"""Tests for the abstract-interpretation proof engine (repro.analysis.absint).

Covers the domain lattice, the per-function interpreter, and each
client pass (ABI, pointer escape, hunk equivalence, sleep path, data
image) against small compiled units, plus the ANALYZER_VERSION cache
invalidation that keeps stale verdicts unreachable.
"""

from repro.analysis import build_call_graph
from repro.analysis.absint import (
    analyze_abi,
    analyze_escapes,
    caller_arg_counts,
    equivalence_evidence,
    function_summary,
    join_states,
    join_values,
    run_absint,
    summarize_function,
)
from repro.analysis.absint.domain import (
    TOP,
    arg_slot_index,
    const,
    dataptr,
    entry_state,
    signed32,
)
from repro.analysis.datalayout import (
    analyze_data_layout,
    analyze_init_only_writers,
)
from repro.analysis.model import (
    EVIDENCE_ABI,
    EVIDENCE_DATA_IMAGE,
    EVIDENCE_EQUIVALENCE,
    EVIDENCE_SHADOW_API,
    EVIDENCE_SLEEP_PATH,
    VERDICT_NEEDS_SHADOW,
    VERDICT_REJECT,
    VERDICT_SAFE,
)
from repro.analysis.quiescence import analyze_quiescence
from repro.arch.assembler import Insn, assemble
from repro.arch.isa import REG_FP, REG_SP
from repro.compiler import CompilerOptions, compile_source
from repro.core import diff_objects
from repro.core.objdiff import UnitDiff
from repro.kbuild import SourceTree, build_tree
from repro.objfile import ObjectFile, Section, SectionKind

#: pre/post-style layout: one section per function and data symbol
FS_OPTIONS = CompilerOptions(opt_level=0, function_sections=True,
                             data_sections=True)


def compile_fs(source, name="u.c"):
    return compile_source(source, name, FS_OPTIONS).objfile


def text_object(fn, items):
    """An ObjectFile holding hand-assembled code as ``.text.<fn>``."""
    result = assemble(items)
    obj = ObjectFile(name="asm.c")
    obj.add_section(Section(name=".text.%s" % fn, kind=SectionKind.TEXT,
                            data=result.code))
    return obj


# -- domain ----------------------------------------------------------------


def test_join_values_lattice():
    assert join_values(const(3), const(3)) == const(3)
    assert join_values(const(3), const(4)) == TOP
    assert join_values(dataptr("t"), dataptr("t")) == dataptr("t")
    assert join_values(dataptr("t"), dataptr("u")) == TOP
    assert join_values(TOP, const(1)) == TOP


def test_signed32_two_complement():
    assert signed32(4) == 4
    assert signed32(0xFFFFFFFC) == -4
    assert signed32(0x80000000) == -0x80000000


def with_reg(state, reg, value):
    sp, regs, stack = state
    return (sp, regs[:reg] + (value,) + regs[reg + 1:], stack)


def with_sp(state, sp):
    return (sp,) + state[1:]


def with_slot(state, offset, value):
    sp, regs, stack = state
    return (sp, regs, {**stack, offset: value})


def slot(state, offset):
    return state[2].get(offset, TOP)


def test_machine_state_slots_and_args():
    state = with_slot(with_sp(entry_state(), -8), -8, const(7))
    assert slot(state, -8) == const(7)
    assert slot(state, -4) == TOP
    assert arg_slot_index(4) == 0
    assert arg_slot_index(12) == 2
    assert arg_slot_index(0) is None
    assert arg_slot_index(6) is None


def test_join_states_merges_pointwise():
    a = with_slot(with_sp(entry_state(), -4), -4, dataptr("t"))
    b = with_reg(with_slot(with_sp(entry_state(), -4), -4, dataptr("t")),
                 1, const(9))
    joined = join_states(a, b)
    sp, regs, _stack = joined
    assert sp == -4
    assert slot(joined, -4) == dataptr("t")
    assert regs[1] == TOP  # entry(r1) vs const disagree
    # diverging depths lose sp entirely
    assert join_states(a, with_sp(a, -8))[0] is None


def test_join_states_drops_explicit_unknown_slots():
    """A slot holding UNKNOWN on both sides is dropped, so joining a
    state that stored an explicit UNKNOWN with itself changes it: the
    fixpoint revisits such a successor once more."""
    state = with_slot(with_slot(with_sp(entry_state(), -8), -4, TOP),
                      -8, const(1))
    joined = join_states(state, state)
    assert joined != state
    assert joined[2] == {-8: const(1)}
    assert join_states(joined, joined) == joined


# -- interpreter -----------------------------------------------------------


def test_summary_of_compiled_function():
    obj = compile_fs("""
int depot;

int stash(int a, int b) {
    depot = a + b;
    return a;
}
""")
    summary = function_summary(obj, "stash")
    assert summary is not None and summary.decode_ok
    assert summary.stack_balanced and summary.frame_preserved
    assert summary.args_read == 2
    assert any(event.symbol == "depot" and event.is_write
               for event in summary.accesses)
    assert summary.escapes == []


def test_summary_records_calls_and_sleeps():
    obj = compile_fs("""
int helper(int n);

int waiter(int n) {
    __sched();
    return helper(n);
}
""")
    summary = function_summary(obj, "waiter")
    assert summary is not None
    assert [c.callee for c in summary.calls] == ["helper"]
    assert len(summary.sleep_sites) == 1


def test_summary_on_undecodable_bytes():
    summary = summarize_function("junk", b"\xff\xff\xff\xff", {})
    assert not summary.decode_ok
    assert summary.opaque_reason


def test_unbalanced_code_is_not_stack_balanced():
    code = assemble([Insn("push", (1,)), Insn("ret", ())]).code
    summary = summarize_function("leaky", code, {})
    assert summary.rets and summary.rets[0].sp == -4
    assert not summary.stack_balanced


# -- ABI pass --------------------------------------------------------------

ABI_PRE = """
int widget_get(int a) {
    return a + 1;
}
"""


def test_abi_proof_for_well_behaved_change():
    pre = compile_fs(ABI_PRE, "kernel/widget.c")
    post = compile_fs(ABI_PRE.replace("a + 1", "a + 2"),
                      "kernel/widget.c")
    findings, evidence = analyze_abi("kernel/widget.c", "widget_get",
                                     pre, post, None, {"widget_get"})
    assert findings == []
    assert [e.kind for e in evidence] == [EVIDENCE_ABI]
    assert evidence[0].facts["stack_balanced"] is True
    assert evidence[0].facts["frame_preserved"] is True
    assert any("ret" in site for site in evidence[0].sites)


def test_abi_rejects_stack_discipline_break():
    pre = compile_fs(ABI_PRE, "kernel/widget.c")
    post = text_object("widget_get", [
        Insn("push", (REG_FP,)),
        Insn("movr", (REG_FP, REG_SP)),
        Insn("ret", ()),  # returns without popping fp: sp is off by 4
    ])
    findings, evidence = analyze_abi("kernel/widget.c", "widget_get",
                                     pre, post, None, {"widget_get"})
    assert [f.verdict for f in findings] == [VERDICT_REJECT]
    assert "stack discipline" in findings[0].detail
    assert evidence and "ABI violation" in evidence[0].detail


RIPPLE_TREE = SourceTree(version="ripple", files={
    "kernel/widget.c": ABI_PRE,
    "kernel/caller.c": """
int widget_get(int a);

int caller_one(int x) {
    return widget_get(x);
}
""",
})


def test_caller_arg_counts_recovered_from_run_kernel():
    run_build = build_tree(RIPPLE_TREE, CompilerOptions(opt_level=0))
    counts = caller_arg_counts(build_call_graph(run_build), "widget_get")
    assert counts == {"kernel/caller.c:caller_one": 1}


def test_abi_rejects_prototype_ripple_against_unpatched_caller():
    run_build = build_tree(RIPPLE_TREE, CompilerOptions(opt_level=0))
    pre = compile_fs(ABI_PRE, "kernel/widget.c")
    post = compile_fs("""
int widget_get(int a, int b) {
    return a + b;
}
""", "kernel/widget.c")
    findings, evidence = analyze_abi("kernel/widget.c", "widget_get",
                                     pre, post, build_call_graph(run_build),
                                     {"widget_get"})
    assert [f.verdict for f in findings] == [VERDICT_REJECT]
    assert "unpatched callers push fewer" in findings[0].detail
    assert "kernel/caller.c:caller_one pushes 1 arg" \
        in findings[0].detail
    assert evidence[0].facts["prototype_ripple"] is True

    # when the caller is patched along, the ripple is harmless
    findings, _ = analyze_abi("kernel/widget.c", "widget_get",
                              pre, post, build_call_graph(run_build),
                              {"widget_get", "caller_one"})
    assert findings == []


# -- hunk equivalence ------------------------------------------------------


def test_equivalence_identical_streams():
    pre = compile_fs(ABI_PRE, "kernel/widget.c")
    post = compile_fs(ABI_PRE, "kernel/widget.c")
    ev = equivalence_evidence("kernel/widget.c", "widget_get",
                              pre, post)
    assert ev is not None
    assert ev.facts["relocation_only"] is True
    assert ev.facts["changed_pre"] == 0 and ev.facts["changed_post"] == 0


def test_equivalence_pins_the_changed_window():
    source = """
int clamp(int a) {
    if (a > 10) { return 10; }
    return a;
}
"""
    pre = compile_fs(source, "kernel/clamp.c")
    post = compile_fs(source.replace("a > 10", "a >= 10"),
                      "kernel/clamp.c")
    ev = equivalence_evidence("kernel/clamp.c", "clamp", pre, post)
    assert ev is not None
    assert ev.facts["relocation_only"] is False
    assert ev.facts["changed_pre"] >= 1
    assert ev.facts["common_prefix"] + ev.facts["common_suffix"] > 0
    assert "changed window" in ev.sites[0]


# -- pointer escape --------------------------------------------------------

ESCAPE_SRC = """
int table[4];
int holder;

int publish(int x) {
    holder = table;
    return x;
}
"""


def resized_escapes(pre_src, post_src, unit="kernel/esc.c"):
    pre = compile_fs(pre_src, unit)
    post = compile_fs(post_src, unit)
    return analyze_escapes(unit, diff_objects(pre, post), pre, post, None)


def test_escape_witnessed_when_pointer_stored():
    findings, evidence = resized_escapes(
        ESCAPE_SRC.replace("table[4]", "table[2]"), ESCAPE_SRC)
    # a witnessed symbol keeps its needs-shadow finding
    assert [(f.symbol, f.verdict) for f in findings] == [
        ("table", VERDICT_NEEDS_SHADOW)]
    assert evidence[0].facts["escapes"] >= 1
    assert any("pointer stored" in site for site in evidence[0].sites)


def test_no_escape_enables_downgrade():
    source = """
int scratch[2];

int probe(int x) {
    return x;
}
"""
    findings, evidence = resized_escapes(
        source, source.replace("scratch[2]", "scratch[4]"))
    assert evidence[0].facts["anything_escapes"] is False
    assert "nothing escapes" in evidence[0].detail
    assert [f.verdict for f in findings] == [VERDICT_SAFE]
    assert findings[0].analysis == "absint-escape"
    assert findings[0].symbol == "scratch"


def test_shadow_api_call_sites_witnessed():
    pre = compile_fs("int bump(int x) { return x; }", "kernel/sh.c")
    post = compile_fs("""
int ksplice_shadow_get(int obj, int key);

int bump(int x) {
    return ksplice_shadow_get(x, 1);
}
""", "kernel/sh.c")
    _findings, evidence = analyze_data_layout(
        {"kernel/sh.c": diff_objects(pre, post)}, {"kernel/sh.c": pre},
        {"kernel/sh.c": post})
    assert [e.symbol for e in evidence] == ["ksplice_shadow_get"]
    assert evidence[0].kind == EVIDENCE_SHADOW_API
    assert evidence[0].facts["call_sites"] == 1
    assert "call ksplice_shadow_get" in evidence[0].sites[0]


# -- sleep paths -----------------------------------------------------------

SLEEP_TREE = SourceTree(version="absint-sleep", files={
    "kernel/sched.c": """
int jiffies;

int schedule(void) {
    jiffies++;
    __sched();
    return 0;
}
""",
    "kernel/widget.c": """
int schedule(void);

int widget_wait(int n) {
    schedule();
    return n;
}

int sys_widget(int a, int b, int c) {
    return widget_wait(a);
}
""",
})


def test_sleep_path_evidence_pins_every_hop():
    graph = build_call_graph(build_tree(SLEEP_TREE,
                                        CompilerOptions(opt_level=0)))
    _findings, evidence = analyze_quiescence(
        graph, {"kernel/widget.c": UnitDiff(
            unit="kernel/widget.c", changed_functions=["sys_widget"])}, {})
    assert [e.kind for e in evidence] == [EVIDENCE_SLEEP_PATH]
    ev = evidence[0]
    assert ev.facts["hops"] == 2
    assert ev.facts["chain"][-1] == "kernel/sched.c:schedule"
    assert any("call widget_wait" in site for site in ev.sites)
    assert any("sleep instruction" in site for site in ev.sites)
    # a function with no path to a sleep gets no evidence
    quiet = build_call_graph(build_tree(SourceTree(
        version="quiet", files={
            "kernel/m.c": "int pure(int x) { return x * 3; }\n"}),
        CompilerOptions(opt_level=0)))
    assert analyze_quiescence(quiet, {"kernel/m.c": UnitDiff(
        unit="kernel/m.c", changed_functions=["pure"])}, {}) == ([], [])


def test_sleep_path_degrades_to_own_text():
    pre = compile_fs(SLEEP_TREE.files["kernel/sched.c"],
                     "kernel/sched.c")
    _findings, evidence = analyze_quiescence(
        None, {"kernel/sched.c": UnitDiff(
            unit="kernel/sched.c", changed_functions=["schedule"])},
        {"kernel/sched.c": pre})
    assert [e.kind for e in evidence] == [EVIDENCE_SLEEP_PATH]
    ev = evidence[0]
    assert ev.facts["hops"] == 0
    assert "sleep instruction" in ev.sites[0]


# -- data image ------------------------------------------------------------


def test_image_change_evidence_spans_the_differing_bytes():
    pre = compile_fs("int counter = 5;\n", "kernel/d.c")
    post = compile_fs("int counter = 6;\n", "kernel/d.c")
    _findings, evidence = analyze_data_layout(
        {"kernel/d.c": diff_objects(pre, post)}, {"kernel/d.c": pre},
        {"kernel/d.c": post})
    [ev] = evidence
    assert ev.kind == EVIDENCE_DATA_IMAGE
    assert ev.symbol == "counter"
    assert ev.facts["first_diff"] == 0
    assert ev.facts["pre_size"] == ev.facts["post_size"] == 4
    assert "bytes [0x0..0x0] differ" in ev.sites[0]


BOOT_TREE = SourceTree(version="absint-boot", files={
    "kernel/sys.c": """
int boot_setup(void);

int kernel_init(void) {
    boot_setup();
    return 0;
}
""",
    "drivers/dev.c": """
int dev_table[4];

int boot_setup(void) {
    dev_table[0] = 7;
    return 0;
}
""",
})


def test_init_writer_evidence_names_the_data_and_boot_chain():
    graph = build_call_graph(build_tree(BOOT_TREE,
                                        CompilerOptions(opt_level=0)))
    pre = compile_fs(BOOT_TREE.files["drivers/dev.c"], "drivers/dev.c")
    post = compile_fs(BOOT_TREE.files["drivers/dev.c"].replace(
        "= 7", "= 8"), "drivers/dev.c")
    _findings, evidence = analyze_init_only_writers(
        graph, {"drivers/dev.c": diff_objects(pre, post)},
        {"drivers/dev.c": pre}, {"drivers/dev.c": post})
    [ev] = evidence
    assert ev.facts["data_symbols"] == ["dev_table"]
    assert ev.facts["boot_only"] is True
    assert any("references persistent data dev_table" in site
               for site in ev.sites)
    # a boot-only function touching no persistent data yields no witness
    quiet_pre = compile_fs("int boot_setup(void) { return 0; }",
                           "drivers/dev.c")
    quiet_post = compile_fs("int boot_setup(void) { return 1; }",
                            "drivers/dev.c")
    assert analyze_init_only_writers(
        graph, {"drivers/dev.c": diff_objects(quiet_pre, quiet_post)},
        {"drivers/dev.c": quiet_pre},
        {"drivers/dev.c": quiet_post}) == ([], [])


# -- engine ----------------------------------------------------------------


def test_run_absint_attaches_proofs_per_changed_function():
    pre = compile_fs(ABI_PRE, "kernel/widget.c")
    post = compile_fs(ABI_PRE.replace("a + 1", "a + 2"),
                      "kernel/widget.c")
    diffs = {"kernel/widget.c": diff_objects(pre, post)}
    findings, evidence = run_absint(diffs, {"kernel/widget.c": pre},
                                    {"kernel/widget.c": post}, None)
    assert findings == []
    kinds = sorted(e.kind for e in evidence)
    assert kinds == [EVIDENCE_ABI, EVIDENCE_EQUIVALENCE]
    assert all(e.symbol == "widget_get" for e in evidence)


# -- analyzer-version cache invalidation -----------------------------------


def test_analyzer_version_bump_invalidates_cached_verdicts(monkeypatch):
    from repro.analysis import model as analysis_model
    from repro.evaluation.analyze import analyze_corpus_cve

    first = analyze_corpus_cve("CVE-2006-2451")
    assert analyze_corpus_cve("CVE-2006-2451") is first  # warm hit

    monkeypatch.setattr(analysis_model, "ANALYZER_VERSION", "test-bump")
    fresh = analyze_corpus_cve("CVE-2006-2451")
    assert fresh is not first  # the bump made the old entry unreachable
    assert analyze_corpus_cve("CVE-2006-2451") is fresh

    monkeypatch.undo()
    assert analyze_corpus_cve("CVE-2006-2451") is first
