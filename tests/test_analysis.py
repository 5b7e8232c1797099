"""Tests for the static patch-safety analyzer (repro.analysis)."""

import json

from repro.analysis import (
    VERDICT_EXIT_CODES,
    VERDICT_NEEDS_HOOKS,
    VERDICT_NEEDS_SHADOW,
    VERDICT_QUIESCE_RISK,
    VERDICT_REJECT,
    VERDICT_SAFE,
    AnalysisReport,
    Finding,
    build_call_graph,
)
from repro.analysis.absint import run_absint
from repro.analysis.datalayout import (
    analyze_data_layout,
    analyze_init_only_writers,
)
from repro.analysis.lint import lint_pack
from repro.analysis.model import worst_verdict
from repro.analysis.quiescence import analyze_quiescence
from repro.compiler import CompilerOptions
from repro.core import UnitUpdate, UpdatePack, diff_objects, ksplice_create
from repro.core.create import CreateReport
from repro.core.objdiff import UnitDiff
from repro.kbuild import SourceTree, build_tree, build_units
from repro.objfile import (
    ObjectFile,
    Relocation,
    RelocationType,
    Section,
    SectionKind,
    Symbol,
)
from repro.patch import make_patch

FLAVOR = CompilerOptions().pre_post_flavor()

# A four-unit kernel exercising every call-graph feature: a syscall
# table data reference, a cross-unit sleep chain, and a boot-only
# initialization path.
GRAPH_TREE = SourceTree(version="graph-test", files={
    "arch/entry.s": """
.global syscall_entry
syscall_entry:
    ret
.section .data
sys_call_table:
    .word sys_counter
""",
    "kernel/sched.c": """
int jiffies;

int schedule(void) {
    jiffies++;
    __sched();
    return 0;
}
""",
    "kernel/sys.c": """
int schedule(void);
int boot_setup(void);

int counter;

int helper_wait(int n) {
    schedule();
    return n;
}

int sys_counter(int a, int b, int c) {
    counter++;
    return helper_wait(a);
}

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

int pure_math(int x) {
    return x * 3;
}
""",
})


def graph_for(tree=GRAPH_TREE):
    # opt_level=0 keeps every call an explicit relocation (no inlining)
    return build_call_graph(build_tree(tree, CompilerOptions(opt_level=0)))


def compile_one(source, name="u.c"):
    return build_units(SourceTree(version="t", files={name: source}),
                       [name], FLAVOR).object_for(name)


def unit_analysis_inputs(pre_src, post_src, name="u.c"):
    pre = compile_one(pre_src, name)
    post = compile_one(post_src, name)
    diff = diff_objects(pre, post)
    return {name: diff}, {name: pre}, {name: post}


# -- call graph ------------------------------------------------------------


def test_call_edges_attributed_by_function_extent():
    """The run build merges each unit into one text section; edges must
    land on the function whose extent contains the call site."""
    graph = graph_for()
    sys_counter = ("kernel/sys.c", "sys_counter")
    helper_wait = ("kernel/sys.c", "helper_wait")
    schedule = ("kernel/sched.c", "schedule")
    assert helper_wait in graph.calls[sys_counter]
    assert schedule in graph.calls[helper_wait]
    assert schedule not in graph.calls.get(sys_counter, set())
    assert sys_counter in graph.callers[helper_wait]
    assert helper_wait in graph.callers[schedule]


def test_data_references_kept_apart_from_call_edges():
    """The syscall table's .word entry makes sys_counter reachable but
    is not a stack-visible call edge."""
    graph = graph_for()
    sys_counter = ("kernel/sys.c", "sys_counter")
    assert sys_counter in graph.data_referenced
    assert "arch/entry.s:.data" in graph.data_ref_sites[sys_counter]
    assert sys_counter not in graph.callers
    refs = graph.references_of(sys_counter)
    assert "arch/entry.s:.data" in refs


def test_sleep_points_and_shortest_sleep_path():
    graph = graph_for()
    schedule = ("kernel/sched.c", "schedule")
    assert schedule in graph.sleep_points
    assert graph.sleep_path(schedule) == [schedule]
    path = graph.sleep_path(("kernel/sys.c", "sys_counter"))
    assert path == [("kernel/sys.c", "sys_counter"),
                    ("kernel/sys.c", "helper_wait"), schedule]
    assert graph.sleep_path(("drivers/dev.c", "pure_math")) is None


def test_caller_closure_excludes_roots():
    graph = graph_for()
    closure = graph.caller_closure([("kernel/sched.c", "schedule")])
    assert ("kernel/sys.c", "helper_wait") in closure
    assert ("kernel/sys.c", "sys_counter") in closure
    assert ("kernel/sched.c", "schedule") not in closure


def test_is_init_only_classification():
    graph = graph_for()
    # boot_setup: only caller chain is kernel_init -> boot_setup
    assert graph.is_init_only(("drivers/dev.c", "boot_setup"))
    # sys_counter: address-taken by the syscall table
    assert not graph.is_init_only(("kernel/sys.c", "sys_counter"))
    # pure_math: no callers at all (dead, not init-only)
    assert not graph.is_init_only(("drivers/dev.c", "pure_math"))
    # schedule: reachable from the data-referenced syscall path
    assert not graph.is_init_only(("kernel/sched.c", "schedule"))


def test_inline_hosts_recorded_from_compiler_metadata():
    """At -O2 a static callee is inlined; the host counts as a caller
    even though no relocation survives."""
    tree = SourceTree(version="inline-test", files={"kernel/a.c": """
static int check(int x) { return x > 0; }

int outer(int x) {
    if (!check(x)) { return -1; }
    return x;
}
"""})
    graph = build_call_graph(build_tree(tree, CompilerOptions(opt_level=2)))
    hosts = graph.inline_hosts.get(("kernel/a.c", "check"), set())
    assert ("kernel/a.c", "outer") in hosts


# -- quiescence ------------------------------------------------------------


def test_quiescence_flags_transitive_sleep_chain():
    graph = graph_for()
    diffs = {"kernel/sys.c": UnitDiff(unit="kernel/sys.c",
                                      changed_functions=["sys_counter"])}
    findings, _evidence = analyze_quiescence(graph, diffs, {})
    assert len(findings) == 1
    finding = findings[0]
    assert finding.verdict == VERDICT_QUIESCE_RISK
    assert finding.symbol == "sys_counter"
    assert "sys_counter -> helper_wait -> schedule" in finding.detail
    assert "5" in finding.detail


def test_quiescence_quiet_for_non_sleeping_function():
    graph = graph_for()
    diffs = {"drivers/dev.c": UnitDiff(unit="drivers/dev.c",
                                       changed_functions=["pure_math"])}
    assert analyze_quiescence(graph, diffs, {}) == ([], [])


def test_quiescence_degrades_to_own_text_scan_without_run_build():
    pre = compile_one(GRAPH_TREE.files["kernel/sched.c"], "kernel/sched.c")
    diffs = {"kernel/sched.c": UnitDiff(unit="kernel/sched.c",
                                        changed_functions=["schedule"])}
    findings, _evidence = analyze_quiescence(None, diffs,
                                             {"kernel/sched.c": pre})
    assert [f.symbol for f in findings] == ["schedule"]
    assert "sleep instruction" in findings[0].detail
    # and a non-sleeping function stays quiet in degraded mode too
    pre2 = compile_one(GRAPH_TREE.files["drivers/dev.c"], "drivers/dev.c")
    diffs2 = {"drivers/dev.c": UnitDiff(unit="drivers/dev.c",
                                        changed_functions=["pure_math"])}
    assert analyze_quiescence(None, diffs2,
                              {"drivers/dev.c": pre2}) == ([], [])


# -- data layout -----------------------------------------------------------

DATA_BASE = """
int counter = 5;
int buf[2];

int bump(int x) {
    buf[0] = x;
    return counter + x;
}
"""


def test_changed_initializer_needs_hooks():
    post = DATA_BASE.replace("int counter = 5;", "int counter = 6;")
    findings, _evidence = analyze_data_layout(
        *unit_analysis_inputs(DATA_BASE, post))
    hooks = [f for f in findings if f.verdict == VERDICT_NEEDS_HOOKS]
    assert [f.symbol for f in hooks] == ["counter"]
    assert "initializer changed" in hooks[0].detail


# ``publish`` stores a pointer into ``buf``: the array escapes
ESCAPING_BASE = DATA_BASE + """
int holder;

int publish(int x) {
    holder = buf;
    return x;
}
"""


def test_resized_data_needs_shadow():
    post = ESCAPING_BASE.replace("int buf[2];", "int buf[4];")
    findings, _evidence = run_absint(
        *unit_analysis_inputs(ESCAPING_BASE, post), None)
    shadow = [f for f in findings if f.verdict == VERDICT_NEEDS_SHADOW]
    assert [f.symbol for f in shadow] == ["buf"]
    assert "8 -> 16 bytes" in shadow[0].detail


def test_resized_data_nothing_escapes_is_a_safe_note():
    """``bump`` only indexes ``buf``: no pointer into it survives, so
    the resize is reported as an informational note."""
    post = DATA_BASE.replace("int buf[2];", "int buf[4];")
    findings, evidence = run_absint(
        *unit_analysis_inputs(DATA_BASE, post), None)
    assert [(f.analysis, f.verdict, f.symbol) for f in findings] == [
        ("absint-escape", VERDICT_SAFE, "buf")]
    assert "resized" in findings[0].detail
    escape = [e for e in evidence if e.kind == "escape"]
    assert escape[0].facts["anything_escapes"] is False


def test_shadow_api_adoption_needs_shadow():
    post = DATA_BASE.replace(
        "int bump(int x) {",
        "int ksplice_shadow_get(int obj, int key);\n"
        "int bump(int x) {\n    if (ksplice_shadow_get(x, 1) < 0) "
        "{ return -1; }")
    findings, _evidence = analyze_data_layout(
        *unit_analysis_inputs(DATA_BASE, post))
    shadow = [f for f in findings if f.verdict == VERDICT_NEEDS_SHADOW]
    assert [f.symbol for f in shadow] == ["ksplice_shadow_get"]


def test_hooks_reported_as_informational():
    post = DATA_BASE.replace("int counter = 5;", "int counter = 6;") + """
int fixup(void) { return 0; }
__ksplice_apply__(fixup);
"""
    findings, _evidence = analyze_data_layout(
        *unit_analysis_inputs(DATA_BASE, post))
    notes = [f for f in findings if f.verdict == VERDICT_SAFE]
    assert len(notes) == 1
    assert ".ksplice_apply" in notes[0].detail
    assert not notes[0].detail.startswith("hook-only")


def test_hook_only_unit_labelled():
    post = DATA_BASE + """
int fixup(void) { return 0; }
__ksplice_apply__(fixup);
"""
    diffs, pres, posts = unit_analysis_inputs(DATA_BASE, post)
    # fixup itself is new code; strip it so only the hook table remains
    diffs["u.c"].new_functions = []
    findings, _evidence = analyze_data_layout(diffs, pres, posts)
    notes = [f for f in findings if f.verdict == VERDICT_SAFE]
    assert notes and notes[0].detail.startswith("hook-only unit")


def test_init_only_writer_needs_hooks():
    """The Table-1 shape: a changed function fills persistent data but
    only ever runs during boot."""
    graph = graph_for()
    pre_src = GRAPH_TREE.files["drivers/dev.c"]
    post_src = pre_src.replace("dev_table[0] = 7;", "dev_table[0] = 8;")
    pre = compile_one(pre_src, "drivers/dev.c")
    post = compile_one(post_src, "drivers/dev.c")
    diffs = {"drivers/dev.c": diff_objects(pre, post)}
    assert diffs["drivers/dev.c"].changed_functions == ["boot_setup"]
    findings, _evidence = analyze_init_only_writers(
        graph, diffs, {"drivers/dev.c": pre}, {"drivers/dev.c": post})
    assert len(findings) == 1
    assert findings[0].verdict == VERDICT_NEEDS_HOOKS
    assert findings[0].symbol == "boot_setup"
    assert "dev_table" in findings[0].detail
    assert "boot path" in findings[0].detail


def test_init_only_writer_quiet_for_syscall_reachable_function():
    graph = graph_for()
    pre_src = GRAPH_TREE.files["kernel/sys.c"]
    post_src = pre_src.replace("counter++;", "counter = counter + 2;")
    pre = compile_one(pre_src, "kernel/sys.c")
    post = compile_one(post_src, "kernel/sys.c")
    diffs = {"kernel/sys.c": diff_objects(pre, post)}
    assert "sys_counter" in diffs["kernel/sys.c"].changed_functions
    assert analyze_init_only_writers(graph, diffs, {"kernel/sys.c": pre},
                                     {"kernel/sys.c": post}) == ([], [])


# -- lint ------------------------------------------------------------------


def simple_pack(tree_files=None):
    tree = SourceTree(version="lint-test", files=tree_files or {
        "kernel/ping.c": """
int ping_count;

int sys_ping(int a, int b, int c) {
    ping_count++;
    return 41;
}
"""})
    post = {unit: src.replace("return 41;", "return 42;")
            for unit, src in tree.files.items()}
    return ksplice_create(tree, make_patch(tree.files, post))


def test_lint_clean_pack_has_no_findings():
    assert lint_pack(simple_pack()) == []


def test_lint_rejects_unsupported_relocation():
    primary = ObjectFile(name="u.c")
    primary.add_section(Section(name=".text.f", kind=SectionKind.TEXT,
                                data=b"\x00" * 8,
                                relocations=[Relocation(
                                    offset=0, symbol="x",
                                    type="got32")]))  # type: ignore[arg-type]
    pack = UpdatePack(update_id="ksplice-badrel", kernel_version="t")
    pack.units.append(UnitUpdate(unit="u.c", helper=ObjectFile(name="u.c"),
                                 primary=primary))
    findings = lint_pack(pack)
    assert [f.verdict for f in findings] == [VERDICT_REJECT]
    assert "unsupported relocation" in findings[0].detail


def test_lint_rejects_function_smaller_than_jump():
    pack = simple_pack()
    pack.units[0].helper.symbol("sys_ping").size = 3
    findings = lint_pack(pack)
    assert [f.verdict for f in findings] == [VERDICT_REJECT]
    assert "3 bytes" in findings[0].detail
    assert "5-byte redirection jump" in findings[0].detail


def test_lint_rejects_undecodable_pre_text():
    pack = simple_pack()
    helper = pack.units[0].helper
    helper.symbol("sys_ping").size = 0  # disarm the jump-size check
    helper.sections[".text.sys_ping"].data = b"\xff\xff\xff\xff"
    findings = lint_pack(pack)
    assert [f.verdict for f in findings] == [VERDICT_REJECT]
    assert "does not disassemble" in findings[0].detail


def test_lint_unresolvable_and_ambiguous_symbols():
    run_build = build_tree(SourceTree(version="run", files={
        "fs/a.c": "static int dup_fn(int x) { return x + 1; }\n"
                  "int a_entry(int x) { return dup_fn(x); }\n",
        "fs/b.c": "static int dup_fn(int x) { return x * 9; }\n"
                  "int b_entry(int x) { return dup_fn(x); }\n",
    }), CompilerOptions(opt_level=0))
    primary = ObjectFile(name="u.c")
    primary.add_symbol(Symbol(name="ghost_fn", section=None))
    primary.add_symbol(Symbol(name="dup_fn", section=None))
    pack = UpdatePack(update_id="ksplice-unres", kernel_version="t")
    pack.units.append(UnitUpdate(unit="u.c", helper=ObjectFile(name="u.c"),
                                 primary=primary))

    # without the run build the kallsyms checks cannot run
    assert lint_pack(pack) == []

    findings = lint_pack(pack, build_call_graph(run_build))
    by_symbol = {f.symbol: f for f in findings}
    assert by_symbol["ghost_fn"].verdict == VERDICT_REJECT
    assert "unresolvable" in by_symbol["ghost_fn"].detail
    assert by_symbol["dup_fn"].verdict == VERDICT_REJECT
    assert "ambiguous symbol: 2 definitions" in by_symbol["dup_fn"].detail


def test_lint_notes_runpre_disambiguation():
    """An ambiguous name the pre unit references is solvable: run-pre
    matching pins it down, so the lint note is informational only."""
    run_build = build_tree(SourceTree(version="run", files={
        "fs/a.c": "int shared_state;\n"
                  "int a_entry(int x) { shared_state = x; return x; }\n",
        "fs/b.c": "static int shared_state;\n"
                  "int b_entry(int x) { shared_state = x; return x; }\n",
    }), CompilerOptions(opt_level=0))
    helper = ObjectFile(name="u.c")
    helper.add_section(Section(name=".data.k", kind=SectionKind.DATA,
                               data=b"\x00" * 4,
                               relocations=[Relocation(
                                   offset=0, symbol="shared_state",
                                   type=RelocationType.ABS32)]))
    helper.add_symbol(Symbol(name="shared_state", section=None))
    primary = helper.copy()
    pack = UpdatePack(update_id="ksplice-amb", kernel_version="t")
    pack.units.append(UnitUpdate(unit="u.c", helper=helper, primary=primary))
    findings = lint_pack(pack, build_call_graph(run_build))
    assert [f.verdict for f in findings] == [VERDICT_SAFE]
    assert "run-pre matching disambiguates" in findings[0].detail


# -- model / report --------------------------------------------------------


def test_worst_verdict_and_exit_codes():
    assert worst_verdict([]) == VERDICT_SAFE
    assert worst_verdict([VERDICT_SAFE, VERDICT_QUIESCE_RISK]) == \
        VERDICT_QUIESCE_RISK
    assert worst_verdict([VERDICT_NEEDS_SHADOW, VERDICT_NEEDS_HOOKS]) == \
        VERDICT_NEEDS_HOOKS
    assert worst_verdict([VERDICT_NEEDS_HOOKS, VERDICT_REJECT]) == \
        VERDICT_REJECT
    assert VERDICT_EXIT_CODES[VERDICT_SAFE] == 0
    assert VERDICT_EXIT_CODES[VERDICT_NEEDS_HOOKS] == 2
    assert VERDICT_EXIT_CODES[VERDICT_NEEDS_SHADOW] == 2
    assert VERDICT_EXIT_CODES[VERDICT_QUIESCE_RISK] == 2
    assert VERDICT_EXIT_CODES[VERDICT_REJECT] == 3


def test_report_verdict_tracks_worst_finding():
    report = AnalysisReport()
    assert report.verdict == VERDICT_SAFE and report.exit_code() == 0
    report.add(Finding(analysis="quiescence", verdict=VERDICT_QUIESCE_RISK,
                       detail="zzz"))
    assert report.verdict == VERDICT_QUIESCE_RISK and report.exit_code() == 2
    report.add(Finding(analysis="lint", verdict=VERDICT_REJECT, detail="no"))
    assert report.verdict == VERDICT_REJECT and report.exit_code() == 3
    # sorted_findings puts the most severe first regardless of insertion
    assert [f.verdict for f in report.sorted_findings()] == \
        [VERDICT_REJECT, VERDICT_QUIESCE_RISK]


def test_report_json_is_deterministic():
    def build(order):
        report = AnalysisReport(hooks_present=True, run_build_analyzed=True)
        for unit, fn in order:
            report.patched_functions.setdefault(unit, []).append(fn)
            report.add(Finding(analysis="lint", verdict=VERDICT_SAFE,
                               unit=unit, symbol=fn, detail="note"))
        report.references = {"b.c:g": ["z.c:q", "a.c:p"]}
        report.caller_closure = ["z.c:q", "a.c:p"]
        return json.dumps(report.to_json_dict(), sort_keys=True)

    forward = build([("a.c", "f"), ("b.c", "g")])
    backward = build([("b.c", "g"), ("a.c", "f")])
    assert forward == backward
    data = json.loads(forward)
    assert data["caller_closure"] == ["a.c:p", "z.c:q"]
    assert data["references"]["b.c:g"] == ["a.c:p", "z.c:q"]


# -- create-stage integration ----------------------------------------------


def test_create_attaches_analysis_report():
    tree = SourceTree(version="int-test", files={
        "kernel/sched.c": GRAPH_TREE.files["kernel/sched.c"]})
    post = {"kernel/sched.c": tree.files["kernel/sched.c"].replace(
        "jiffies++;", "jiffies = jiffies + 1;")}
    report = CreateReport()
    ksplice_create(tree, make_patch(tree.files, post), report=report,
                   run_build=build_tree(tree))
    analysis = report.analysis
    assert analysis is not None
    assert analysis.run_build_analyzed
    assert analysis.patched_functions == {"kernel/sched.c": ["schedule"]}
    assert analysis.verdict == VERDICT_QUIESCE_RISK
    assert analysis.findings_for(VERDICT_QUIESCE_RISK)[0].symbol == \
        "schedule"


def test_create_analysis_degrades_without_run_build():
    tree = SourceTree(version="int-test", files={
        "kernel/sched.c": GRAPH_TREE.files["kernel/sched.c"]})
    post = {"kernel/sched.c": tree.files["kernel/sched.c"].replace(
        "jiffies++;", "jiffies = jiffies + 1;")}
    report = CreateReport()
    ksplice_create(tree, make_patch(tree.files, post), report=report)
    assert report.analysis is not None
    assert not report.analysis.run_build_analyzed
    # schedule's own text sleeps, so even the degraded scan flags it
    assert report.analysis.verdict == VERDICT_QUIESCE_RISK
