"""Tests for programmer-assisted updates: custom hook code (§5.3) and
shadow data structures (the Table 1 patches)."""

import pytest

from repro.core import KspliceCore, ksplice_create
from repro.errors import KspliceError
from repro.kbuild import SourceTree
from repro.kernel import boot_kernel
from repro.patch import make_patch

ENTRY_S = """
.global syscall_entry
syscall_entry:
    cmpi r0, 2
    jge bad_sys
    cmpi r0, 0
    jl bad_sys
    push r3
    push r2
    push r1
    movi r4, 4
    mul r0, r4
    lea r4, sys_call_table
    add r4, r0
    loadr r4, r4, 0
    callr r4
    addi sp, 12
    ret
bad_sys:
    movi r0, -38
    ret

.section .data
sys_call_table:
    .word sys_get_limit, sys_use_session
"""

# A kernel whose init function fills a limits table at boot: the classic
# "changes data init" shape from Table 1.
LIMITS_C = """
int limit_table[4];
int sessions_id[8];
int sessions_level[8];
int session_count;

int kernel_init(void) {
    for (int i = 0; i < 4; i++) limit_table[i] = 100;
    session_count = 2;
    sessions_id[0] = 11; sessions_level[0] = 3;
    sessions_id[1] = 22; sessions_level[1] = 5;
    return 0;
}

int sys_get_limit(int idx, int b, int c) {
    if (idx < 0) { return -1; }
    if (idx >= 4) { return -1; }
    return limit_table[idx];
}

int sys_use_session(int idx, int b, int c) {
    if (idx < 0) { return -1; }
    if (idx >= session_count) { return -1; }
    return sessions_level[idx];
}
"""

TREE = SourceTree(version="hooks-test", files={
    "arch/entry.s": ENTRY_S,
    "kernel/limits.c": LIMITS_C,
})


def make_update(new_source, old_source=LIMITS_C, tree=TREE):
    old_files = dict(tree.files)
    old_files["kernel/limits.c"] = old_source
    new_files = dict(old_files)
    new_files["kernel/limits.c"] = new_source
    diff = make_patch(old_files, new_files)
    return ksplice_create(SourceTree(version=tree.version, files=old_files),
                          diff)


def fresh():
    machine = boot_kernel(TREE)
    return machine, KspliceCore(machine)


def test_init_function_change_without_hook_leaves_stale_data():
    """Patching only the init function passes ksplice-create (no data
    image changed) but cannot fix state initialized at boot — the reason
    Table 1 patches need custom code."""
    machine, core = fresh()
    new_source = LIMITS_C.replace("limit_table[i] = 100;",
                                  "limit_table[i] = 10;")
    pack = make_update(new_source)
    core.apply(pack)
    # The running kernel still serves the stale boot-time value.
    assert machine.call_function("sys_get_limit", [0, 0, 0]) == 100


def test_init_function_change_with_apply_hook_fixes_live_data():
    """The programmer's ~17 lines: a transition function run during the
    stop_machine window walks the existing data and updates it."""
    machine, core = fresh()
    new_source = LIMITS_C.replace(
        "limit_table[i] = 100;", "limit_table[i] = 10;") + """
int ksplice_fix_limits(void) {
    for (int i = 0; i < 4; i++) {
        if (limit_table[i] > 10) { limit_table[i] = 10; }
    }
    return 0;
}
__ksplice_apply__(ksplice_fix_limits);
"""
    pack = make_update(new_source)
    assert pack.has_hooks()
    core.apply(pack)
    for idx in range(4):
        assert machine.call_function("sys_get_limit", [idx, 0, 0]) == 10


def test_stop_machine_counts_hook_code_apart_from_stopped_threads():
    """CVE-2005-3179 ships a ``.ksplice_apply`` hook: its instructions
    run inside the stopped window and are counted as hook work, while
    the threads that existed at the stop still run nothing."""
    from repro.evaluation.analyze import create_corpus_cve
    from repro.evaluation.corpus import corpus_by_id
    from repro.evaluation.kernels import kernel_for_version
    from repro.fleet import Fleet

    spec = corpus_by_id("CVE-2005-3179")
    member = Fleet.boot(kernel_for_version(spec.kernel_version),
                        1).members[0]
    member.machine.run(500)  # the keepalive spinner has a live stack
    pack = create_corpus_cve(spec).shippable_pack()
    assert pack.has_hooks()
    report = member.core.apply(pack).stop_report
    assert report.instructions_during_stop == 0
    assert report.hook_instructions > 0


def test_hook_free_update_runs_no_hook_instructions():
    machine, core = fresh()
    pack = make_update(LIMITS_C.replace("return limit_table[idx];",
                                        "return limit_table[idx] + 1;"))
    report = core.apply(pack).stop_report
    assert report.instructions_during_stop == 0
    assert report.hook_instructions == 0


def test_reverse_hook_runs_on_undo():
    machine, core = fresh()
    new_source = LIMITS_C.replace(
        "limit_table[i] = 100;", "limit_table[i] = 10;") + """
int ksplice_fix_limits(void) {
    for (int i = 0; i < 4; i++) limit_table[i] = 10;
    return 0;
}
int ksplice_unfix_limits(void) {
    for (int i = 0; i < 4; i++) limit_table[i] = 100;
    return 0;
}
__ksplice_apply__(ksplice_fix_limits);
__ksplice_reverse__(ksplice_unfix_limits);
"""
    pack = make_update(new_source)
    core.apply(pack)
    assert machine.call_function("sys_get_limit", [1, 0, 0]) == 10
    core.undo(pack.update_id)
    assert machine.call_function("sys_get_limit", [1, 0, 0]) == 100


def test_failing_hook_aborts_and_rolls_back():
    machine, core = fresh()
    new_source = LIMITS_C.replace(
        "return limit_table[idx];",
        "return limit_table[idx] + 1;") + """
int ksplice_bad_hook(void) { return -1; }
__ksplice_apply__(ksplice_bad_hook);
"""
    pack = make_update(new_source)
    with pytest.raises(KspliceError):
        core.apply(pack)
    # The jump was rolled back: old behaviour intact.
    assert machine.call_function("sys_get_limit", [0, 0, 0]) == 100
    assert not core.applied


def test_pre_and_post_apply_hooks_run_outside_stop_window():
    machine, core = fresh()
    new_source = LIMITS_C.replace(
        "return limit_table[idx];",
        "return limit_table[idx] + 0;") + """
int hook_trace;
int ksplice_setup(void) { hook_trace = hook_trace + 1; return 0; }
int ksplice_cleanup(void) { hook_trace = hook_trace + 100; return 0; }
__ksplice_pre_apply__(ksplice_setup);
__ksplice_post_apply__(ksplice_cleanup);
"""
    # Force an object-code change so there is something to ship.
    new_source = new_source.replace("if (idx < 0) { return -1; }",
                                    "if (idx < 0) { return -2; }", 1)
    pack = make_update(new_source)
    applied = core.apply(pack)
    trace_addr = applied.primaries["kernel/limits.c"].symbol_address(
        "hook_trace")
    assert machine.read_u32(trace_addr) == 101


def test_shadow_add_field_update():
    """The CVE-2005-2709 shape: the patch needs a new per-session field.
    Existing instances cannot grow, so the patched code reads the field
    from the shadow table and the apply hook attaches defaults for every
    existing session (DynAMOS's method, §7.1)."""
    machine, core = fresh()
    new_source = LIMITS_C.replace(
        "int sys_use_session(int idx, int b, int c) {\n"
        "    if (idx < 0) { return -1; }\n"
        "    if (idx >= session_count) { return -1; }\n"
        "    return sessions_level[idx];",
        "int ksplice_shadow_get(int obj, int key);\n"
        "int ksplice_shadow_attach(int obj, int key, int val);\n"
        "\n"
        "int sys_use_session(int idx, int b, int c) {\n"
        "    if (idx < 0) { return -1; }\n"
        "    if (idx >= session_count) { return -1; }\n"
        "    if (ksplice_shadow_get(idx, 42)) { return -13; }\n"
        "    return sessions_level[idx];") + """
int ksplice_lockdown_existing(void) {
    for (int i = 0; i < session_count; i++) {
        if (sessions_level[i] >= 5) {
            if (ksplice_shadow_attach(i, 42, 1) < 0) { return -1; }
        }
    }
    return 0;
}
__ksplice_apply__(ksplice_lockdown_existing);
"""
    pack = make_update(new_source)
    core.apply(pack)
    # Session 0 (level 3) unaffected; session 1 (level 5) now locked via
    # its shadow field.
    assert machine.call_function("sys_use_session", [0, 0, 0]) == 3
    assert machine.call_function("sys_use_session", [1, 0, 0]) == \
        (-13) & 0xFFFFFFFF
    assert core.shadow.count == 1
    assert core.shadow.get(1, 42) == 1


def test_shadow_registry_python_api():
    machine, core = fresh()
    shadow = core.shadow
    assert shadow.count == 0
    shadow.attach(0xC0100010, 7, 99)
    assert shadow.has(0xC0100010, 7)
    assert not shadow.has(0xC0100010, 8)
    assert shadow.get(0xC0100010, 7) == 99
    shadow.set(0xC0100010, 7, 100)
    assert shadow.get(0xC0100010, 7) == 100
    shadow.attach(0xC0100020, 7, 1)
    assert shadow.count == 2
    shadow.detach(0xC0100010, 7)
    assert shadow.count == 1
    assert not shadow.has(0xC0100010, 7)
    with pytest.raises(KspliceError):
        shadow.detach(0xC0100010, 7)


def test_shadow_table_capacity_enforced():
    machine, core = fresh()
    from repro.core.shadow import SHADOW_CAPACITY

    for i in range(SHADOW_CAPACITY):
        core.shadow.attach(i, 1, i)
    with pytest.raises(KspliceError):
        core.shadow.attach(SHADOW_CAPACITY + 1, 1, 0)
