"""Tracing-JIT lifecycle vs live patching.

The JIT may only ever be an invisible accelerator: traces compiled
from hot k86 regions must produce bit-identical architectural results,
and any write that lands on decoded code — a Ksplice apply or undo at
stop_machine, or plain self-modifying stores — must evict every
overlapping trace before the new bytes can matter.
"""

import gc
import hashlib
import sys
import threading
import weakref
from collections import OrderedDict

import pytest

import repro.kernel.cpu as cpu
from repro.arch.isa import instruction_length
from repro.core import KspliceCore, ksplice_create
from repro.evaluation import corpus_by_id
from repro.evaluation.engine import (
    evaluate_corpus,
    normalize_result,
    run_build_for,
)
from repro.evaluation.kernels import kernel_for_version
from repro.evaluation.stress import load_sustained_workload
from repro.fleet.orchestrator import Fleet
from repro.kernel import boot_kernel, jit, set_jit_enabled
from repro.scenarios import GeneratedCorpus

CVE = "CVE-2006-2451"

_HOT_LOOP = """
int main(void) {
    int acc = 7;
    for (int round = 0; round < 300; round++) {
        for (int i = 1; i < 20; i++) {
            acc = (acc * 31 + i) & 65535;
            acc = acc ^ (acc >> 3);
        }
    }
    return acc;
}
"""

_PRCTL_HAMMER = """
int main(void) {
    int denials = 0;
    for (int i = 0; i < 80; i++) {
        if (__syscall(%d, 4, 2, 0) != 0) { denials++; }
    }
    return denials;
}
"""


@pytest.fixture(autouse=True)
def _cold_trace_library():
    """The trace library lives for the whole process: start every test
    with it empty, so each test's machines record their own traces."""
    jit.clear_code_cache()


def _boot(kernel):
    return boot_kernel(kernel.tree, quantum=50)


def _hammer_source(kernel):
    return _PRCTL_HAMMER % kernel.syscall_numbers["sys_prctl"]


def test_hot_loop_traces_and_stays_architecturally_identical():
    kernel = kernel_for_version("2.6.16-deb3")

    prev = set_jit_enabled(False)
    try:
        machine = _boot(kernel)
        interp_exit = machine.run_user_program(_HOT_LOOP, name="i")
        interp_insns = machine.scheduler.total_instructions
    finally:
        set_jit_enabled(prev)

    prev = set_jit_enabled(True)
    try:
        machine = _boot(kernel)
        jit_exit = machine.run_user_program(_HOT_LOOP, name="j")
        jit_insns = machine.scheduler.total_instructions
        stats = machine.trace_stats()
    finally:
        set_jit_enabled(prev)

    assert jit_exit == interp_exit
    assert jit_insns == interp_insns
    assert stats["traces_compiled"] > 0
    assert stats["trace_hits"] > 0
    # perf smoke (deterministic counters, not wall clock): the hot
    # loop must spend the bulk of its instructions inside traces
    assert stats["traced_insns"] > stats["interpreted_insns"]


def test_apply_at_stop_machine_evicts_overlapping_traces():
    spec = corpus_by_id(CVE)
    kernel = kernel_for_version(spec.kernel_version)
    prev = set_jit_enabled(True)
    try:
        machine = _boot(kernel)
        core = KspliceCore(machine)

        # Heat the syscall path until the prctl handler is traced.
        denials = machine.run_user_program(_hammer_source(kernel),
                                           name="warm")
        assert denials == 0  # unpatched kernel accepts dumpable=2
        before = machine.trace_stats()
        assert before["traces_compiled"] > 0

        pack = ksplice_create(kernel.tree, kernel.patch_for(spec.cve_id))
        core.apply(pack)
        after = machine.trace_stats()
        assert after["traces_evicted"] > before["traces_evicted"], (
            "patching sys_prctl must evict the traces that inlined it")

        # The patched path is what actually runs now.
        denials = machine.run_user_program(_hammer_source(kernel),
                                           name="patched")
        assert denials == 80
        # Undo the warm-up's lingering dumpable=2 (set while the
        # kernel was still unpatched), then prove the exploit is dead.
        assert machine.call_function("sys_prctl", [4, 0, 0]) == 0
        assert machine.run_user_program(
            kernel.exploit_source(spec), name="x") == 1000
    finally:
        set_jit_enabled(prev)


def test_undo_at_stop_machine_evicts_reheated_traces():
    spec = corpus_by_id(CVE)
    kernel = kernel_for_version(spec.kernel_version)
    prev = set_jit_enabled(True)
    try:
        machine = _boot(kernel)
        core = KspliceCore(machine)
        pack = ksplice_create(kernel.tree, kernel.patch_for(spec.cve_id))
        core.apply(pack)

        # Re-heat on the patched code, then undo: the traces compiled
        # from the *patched* bytes must die with the undo.
        assert machine.run_user_program(_hammer_source(kernel),
                                        name="hot") == 80
        before = machine.trace_stats()["traces_evicted"]
        core.undo(pack.update_id)
        assert machine.trace_stats()["traces_evicted"] > before

        # And the pre-patch semantics are back.
        assert machine.run_user_program(_hammer_source(kernel),
                                        name="old") == 0
    finally:
        set_jit_enabled(prev)


def test_plain_code_store_evicts_traces():
    """A store into decoded kernel text — no stop_machine involved —
    must still evict overlapping traces, even when it writes back the
    very same bytes."""
    spec = corpus_by_id(CVE)
    kernel = kernel_for_version(spec.kernel_version)
    prev = set_jit_enabled(True)
    try:
        machine = _boot(kernel)
        assert machine.run_user_program(_hammer_source(kernel),
                                        name="warm") == 0
        before = machine.trace_stats()["traces_evicted"]
        addr = machine.symbol("sys_prctl")
        machine.memory.write_u32(addr, machine.memory.read_u32(addr))
        assert machine.trace_stats()["traces_evicted"] > before
        # Still correct afterwards (traces recompile on demand).
        assert machine.run_user_program(_hammer_source(kernel),
                                        name="again") == 0
    finally:
        set_jit_enabled(prev)


def test_health_report_carries_trace_counters():
    kernel = kernel_for_version("2.6.16-deb3")
    prev = set_jit_enabled(True)
    try:
        machine = _boot(kernel)
        machine.run_user_program(_HOT_LOOP, name="hot")
        stats = machine.trace_stats()
        health = machine.health().to_json_dict()
    finally:
        set_jit_enabled(prev)
    assert health["traced_insns"] == stats["traced_insns"]
    assert health["trace_hits"] == stats["trace_hits"]
    assert health["traces_evicted"] == stats["traces_evicted"]
    assert health["traces_compiled"] == stats["traces_compiled"]
    assert health["traces_adopted"] == stats["traces_adopted"]

    # A second machine of the same kernel adopts the first one's traces.
    prev = set_jit_enabled(True)
    try:
        machine = _boot(kernel)
        machine.run_user_program(_HOT_LOOP, name="hot")
        stats = machine.trace_stats()
        health = machine.health().to_json_dict()
    finally:
        set_jit_enabled(prev)
    assert stats["traces_adopted"] > 0
    assert health["traces_adopted"] == stats["traces_adopted"]
    assert health["traces_compiled"] == stats["traces_compiled"]


def test_op_cache_lru_stays_bounded_and_correct():
    """Regression: the process-global decoded-op cache must stay under
    its cap via LRU eviction, and eviction must never affect results
    (evicted entries are simply re-decoded)."""
    saved_cache = cpu._OP_CACHE
    saved_max = cpu._OP_CACHE_MAX
    kernel = kernel_for_version("2.6.16-deb3")
    try:
        cpu._OP_CACHE = OrderedDict()
        cpu._OP_CACHE_MAX = 64  # far below a kernel's working set
        machine = _boot(kernel)
        exit_value = machine.run_user_program(_HOT_LOOP, name="tiny")
        assert len(cpu._OP_CACHE) <= 64
    finally:
        cpu._OP_CACHE = saved_cache
        cpu._OP_CACHE_MAX = saved_max

    machine = _boot(kernel)
    assert machine.run_user_program(_HOT_LOOP, name="ref") == exit_value


# -- the trace library: adoption across machines ----------------------------


def _digest(machine):
    """Final memory image, trailing zeros stripped per segment (the JIT
    materializes reserved areas it touches; lazy zero-fill reaches the
    same bytes either way)."""
    return tuple(
        (segment.name,
         hashlib.sha256(bytes(segment.data).rstrip(b"\0")).hexdigest())
        for segment in machine.memory._segments)


def _arch(machine, threads):
    """Everything architecturally observable about a finished run."""
    return (tuple(thread.exit_value for thread in threads),
            machine.scheduler.total_instructions,
            tuple((tuple(t.cpu.regs), t.cpu.ip)
                  for t in machine.scheduler.threads),
            _digest(machine))


def _run_program(machine, source):
    thread = machine.load_user_program(source, name="prog")
    machine.run_thread(thread, 1_000_000)
    return [thread]


def _run_sustained(machine):
    threads = load_sustained_workload(machine)
    machine.run(120_000)
    return threads


@pytest.mark.parametrize("workload", ["hot-loop", "hammer", "sustained"])
def test_adopted_traces_are_architecturally_invisible(workload):
    """Interpreter, JIT with a cold library, and JIT on a second machine
    of the same build that adopts the first one's traces all end in
    the same architectural state."""
    spec = corpus_by_id(CVE)
    kernel = kernel_for_version(spec.kernel_version)
    build = run_build_for(kernel)

    def run(jit_on):
        prev = set_jit_enabled(jit_on)
        try:
            machine = boot_kernel(kernel.tree, build=build, quantum=50)
            if workload == "hot-loop":
                threads = _run_program(machine, _HOT_LOOP)
            elif workload == "hammer":
                threads = _run_program(machine, _hammer_source(kernel))
            else:
                threads = _run_sustained(machine)
            return _arch(machine, threads), machine.trace_stats()
        finally:
            set_jit_enabled(prev)

    cold, cold_stats = run(True)
    warm, warm_stats = run(True)
    interp, interp_stats = run(False)  # the library is warm by now
    assert cold == interp
    assert warm == interp
    assert cold_stats["traces_compiled"] > 0
    assert warm_stats["traces_adopted"] > 0
    assert warm_stats["traces_compiled"] < cold_stats["traces_compiled"]
    # the pure interpreter adopts nothing
    assert interp_stats["traces_adopted"] == 0
    assert interp_stats["traced_insns"] == 0


def _patched_machine(kernel, spec):
    machine = _boot(kernel)
    core = KspliceCore(machine)
    core.apply(ksplice_create(kernel.tree, kernel.patch_for(spec.cve_id)))
    return machine


def test_adoption_needs_identical_bytes():
    """A trace recorded over unpatched sys_prctl must not run on a
    machine whose sys_prctl carries the update's jump, and the other
    way round: adoption compares the trace's whole byte range."""
    spec = corpus_by_id(CVE)
    kernel = kernel_for_version(spec.kernel_version)
    prev = set_jit_enabled(True)
    try:
        assert _boot(kernel).run_user_program(
            _hammer_source(kernel), name="warm") == 0
        patched = _patched_machine(kernel, spec)
        assert patched.run_user_program(
            _hammer_source(kernel), name="fixed") == 80
        assert patched.trace_stats()["traces_adopted"] > 0

        jit.clear_code_cache()
        assert _patched_machine(kernel, spec).run_user_program(
            _hammer_source(kernel), name="warm") == 80
        unpatched = _boot(kernel)
        assert unpatched.run_user_program(
            _hammer_source(kernel), name="old") == 0
        assert unpatched.trace_stats()["traces_adopted"] > 0
    finally:
        set_jit_enabled(prev)


def _decoded_words(machine):
    """Words covered by instructions this machine's interpreter
    decoded (its cache only grows while no code is written)."""
    memory = machine.memory
    words = set()
    for ip in memory._decode_cache.entries:
        last = ip + instruction_length(memory.read_u8(ip)) - 1
        words.update(range(ip >> 2, (last >> 2) + 1))
    return words


def test_store_into_adopted_code_evicts_the_trace():
    """An adopted trace's code may never have been decoded here; its
    path's words must still route a store over it to eviction."""
    spec = corpus_by_id(CVE)
    kernel = kernel_for_version(spec.kernel_version)
    prev = set_jit_enabled(True)
    try:
        assert _boot(kernel).run_user_program(
            _hammer_source(kernel), name="warm") == 0
        machine = _boot(kernel)
        assert machine.run_user_program(
            _hammer_source(kernel), name="adopt") == 0
        assert machine.trace_stats()["traces_adopted"] > 0
        decoded = _decoded_words(machine)
        never_decoded = [
            trace for trace in machine.memory._decode_cache.traces.values()
            if trace.entry >> 2 not in decoded]
        assert never_decoded, "no adopted trace outside decoded code"
        trace = never_decoded[0]
        memory = machine.memory
        memory.write_u32(trace.entry, memory.read_u32(trace.entry))
        assert not trace.valid
        assert trace.entry not in machine.memory._decode_cache.traces
        assert machine.run_user_program(
            _hammer_source(kernel), name="again") == 0
    finally:
        set_jit_enabled(prev)


def test_library_holds_no_machine():
    kernel = kernel_for_version("2.6.16-deb3")
    prev = set_jit_enabled(True)
    try:
        machine = _boot(kernel)
        machine.run_user_program(_HOT_LOOP, name="hot")
    finally:
        set_jit_enabled(prev)
    assert machine.trace_stats()["traces_compiled"] > 0
    assert jit._LIBRARY_ORDER
    for template in jit._LIBRARY_ORDER:
        assert isinstance(template, jit.TraceTemplate)
        assert template in jit._LIBRARY[template.entry]
        assert isinstance(template.raw, bytes)
        assert isinstance(template.words, frozenset)
        assert all(isinstance(addr, int) for addr in template.path)
        make = template.make
        assert make.__closure__ is None and make.__defaults__ is None
        assert set(make.__globals__) <= {"_make", "__builtins__"}
    ref = weakref.ref(machine)
    del machine
    gc.collect()
    assert ref() is None


def test_library_drops_the_oldest_templates_first(monkeypatch):
    monkeypatch.setattr(jit, "_LIBRARY_MAX", 4)
    published = [
        jit.TraceTemplate(0x1000 + 4 * (i % 3), 0, 4, b"\0" * 4,
                          frozenset([0]), (0,), None)
        for i in range(7)]
    for template in published:
        jit._publish(template)
    assert list(jit._LIBRARY_ORDER) == published[3:]
    assert jit._LIBRARY == {
        0x1000: (published[3], published[6]),
        0x1004: (published[4],),
        0x1008: (published[5],)}

    # A real workload under a tiny bound stays bounded and exact.
    kernel = kernel_for_version("2.6.16-deb3")
    prev = set_jit_enabled(False)
    try:
        expected = _boot(kernel).run_user_program(_HOT_LOOP, name="i")
    finally:
        set_jit_enabled(prev)
    prev = set_jit_enabled(True)
    try:
        for _ in range(2):
            assert _boot(kernel).run_user_program(
                _HOT_LOOP, name="j") == expected
            assert len(jit._LIBRARY_ORDER) <= 4
    finally:
        set_jit_enabled(prev)


def test_concurrent_machines_share_the_library():
    """Rollouts run on daemon threads: machines publishing and adopting
    at once still end exactly where the interpreter does, and no
    publication is lost from the library's index."""
    kernel = kernel_for_version("2.6.16-deb3")
    build = run_build_for(kernel)

    def run():
        machine = boot_kernel(kernel.tree, build=build, quantum=50)
        threads = _run_sustained(machine)
        return _arch(machine, threads)

    prev = set_jit_enabled(False)
    try:
        expected = run()
    finally:
        set_jit_enabled(prev)
    results = []
    interval = sys.getswitchinterval()
    prev = set_jit_enabled(True)
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=lambda: results.append(run()))
                   for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
        set_jit_enabled(prev)
    assert results == [expected] * 4
    indexed = [t for entry in jit._LIBRARY.values() for t in entry]
    assert sorted(map(id, indexed)) == sorted(map(id, jit._LIBRARY_ORDER))


# -- JIT on/off over generated scenarios -------------------------------------

#: two kernel groups of eight scenarios each
GENERATED_SEED, GENERATED_SIZE = 17, 16


def test_generated_corpus_is_identical_with_and_without_the_jit():
    """The evaluation of a generated corpus — create, apply, the stress
    battery, undo — gives the same results with the JIT off, on with
    an empty trace library, and on with the library the previous pass
    left."""
    specs = GeneratedCorpus.generate(GENERATED_SEED,
                                     GENERATED_SIZE).specs()
    runs = []
    for jit_on in (False, True, True):
        prev = set_jit_enabled(jit_on)
        try:
            report = evaluate_corpus(specs, run_stress=True,
                                     verify_undo=True, jobs=1)
        finally:
            set_jit_enabled(prev)
        runs.append([normalize_result(r) for r in report.results])
    assert runs[0] == runs[1]
    assert runs[0] == runs[2]


def test_generated_fleet_members_adopt_and_match_the_interpreter():
    corpus = GeneratedCorpus.generate(GENERATED_SEED, GENERATED_SIZE)
    kernel = kernel_for_version(corpus.kernel_versions()[0])
    runs = []
    for jit_on in (False, True):
        prev = set_jit_enabled(jit_on)
        try:
            fleet = Fleet.boot(kernel, 3, workload="stress")
            members = []
            for member in fleet.members:
                machine = member.machine
                machine.run(100_000)
                members.append((
                    (machine.scheduler.total_instructions,
                     tuple((tuple(t.cpu.regs), t.cpu.ip)
                           for t in machine.scheduler.threads),
                     _digest(machine)),
                    machine.trace_stats()))
        finally:
            set_jit_enabled(prev)
        runs.append(members)
    interp, jitted = runs
    assert [arch for arch, _ in jitted] == [arch for arch, _ in interp]
    first = jitted[0][1]
    for _, stats in jitted[1:]:
        assert stats["traces_adopted"] > 0
        assert stats["traces_compiled"] < first["traces_compiled"]
