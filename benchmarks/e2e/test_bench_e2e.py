"""Tests for the end-to-end benchmark (``PYTHONPATH=src python -m pytest
benchmarks/e2e``): smoke runs emit exactly the declared metrics, seeds
fix the operation order, and the percentile, self-time and wrapper
rules hold."""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import bench_e2e
import spans
from workloads import WORKLOADS

SCRIPT = os.path.join(bench_e2e.HERE, "bench_e2e.py")


def _run(*args, cwd=bench_e2e.ROOT, script=SCRIPT, env=None):
    return subprocess.run([sys.executable, script] + list(args),
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300, env=env)


# -- smoke runs ---------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_emits_exactly_the_declared_metrics(workload, trace):
    done = _run("--smoke", "--workload", workload, "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = bench_e2e.load_declared()[trace]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared
    if trace:
        path = os.path.join(bench_e2e.OUT, "spans-%s.json" % workload)
        with open(path) as handle:
            assert json.load(handle)["spans"]


def test_benchmark_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no result, and a
    non-zero exit."""
    shutil.copy(os.path.join(bench_e2e.ROOT, "BENCHMARK.json"), tmp_path)
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for name in os.listdir(bench_e2e.HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(bench_e2e.HERE, name), bench)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = _run("--workload", "publish-local", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=str(tmp_path),
                script=str(bench / "bench_e2e.py"), env=env)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# -- seeds fix the operation order --------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_fixes_the_operation_order(workload):
    plan = WORKLOADS[workload]().plan
    assert plan(1) == plan(1)
    assert plan(1) != plan(2)
    assert len(set(plan(1))) == len(plan(1))


def test_a_pass_runs_the_planned_operations(tmp_path):
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path),
               PYTHONPATH=os.path.join(bench_e2e.ROOT, "src"))
    done = _run("--pass", "--smoke", "--workload", "rollout-under-load",
                "--seed", "3", "--passes", "3", "--pass-index", "1",
                env=env)
    assert done.returncode == 0, done.stderr
    ops = json.loads(done.stdout.strip().splitlines()[-1])["ops"]
    workload = WORKLOADS["rollout-under-load"]()
    plan = workload.plan(3)
    start = workload.offset(plan, 1, 3)
    assert ops == plan[start:start + workload.smoke_ops]


def test_pass_offsets_start_evaluate_on_kernel_groups():
    workload = WORKLOADS["evaluate-generated"]()
    plan = list(range(160))
    assert [workload.offset(plan, i, 3) for i in range(3)] == [0, 48, 104]


# -- percentiles --------------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(1, 11))
    assert spans.percentile(values, 50) == 5
    assert spans.percentile(values, 90) == 9
    assert spans.percentile(values, 91) == 10
    assert spans.percentile(values, 100) == 10
    assert spans.percentile([7.5], 90) == 7.5
    assert spans.percentile(list(reversed(values)), 50) == 5


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench_e2e.samples_beyond(100, 90) == 10
    assert bench_e2e.samples_beyond(99, 90) == 9
    assert bench_e2e.tail_percentile(100) == 90
    assert bench_e2e.tail_percentile(99) == 80
    assert bench_e2e.tail_percentile(1000) == 99
    assert bench_e2e.tail_percentile(40) == 75
    assert bench_e2e.tail_percentile(12) == 50


# -- spans --------------------------------------------------------------------


def test_self_time_subtracts_children_on_nested_spans():
    tracer = spans.Tracer()
    tracer.spans = [
        ["fleet.rollout", 0.0, 10.0, None, "op-1"],
        ["core.apply", 1.0, 4.0, 0, "op-1"],
        ["kernel.stop_machine", 2.0, 3.0, 1, "op-1"],
        ["core.apply", 5.0, 7.0, 0, "op-1"],
        ["fleet.rollout", 12.0, 14.0, None, "op-2"],
    ]
    selfs = [round(s, 9) for _n, _d, s, _p in tracer.self_times()]
    assert selfs == [5.0, 2.0, 1.0, 2.0, 2.0]
    table, roots = tracer.layer_table(wall_s=20.0, ops=2)
    assert roots == pytest.approx(12.0 / 20.0)
    assert table["fleet.rollout"]["calls_per_op"] == 1.0
    assert table["fleet.rollout"]["busy_ms_per_op"] == \
        pytest.approx(3500.0)
    assert table["core.apply"]["self_ms.p50"] == pytest.approx(2000.0)
    assert table["kernel.stop_machine"]["share"] == pytest.approx(0.05)
    assert table["core.undo"]["calls_per_op"] == 0


def test_begin_and_end_link_parents_per_thread():
    tracer = spans.Tracer()
    outer = tracer.begin("fleet.rollout")
    inner = tracer.begin("core.apply")
    tracer.end(inner)
    tracer.end(outer)
    assert [s[3] for s in tracer.spans] == [None, outer]


def test_missing_wrapped_attribute_raises(monkeypatch):
    with pytest.raises(spans.SpanInstallError):
        spans.resolve("repro.core.create:no_such_function")
    with pytest.raises(spans.SpanInstallError):
        spans.resolve("repro.core.apply:KspliceCore.no_such_method")

    from repro.core import create
    original = create.ksplice_create
    monkeypatch.setattr(spans, "SPANS", spans.SPANS + (
        ("core.renamed", ("repro.core.create:ksplice_create_v2",)),))
    tracer = spans.Tracer()
    with pytest.raises(spans.SpanInstallError):
        tracer.install()
    assert create.ksplice_create is original


def test_install_patches_every_binding_and_uninstall_restores():
    from repro.core import create
    from repro.core.apply import KspliceCore
    from repro.evaluation import analyze

    original, apply = create.ksplice_create, KspliceCore.apply
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert create.ksplice_create is not original
        assert analyze.ksplice_create is create.ksplice_create
        assert KspliceCore.apply is not apply
    finally:
        tracer.uninstall()
    assert create.ksplice_create is original
    assert analyze.ksplice_create is original
    assert KspliceCore.apply is apply


def test_stop_machine_check_allows_only_the_update_hooks():
    tracer = spans.Tracer()
    parked = types.SimpleNamespace(name="keepalive-0",
                                   instructions_executed=100)
    machine = types.SimpleNamespace(
        scheduler=types.SimpleNamespace(threads=[parked]))

    def run_hook(stop_machine):
        hook = types.SimpleNamespace(name="hook", instructions_executed=0)
        stop_machine.scheduler.threads.append(hook)
        hook.instructions_executed += 652

    def run_parked(stop_machine):
        parked.instructions_executed += 1

    tracer._check_stopped(run_hook)(machine)
    assert tracer.stop_violations == []
    tracer._check_stopped(run_parked)(machine)
    assert tracer.stop_violations == [
        "thread(s) keepalive-0 ran during stop_machine"]
