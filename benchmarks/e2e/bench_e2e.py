"""End-to-end benchmark: source patch to patched fleet, four workloads.

Usage (from the repository root)::

    python3 benchmarks/e2e/bench_e2e.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1] [--smoke]
    python3 benchmarks/e2e/bench_e2e.py --runs N --out runs.json ...
    python3 benchmarks/e2e/bench_e2e.py --compare A.json B.json
        [--baseline benchmarks/e2e/baseline.json]

A run of one workload is several *passes*, each in a fresh process that
sets up (untimed, reported as ``setup_s``) and then drives a closed
loop for its share of ``--seconds``.  ``--trace 0`` reports the
end-to-end metrics ``BENCHMARK.json`` declares; ``--trace 1`` runs one
untraced and one traced pass over the same operations and reports the
per-layer metrics from spans the benchmark records (``spans.py``).  The
last line of standard output is the run's JSON result.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

from spans import (  # noqa: E402
    SPAN_NAMES,
    Tracer,
    layer_metric_units,
    percentile,
)

#: fresh-process passes per untraced run; setup_s is their median
PASSES = 3

#: the tail percentile reported beside the median
TAIL = 80

#: what :func:`calibrate` takes on the reference host (2 vCPUs, x86_64,
#: Python 3.11, at its quiet speed); every reported time is scaled by
#: REFERENCE_CAL_S / the calibration measured beside it
REFERENCE_CAL_S = 0.002

#: one run must end within this many seconds, passes and set-up included
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.p%d" % TAIL: "s",
    "ops_per_s": "1/s",
}


def samples_beyond(count, p):
    """How many of ``count`` samples lie above the nearest-rank
    ``p``-th percentile."""
    return count - max(1, -(-p * count // 100))


def tail_percentile(count):
    """The highest of p99, p95, p90, p80 and p75 that keeps at least
    ten samples beyond it (the median when none does)."""
    for p in (99, 95, 90, 80, 75):
        if samples_beyond(count, p) >= 10:
            return p
    return 50


def calibrate(rounds=10000):
    """Seconds this host takes right now for a fixed piece of
    interpreter work (about 2 ms): the speed the timings are scaled by.
    The host's speed drifts by tens of percent over minutes; the work
    under test slows with it, this loop does too."""
    start = time.perf_counter()
    table = {}
    total = 0
    for i in range(rounds):
        key = i % 97
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return time.perf_counter() - start


def load_declared():
    """BENCHMARK.json's metric names -> units, per mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        "bounds": {m["name"]: (m["bound"], m["better"])
                   for m in spec["end_to_end"]},
        "workloads": [w["name"] for w in spec["workloads"]],
    }


# -- one pass (runs in its own process) ---------------------------------------


def _cache_counts():
    from repro.evaluation.engine import cache_stats
    return {name: (stats.hits, stats.misses)
            for name, stats in cache_stats().items()}


def _hit_ratio(before, after, name):
    hits = after.get(name, (0, 0))[0] - before.get(name, (0, 0))[0]
    misses = after.get(name, (0, 0))[1] - before.get(name, (0, 0))[1]
    return hits / (hits + misses) if hits + misses else 0.0


def _counters(tracer, ops, wall_s, speed, caches, jit):
    """The per-layer metrics of a traced pass; times in reference ms."""
    table, root_coverage = tracer.layer_table(wall_s, ops)
    metrics = {}
    for name, row in table.items():
        for key, value in row.items():
            if key in ("busy_ms_per_op", "self_ms.p50"):
                value *= speed
            metrics["%s.%s" % (name, key)] = value
    run_s = tracer.run_seconds() * speed
    insns = jit[1]["total_insns"] - jit[0]["total_insns"]
    traced = jit[1]["traced_insns"] - jit[0]["traced_insns"]
    metrics.update({
        "analysis.cache.hit_ratio":
            _hit_ratio(caches[0], caches[1], "analysis"),
        "core.apply.retries_per_op": tracer.apply_retries / ops,
        "compiler.cache.parse.hit_ratio":
            _hit_ratio(caches[0], caches[1], "parse"),
        "compiler.cache.compile.hit_ratio":
            _hit_ratio(caches[0], caches[1], "compile"),
        "compiler.cache.run-build.hit_ratio":
            _hit_ratio(caches[0], caches[1], "run-build"),
        "kernel.run.insns_per_s": tracer.run_insns / run_s if run_s else 0.0,
        "kernel.jit.traced_share": traced / insns if insns else 0.0,
        "kernel.jit.compiled_per_op":
            (jit[1]["compiled"] - jit[0]["compiled"]) / ops,
        "kernel.jit.evicted_per_op":
            (jit[1]["evicted"] - jit[0]["evicted"]) / ops,
        "fleet.waves_per_op": tracer.waves / ops,
        "fleet.rollbacks_per_op": tracer.rollbacks / ops,
        "distributed.frames_per_op": tracer.frames / ops,
        "trace.root_coverage": root_coverage,
    })
    return metrics


def run_pass(args):
    """Set up, drive the closed loop, print the pass's JSON line.

    The host's speed is sampled with :func:`calibrate` when the process
    starts, between set-up steps and after every operation; each
    interval is scaled to the reference speed by the samples on either
    side of it.
    """
    now = time.time()
    cals = [calibrate()]
    setup_s = (now - args.spawned) * REFERENCE_CAL_S / cals[0]

    def speed_since_last_sample():
        cals.append(calibrate())
        return 2 * REFERENCE_CAL_S / (cals[-2] + cals[-1])

    began = time.perf_counter()
    from repro.kernel import TRACE_STATS

    from workloads import WORKLOADS, PassLog

    workload = WORKLOADS[args.workload]()
    try:
        for _step in workload.setup(args.seed,
                                    os.environ["REPRO_CACHE_DIR"]):
            setup_s += (time.perf_counter() - began) * \
                speed_since_last_sample()
            began = time.perf_counter()
        plan = workload.plan_ids
        start = workload.offset(plan, args.pass_index, args.passes)
        tracer = Tracer() if args.traced else None
        if tracer is not None:
            tracer.install()
            caches = [_cache_counts()]
            jit = [TRACE_STATS.snapshot()]
        setup_s += (time.perf_counter() - began) * speed_since_last_sample()

        log = PassLog()
        wall_s = raw_wall_s = 0.0
        loop_start = time.perf_counter()
        while True:
            if args.smoke:
                if len(log.ops) >= workload.smoke_ops:
                    break
            elif log.ops and time.perf_counter() - loop_start >= args.budget:
                break
            op_id = plan[(start + len(log.ops)) % len(plan)]
            if tracer is not None:
                tracer.op = op_id
            first_op, first_read = len(log.op_s), len(log.read_s)
            began = time.perf_counter()
            try:
                workload.run_op(op_id, log)
            except Exception as exc:
                log.fail("%s: %s: %s" % (op_id, type(exc).__name__, exc))
            cycle_s = time.perf_counter() - began
            speed = speed_since_last_sample()
            log.op_s[first_op:] = [s * speed for s in log.op_s[first_op:]]
            log.read_s[first_read:] = [s * speed
                                       for s in log.read_s[first_read:]]
            wall_s += cycle_s * speed
            raw_wall_s += cycle_s
            if tracer is not None and tracer.stop_violations:
                log.fail("%s: %s" % (op_id, tracer.stop_violations[0]))
                tracer.stop_violations.clear()
        speed = REFERENCE_CAL_S / statistics.median(cals)
        layers, missing = None, []
        if tracer is not None:
            tracer.uninstall()
            caches.append(_cache_counts())
            jit.append(TRACE_STATS.snapshot())
            layers = _counters(tracer, len(log.ops), raw_wall_s, speed,
                               caches, jit)
            missing = [name for name in SPAN_NAMES
                       if layers[name + ".calls_per_op"] == 0]
            _write_spans(args, tracer, raw_wall_s)
    finally:
        workload.teardown()
    print(json.dumps({
        "setup_s": setup_s, "speed": speed, "wall_s": wall_s,
        "ops": log.ops, "op_s": log.op_s, "read_s": log.read_s,
        "stop_ms": log.stop_ms, "attempted": log.attempted,
        "failed": log.failed, "failures": log.failures, "layers": layers,
        "never_fired": missing,
    }))


def _write_spans(args, tracer, wall_s):
    os.makedirs(OUT, exist_ok=True)
    doc = {"workload": args.workload, "seed": args.seed,
           "wall_s": wall_s}
    doc.update(tracer.to_json())
    with open(os.path.join(OUT, "spans-%s.json" % args.workload),
              "w") as handle:
        json.dump(doc, handle)


# -- one run (several passes, each a child process) ---------------------------


class PassFailed(Exception):
    pass


def spawn_pass(workload, seed, pass_index, passes, budget, traced, smoke,
               deadline):
    """Run one pass in a fresh process; returns its parsed result.  Its
    ``setup_s`` counts from just before the process starts."""
    workdir = os.path.join(OUT, "work-%s-%d-%d" % (workload, os.getpid(),
                                                    pass_index))
    os.makedirs(os.path.join(workdir, "tmp"), exist_ok=True)
    env = dict(os.environ, REPRO_CACHE_DIR=workdir,
               TMPDIR=os.path.join(workdir, "tmp"),
               PYTHONPATH=os.path.join(ROOT, "src"))
    command = [sys.executable, os.path.abspath(__file__), "--pass",
               "--workload", workload, "--seed", str(seed),
               "--pass-index", str(pass_index), "--passes", str(passes),
               "--budget", repr(budget)]
    command += ["--traced"] if traced else []
    command += ["--smoke"] if smoke else []
    command += ["--spawned", repr(time.time())]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                             cwd=ROOT, start_new_session=True, text=True)
    try:
        out, _ = child.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        # the whole group: the pass and any worker it forked
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise PassFailed("%s pass %d ran past the %.0f s deadline"
                             % (workload, pass_index, RUN_DEADLINE_S))
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise PassFailed("%s pass %d exited %d" % (workload, pass_index,
                                                   child.returncode))
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, smoke=False):
    """One run: the passes, then the run's JSON result."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    if trace:
        # same offset twice: the untraced pass is the overhead baseline
        plan = [(0, 2, False), (0, 2, True)]
    else:
        count = 1 if smoke else PASSES
        plan = [(index, count, False) for index in range(count)]
    passes = [spawn_pass(workload, seed, index, count, seconds / len(plan),
                         traced, smoke, deadline)
              for index, count, traced in plan]
    failed = sum(p["failed"] for p in passes)
    result = {"correct": failed == 0,
              "attempted": sum(p["attempted"] for p in passes),
              "failed": failed}
    if trace:
        untraced, traced = passes
        metrics = dict(traced["layers"])
        common = min(len(untraced["op_s"]), len(traced["op_s"]))
        metrics["trace_overhead"] = (
            percentile(traced["op_s"][:common], 50)
            / percentile(untraced["op_s"][:common], 50) - 1.0)
        units = layer_metric_units()
        result["metrics"] = {name: {"value": metrics[name], "unit": unit}
                             for name, unit in units.items()}
    else:
        op_s = [s for p in passes for s in p["op_s"]]
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "op_s.p50": percentile(op_s, 50),
            "op_s.p%d" % TAIL: percentile(op_s, TAIL),
            "ops_per_s": len(op_s) / sum(p["wall_s"] for p in passes),
        }
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in END_TO_END_UNITS.items()}
    report(workload, seed, trace, passes, result)
    return result


def report(workload, seed, trace, passes, result):
    """The human-readable lines printed before the JSON result."""
    ops = sum(len(p["op_s"]) for p in passes)
    print("%s  seed %d  %s, %d passes, %d operations, %d/%d failed "
          "(failed_share %.3f)"
          % (workload, seed, "traced" if trace else "untraced",
             len(passes), ops, result["failed"], result["attempted"],
             result["failed"] / max(1, result["attempted"])))
    for failure in [f for p in passes for f in p["failures"]][:10]:
        print("  FAILED: %s" % failure)
    print("  host speed per pass, as a share of the reference: %s "
          "(times are in reference seconds)"
          % " ".join("%.2f" % p["speed"] for p in passes))
    metrics = result["metrics"]
    if not trace:
        print("  setup_s per pass: %s"
              % " ".join("%.3f" % p["setup_s"] for p in passes))
        print("  op_s: n=%d, %d samples beyond p%d (the highest "
              "percentile with ten beyond is p%d)"
              % (ops, samples_beyond(ops, TAIL), TAIL,
                 tail_percentile(ops)))
        reads = [s for p in passes for s in p["read_s"]]
        if reads:
            print("  operator reads: n=%d, p50 %.2f ms, p%d %.2f ms"
                  % (len(reads), percentile(reads, 50) * 1000,
                     TAIL, percentile(reads, TAIL) * 1000))
        stops = [s for p in passes for s in p["stop_ms"]]
        if stops:
            print("  stop_machine window (wall, unscaled): n=%d, p50 %.3f "
                  "ms, p%d %.3f ms (the paper reports ~0.7 ms)"
                  % (len(stops), percentile(stops, 50), TAIL,
                     percentile(stops, TAIL)))
        for name, metric in metrics.items():
            print("  %-12s %12.6f %s" % (name, metric["value"],
                                         metric["unit"]))
        return
    print("  %-28s %9s %11s %11s %7s"
          % ("span", "calls/op", "busy ms/op", "self p50 ms", "share"))
    for name in [n[:-len(".share")] for n in metrics
                 if n.endswith(".share")]:
        print("  %-28s %9.2f %11.3f %11.4f %6.1f%%"
              % (name, metrics[name + ".calls_per_op"]["value"],
                 metrics[name + ".busy_ms_per_op"]["value"],
                 metrics[name + ".self_ms.p50"]["value"],
                 metrics[name + ".share"]["value"] * 100))
    for name, metric in metrics.items():
        if not name.startswith(tuple(n + "." for n in SPAN_NAMES)):
            print("  %-36s %14.4f %s" % (name, metric["value"],
                                         metric["unit"]))
    never = passes[1]["never_fired"]
    print("  spans that never fired: %s" % (", ".join(never) or "none"))
    print("  spans written to %s"
          % os.path.relpath(os.path.join(OUT, "spans-%s.json" % workload),
                            ROOT))


def check_metrics(result, declared, trace):
    """Problems with the result's metric names and units, if any."""
    want = declared[trace]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = ["missing metric %s" % n for n in want if n not in got]
    problems += ["undeclared metric %s" % n for n in got if n not in want]
    problems += ["%s has unit %s, declared %s" % (n, got[n], want[n])
                 for n in want if n in got and got[n] != want[n]]
    return problems


# -- repeatability ------------------------------------------------------------


def host():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "system": platform.system()}


def record_runs(args, workloads):
    doc = {"host": host(), "seconds": args.seconds, "runs": []}
    for workload in workloads:
        for seed in range(args.seed, args.seed + args.runs):
            result = run_workload(workload, seed, args.seconds, 0)
            print(json.dumps(result))
            doc["runs"].append({"workload": workload, "seed": seed,
                                "result": result})
            with open(args.out, "w") as handle:
                json.dump(doc, handle, indent=1)
    return 0


def summarize(doc):
    """(workload, metric) -> median, quartiles, spread of its runs."""
    values = {}
    for run in doc["runs"]:
        for name, metric in run["result"]["metrics"].items():
            values.setdefault((run["workload"], name),
                              []).append(metric["value"])
    summary = {}
    for key, series in values.items():
        q1, median, q3 = (statistics.quantiles(series, n=4)
                          if len(series) > 1 else series * 3)
        summary[key] = {"n": len(series), "median": median, "q1": q1,
                        "q3": q3, "spread": (q3 - q1) / median}
    return summary


def compare(args, declared):
    docs = []
    for path in args.compare:
        with open(path) as handle:
            docs.append(json.load(handle))
    first, second = summarize(docs[0]), summarize(docs[1])
    bounds = declared["bounds"]
    bad = 0
    print("%-20s %-10s %10s %7s %10s %7s %7s %6s"
          % ("workload", "metric", "median A", "spread", "median B",
             "spread", "worse", "bound"))
    for key in sorted(first, key=lambda k: (
            declared["workloads"].index(k[0]), k[1])):
        if key not in second:
            continue
        a, b = first[key], second[key]
        bound, better = bounds[key[1]]
        worse = (b["median"] - a["median"]) / a["median"]
        worse = -worse if better == "higher" else worse
        spread = max(a["spread"], b["spread"])
        ok = worse <= bound and (key[1] == "setup_s" or spread <= bound)
        bad += not ok
        print("%-20s %-10s %10.4f %6.1f%% %10.4f %6.1f%% %6.1f%% %5.0f%%"
              " %s" % (key[0], key[1], a["median"], a["spread"] * 100,
                       b["median"], b["spread"] * 100, worse * 100,
                       bound * 100, "ok" if ok else "OUT OF BOUND"))
    if args.baseline:
        baseline = {"host": docs[0]["host"],
                    "seconds": docs[0]["seconds"], "sets": []}
        for path, doc, summary in zip(args.compare, docs,
                                      (first, second)):
            metrics = {}
            for (workload, name), row in sorted(summary.items()):
                metrics.setdefault(workload, {})[name] = row
            baseline["sets"].append({
                "file": os.path.basename(path),
                "seeds": sorted({r["seed"] for r in doc["runs"]}),
                "metrics": metrics})
        with open(args.baseline, "w") as handle:
            json.dump(baseline, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 1 if bad else 0


# -- command line -------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or all (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured seconds per run (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixed sizes; exit non-zero on any "
                             "failure or missing metric")
    parser.add_argument("--runs", type=int,
                        help="record this many untraced runs, seeds "
                             "--seed, --seed+1, ... (needs --out)")
    parser.add_argument("--out", help="where --runs writes its JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --runs files against the "
                             "bounds in BENCHMARK.json")
    parser.add_argument("--baseline",
                        help="with --compare: write both sets' medians "
                             "and quartiles here")
    # one pass, in the child process spawn_pass starts
    parser.add_argument("--pass", dest="one_pass", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--pass-index", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--passes", type=int, default=1,
                        help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned", type=float, default=time.time(),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.runs is not None and not args.out:
        parser.error("--runs needs --out")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.one_pass:
        run_pass(args)
        return 0
    try:
        import repro  # noqa: F401
        declared = load_declared()
    except (ImportError, OSError) as exc:
        print("bench_e2e: cannot find the program to benchmark (%s); run "
              "from a repository checkout" % exc, file=sys.stderr)
        return 2
    if args.compare:
        return compare(args, declared)
    if args.workload == "all":
        workloads = declared["workloads"]
    elif args.workload in declared["workloads"]:
        workloads = [args.workload]
    else:
        print("bench_e2e: unknown workload %r (have: %s)"
              % (args.workload, ", ".join(declared["workloads"])),
              file=sys.stderr)
        return 2
    if args.runs is not None:
        return record_runs(args, workloads)
    status = 0
    for workload in workloads:
        try:
            result = run_workload(workload, args.seed, args.seconds,
                                  args.trace, smoke=args.smoke)
        except PassFailed as exc:
            print("bench_e2e: %s" % exc, file=sys.stderr)
            return 1
        problems = check_metrics(result, declared, args.trace)
        for problem in problems:
            print("bench_e2e: %s: %s" % (workload, problem),
                  file=sys.stderr)
        if problems:
            return 1
        if args.smoke and not result["correct"]:
            status = 1
        print(json.dumps(result))
    return status


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
    except Exception:
        traceback.print_exc()
        sys.exit(1)
