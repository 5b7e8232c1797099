"""Spans the benchmark records around the calls into each layer.

``--trace`` wraps 22 public functions of ``repro`` (see :data:`SPANS`)
from outside the program: :meth:`Tracer.install` swaps each function
for a wrapper in every ``repro`` module namespace that binds it, and
swaps a method on its class.  A wrapper records one span per call —
name, start, end, the enclosing span on the same thread, and the id of
the benchmark operation in flight — in memory; the pass writes them to
``out/spans-<workload>.json`` when it ends.

A layer's *self time* is a span's duration minus the time its child
spans cover.  Children of one span run on the span's own thread, one
after another, so the time they cover is the sum of their durations.

Installing a wrapper on an attribute that does not exist raises
:class:`SpanInstallError`: a rename in ``src/`` must fail the traced
run, not silently zero a layer.
"""

import functools
import importlib
import sys
import threading
import time

#: (span name, wrapped functions as ``module:attribute`` or
#: ``module:Class.method``), in layer order
SPANS = (
    ("controlplane.publish",
     ("repro.controlplane.service:ControlPlaneService.publish",)),
    ("controlplane.store.write",
     ("repro.controlplane.store:ControlPlaneStore.save_rollout",
      "repro.controlplane.store:ControlPlaneStore.update_members",
      "repro.controlplane.store:ControlPlaneStore.save_member",
      "repro.controlplane.store:ChannelStore.append_entry")),
    ("controlplane.store.read",
     ("repro.controlplane.store:ControlPlaneStore.load_rollout",
      "repro.controlplane.store:ControlPlaneStore.rollouts",
      "repro.controlplane.store:ControlPlaneStore.members")),
    ("analysis.gate", ("repro.evaluation.analyze:analyze_corpus_cve",)),
    ("analysis.analyze_update", ("repro.analysis.analyzer:analyze_update",)),
    ("analysis.run_absint", ("repro.analysis.absint.engine:run_absint",)),
    ("core.ksplice_create", ("repro.core.create:ksplice_create",)),
    ("core.apply", ("repro.core.apply:KspliceCore.apply",)),
    ("core.runpre.match_unit",
     ("repro.core.runpre:RunPreMatcher.match_unit",)),
    ("core.undo", ("repro.core.apply:KspliceCore.undo",)),
    ("kbuild.build_tree", ("repro.kbuild.build:build_tree",)),
    ("kbuild.build_units", ("repro.kbuild.build:build_units",)),
    ("kernel.boot_kernel", ("repro.kernel.machine:boot_kernel",)),
    ("kernel.run", ("repro.kernel.machine:Machine.run",)),
    ("kernel.stop_machine", ("repro.kernel.stop_machine:StopMachine.run",)),
    ("fleet.rollout", ("repro.fleet.orchestrator:rollout_corpus_cve",)),
    ("fleet.keepalive", ("repro.fleet.orchestrator:Fleet.keepalive",)),
    ("fleet.health", ("repro.fleet.health:check_machine",)),
    ("distributed.connect_stream",
     ("repro.distributed.protocol:connect_stream",)),
    ("distributed.remote_rollout", ("repro.fleet.remote:run_remote_rollout",)),
    ("evaluation.evaluate_cve", ("repro.evaluation.harness:evaluate_cve",)),
    ("evaluation.stress_battery",
     ("repro.evaluation.stress:run_stress_battery",)),
)

SPAN_NAMES = tuple(name for name, _targets in SPANS)

#: per-span metrics: suffix -> unit
SPAN_METRICS = {
    "calls_per_op": "count",
    "busy_ms_per_op": "ms",
    "self_ms.p50": "ms",
    "share": "ratio",
}

#: counters, beside the spans: name -> unit
COUNTERS = {
    "analysis.cache.hit_ratio": "ratio",
    "core.apply.retries_per_op": "count",
    "compiler.cache.parse.hit_ratio": "ratio",
    "compiler.cache.compile.hit_ratio": "ratio",
    "compiler.cache.run-build.hit_ratio": "ratio",
    "kernel.run.insns_per_s": "1/s",
    "kernel.jit.traced_share": "ratio",
    "kernel.jit.compiled_per_op": "count",
    "kernel.jit.evicted_per_op": "count",
    "fleet.waves_per_op": "count",
    "fleet.rollbacks_per_op": "count",
    "distributed.frames_per_op": "count",
    "trace.root_coverage": "ratio",
    "trace_overhead": "ratio",
}


def layer_metric_units():
    """Every per-layer metric name -> unit, in report order."""
    units = {"%s.%s" % (name, suffix): unit
             for name in SPAN_NAMES for suffix, unit in SPAN_METRICS.items()}
    units.update(COUNTERS)
    return units


class SpanInstallError(AttributeError):
    """A declared span names a function ``repro`` does not have."""


def resolve(target):
    """``module:attr`` / ``module:Class.method`` -> (owner, attr, fn).

    A method must be defined on the named class itself, not inherited,
    so the wrapper lands where the calls look it up.
    """
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        if not hasattr(owner, part):
            raise SpanInstallError("%s: %s has no attribute %r"
                                   % (target, owner.__name__, part))
        owner = getattr(owner, part)
    namespace = vars(owner)
    if attr not in namespace:
        raise SpanInstallError("%s: %s has no attribute %r"
                               % (target, owner.__name__, attr))
    return owner, attr, namespace[attr]


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[rank - 1]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        #: one ``[name, start, end, parent, op]`` list per span; a span's
        #: id is its index, ``parent`` is an id or None
        self.spans = []
        self.op = None
        self.frames = 0
        self.run_insns = 0
        self.apply_retries = 0
        self.waves = 0
        self.rollbacks = 0
        self.stop_violations = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        record = [name, time.perf_counter(), None,
                  stack[-1] if stack else None, self.op]
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(record)
        stack.append(span_id)
        return span_id

    def end(self, span_id):
        self.spans[span_id][2] = time.perf_counter()
        self._stack().pop()

    # -- installing --------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span_id)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, owner, attr, fn, replacement):
        """Swap ``fn`` on its class, or in every loaded ``repro``
        module that binds it (``from x import fn`` copies the name)."""
        if isinstance(owner, type):
            self._patch(owner, attr, replacement)
            return
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or
                                      module_name.startswith("repro.")):
                continue
            for bound, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, bound, replacement)

    def install(self):
        """Wrap every declared span (all-or-nothing)."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        afters = {
            "core.apply": self._after_apply,
            "kernel.run": self._after_run,
            "fleet.rollout": self._after_rollout,
            "distributed.remote_rollout": self._after_rollout,
        }
        resolved = [(name, resolve(target))
                    for name, targets in SPANS for target in targets]
        frames = [resolve("repro.distributed.protocol:MessageStream." + m)
                  for m in ("send", "recv")]
        try:
            for name, (owner, attr, fn) in resolved:
                wrapper = self._wrap(name, fn, afters.get(name))
                if name == "kernel.stop_machine":
                    wrapper = self._check_stopped(wrapper)
                self._patch_everywhere(owner, attr, fn, wrapper)
            for owner, attr, fn in frames:
                self._patch(owner, attr, self._count_frames(fn))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters fed by wrapped calls ---------------------------------------

    def _count_frames(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.frames += 1
            return fn(*args, **kwargs)
        return wrapper

    def _after_apply(self, args, applied):
        self.apply_retries += max(0, applied.stack_check_attempts - 1)

    def _after_run(self, args, executed):
        self.run_insns += executed

    def _check_stopped(self, fn):
        """Outside the span: no thread that existed when the machine
        stopped may run until it restarts.  The report's
        ``instructions_during_stop`` also counts the update's own
        ``.ksplice_apply`` hooks, which run on fresh threads inside the
        stopped window, so it is not the test."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(stop_machine, *args, **kwargs):
            before = [(thread, thread.instructions_executed)
                      for thread in stop_machine.scheduler.threads]
            try:
                return fn(stop_machine, *args, **kwargs)
            finally:
                ran = [thread.name for thread, count in before
                       if thread.instructions_executed != count]
                if ran:
                    tracer.stop_violations.append(
                        "thread(s) %s ran during stop_machine"
                        % ", ".join(ran))
        return wrapper

    def _after_rollout(self, args, report):
        self.waves += len(report.waves)
        self.rollbacks += sum(len(w.rolled_back) for w in report.waves)

    # -- analysis ------------------------------------------------------------

    def self_times(self):
        """(name, duration, self time, parent) per finished span."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None and end is not None:
                covered[parent] += end - start
        return [(name, end - start, end - start - covered[i], parent)
                for i, (name, start, end, parent, _op)
                in enumerate(self.spans) if end is not None]

    def layer_table(self, wall_s, ops):
        """Per-span calls, busy time, self-time median and wall share,
        plus the share of the wall the root spans cover."""
        by_name = {name: [] for name in SPAN_NAMES}
        roots = 0.0
        for name, duration, self_s, parent in self.self_times():
            by_name[name].append(self_s)
            if parent is None:
                roots += duration
        table = {}
        for name, selfs in by_name.items():
            table[name] = {
                "calls_per_op": len(selfs) / ops,
                "busy_ms_per_op": sum(selfs) * 1000.0 / ops,
                "self_ms.p50": percentile(selfs, 50) * 1000.0,
                "share": sum(selfs) / wall_s,
            }
        return table, roots / wall_s

    def run_seconds(self):
        return sum(end - start for name, start, end, _p, _o in self.spans
                   if name == "kernel.run" and end is not None)

    def to_json(self):
        return {"fields": ["name", "start", "end", "parent", "op"],
                "spans": self.spans}
