"""The four closed-loop workloads, each driven through public entry points.

One client keeps one operation outstanding.  A workload's inputs come
from ``--seed`` alone: :func:`plan` is the operation order a pass walks
(cyclically, from the pass's offset), and every operation's output is
checked.  Calls into ``repro`` go through module attributes at call
time, so the spans ``--trace`` installs see them.
"""

import os
import random
import threading
import time

from repro.controlplane import (
    ControlPlaneClient,
    ControlPlaneServer,
    ControlPlaneService,
    ControlPlaneStore,
)
from repro.distributed import protocol
from repro.distributed.worker import spawn_local_workers
from repro.evaluation import engine
from repro.evaluation.corpus import CORPUS, corpus_by_id
from repro.evaluation.kernels import kernel_for_version
from repro.fleet import orchestrator, remote
from repro.fleet.model import RolloutPlan
from repro.scenarios import GeneratedCorpus, GeneratedCorpusProvider
from repro.scenarios.factory import GROUP_SIZE

#: members per channel; waves of canary 1 then growth 2.  Four or more
#: members would re-probe a still-unpatched member in a third wave,
#: which stateful probes turn red (see README).
MEMBERS_PER_CHANNEL = 3

#: the scenarios evaluate-generated draws from: 20 generated kernels
GENERATED_SIZE = 160

#: the shared secret of the publish-remote worker (mutual HMAC)
WORKER_SECRET = "e2e-bench-secret"


def corpus_versions():
    return sorted({spec.kernel_version for spec in CORPUS})


def shuffled_corpus(seed):
    ids = [spec.cve_id for spec in CORPUS]
    random.Random(seed).shuffle(ids)
    return ids


def build_run_kernels():
    """Every corpus kernel's run build, so no operation pays for one."""
    for version in corpus_versions():
        engine.run_build_for(kernel_for_version(version))
        yield


class PassLog:
    """What one pass did: operation ids, latencies, failures."""

    def __init__(self):
        self.ops = []
        self.op_s = []
        self.read_s = []
        self.stop_ms = []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fail(self, what):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def timed(self, op_id, fn, *args, **kwargs):
        """One operation: ``fn`` timed with ``perf_counter``; a call
        that raises is still timed and counted."""
        self.attempted += 1
        self.ops.append(op_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.op_s.append(time.perf_counter() - start)

    def read(self, what, fn, *args):
        """One operator read; a failed read is counted, returns None."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:
            self.fail("%s: %s: %s" % (what, type(exc).__name__, exc))
            return None
        finally:
            self.read_s.append(time.perf_counter() - start)


class Workload:
    name = ""
    #: operations per pass under --smoke
    smoke_ops = 4

    def plan(self, seed):
        return shuffled_corpus(seed)

    def offset(self, plan, index, passes):
        """Where pass ``index`` of ``passes`` starts in the plan, so
        the passes of one run spread over the whole plan."""
        return index * len(plan) // passes

    def setup(self, seed, workdir):
        """Untimed set-up: a generator that yields between its steps,
        so the pass can sample the host's speed beside each one."""
        self.plan_ids = self.plan(seed)
        yield

    def run_op(self, op_id, log):
        raise NotImplementedError

    def teardown(self):
        pass


class PublishLocal(Workload):
    name = "publish-local"
    remote = False

    def setup(self, seed, workdir):
        yield from super().setup(seed, workdir)
        worker_address = ""
        if self.remote:
            # the worker forks before this process warms any cache or
            # starts a thread
            os.environ[protocol.SECRET_ENV] = WORKER_SECRET
            self.worker = spawn_local_workers(
                1, secret=WORKER_SECRET.encode("utf-8"))[0]
            worker_address = self.worker.address
            yield
        yield from build_run_kernels()
        if self.remote:
            yield from self._warm_worker(worker_address)
        self.service = ControlPlaneService(
            ControlPlaneStore(os.path.join(workdir, "controlplane")))
        for version in corpus_versions():
            self.service.create_channel(version)
            for index in range(MEMBERS_PER_CHANNEL):
                self.service.register_member(
                    "%s-m%d" % (version, index), version,
                    channel=version, worker=worker_address)
        yield
        self.server = ControlPlaneServer(("127.0.0.1", 0),
                                         service=self.service)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       name="controlplane", daemon=True)
        self.thread.start()
        self.client = ControlPlaneClient(self.server.url)

    def _warm_worker(self, address):
        """One fleet_size=1 rollout per kernel version, so the worker
        holds every run build before the first timed publish."""
        first = {}
        for spec in CORPUS:
            first.setdefault(spec.kernel_version, spec.cve_id)
        for version in corpus_versions():
            report = remote.run_remote_rollout(
                address, RolloutPlan(cve_id=first[version], fleet_size=1))
            if report.outcome != "complete":
                raise RuntimeError("worker warm-up rollout of %s ended %s"
                                   % (first[version], report.outcome))
            yield

    def run_op(self, cve_id, log):
        channel = corpus_by_id(cve_id).kernel_version
        record = log.timed(cve_id, self.service.publish, channel, cve_id,
                           synchronous=True)
        problems = []
        if record.status != "complete":
            problems.append("ended %s (%s)" % (record.status,
                                               record.detail))

        rollout = log.read("GET /rollouts", self.client.rollout,
                           record.rollout_id)
        if rollout is not None and (
                rollout["status"] != record.status
                or rollout["sequence"] != record.sequence
                or rollout["member_ids"] != record.member_ids):
            log.fail("GET /rollouts/%s disagrees with the publish"
                     % record.rollout_id)

        status = log.read("GET /channels", self.client.channel, channel)
        if status is not None:
            listed = {r["rollout_id"]: r["status"]
                      for r in status["rollouts"]}
            if (status["entries"][-1]["sequence"] != record.sequence
                    or listed.get(record.rollout_id) != record.status):
                log.fail("GET /channels/%s disagrees with the publish"
                         % channel)

        members = log.read("GET /members", self.client.members)
        if members is not None:
            behind = [m["member_id"] for m in members
                      if m["channel"] == channel
                      and m["applied_sequence"] != record.sequence]
            if len(record.member_ids) != MEMBERS_PER_CHANNEL or behind:
                problems.append("members %s miss sequence %d"
                                % (behind or record.member_ids,
                                   record.sequence))
        if problems:
            log.fail("publish %s: %s" % (cve_id, "; ".join(problems)))

    def teardown(self):
        server = getattr(self, "server", None)
        if server is not None:
            server.shutdown()
            server.server_close()
            self.thread.join()
        if getattr(self, "worker", None) is not None:
            self.worker.stop()


class PublishRemote(PublishLocal):
    name = "publish-remote"
    remote = True


class RolloutUnderLoad(Workload):
    name = "rollout-under-load"
    smoke_ops = 2

    def setup(self, seed, workdir):
        yield from super().setup(seed, workdir)
        yield from build_run_kernels()

    def run_op(self, cve_id, log):
        plan = RolloutPlan(cve_id=cve_id,
                           fleet_size=MEMBERS_PER_CHANNEL,
                           workload="stress",
                           keepalive_instructions=50_000)
        report = log.timed(cve_id, orchestrator.rollout_corpus_cve, plan)
        if (report.outcome != "complete" or not report.survivors_healthy
                or len(report.updated_members) != MEMBERS_PER_CHANNEL):
            log.fail("rollout %s: %s, survivors healthy %s, updated %s"
                     % (cve_id, report.outcome, report.survivors_healthy,
                        report.updated_members))


class EvaluateGenerated(Workload):
    name = "evaluate-generated"
    smoke_ops = 8

    def plan(self, seed):
        corpus = GeneratedCorpus.generate(seed, GENERATED_SIZE)
        return [spec.cve_id for spec in corpus.specs()]

    def offset(self, plan, index, passes):
        # start on a kernel group, so each pass builds whole groups
        groups = len(plan) // GROUP_SIZE
        return index * groups // passes * GROUP_SIZE

    def setup(self, seed, workdir):
        self.provider = GeneratedCorpusProvider(
            GeneratedCorpus.generate(seed, GENERATED_SIZE))
        self.plan_ids = [spec.cve_id for spec in self.provider.specs()]
        yield

    def run_op(self, scenario_id, log):
        spec = self.provider.by_id(scenario_id)
        report = log.timed(scenario_id, engine.evaluate_corpus, [spec],
                           run_stress=True, verify_undo=True, jobs=1)
        result = report.results[0]
        log.stop_ms.append(result.stop_ms)
        problems = self.provider.discrepancies([result])
        if not result.success:
            problems.append("not a success (%s)" % (
                result.apply_error or result.failed_stage or "criteria"))
        if result.analysis is None or not result.analysis.is_proven():
            problems.append("verdict %r is not proven"
                            % result.analysis_verdict)
        # None: the harness does not undo updates that carry custom code
        if result.undo_ok is False:
            problems.append("undo did not restore the old behaviour")
        if problems:
            log.fail("scenario %s: %s" % (scenario_id,
                                          "; ".join(problems[:3])))


WORKLOADS = {w.name: w for w in (PublishLocal, PublishRemote,
                                 RolloutUnderLoad, EvaluateGenerated)}
