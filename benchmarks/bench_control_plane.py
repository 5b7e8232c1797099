"""Control-plane convergence latency: publish -> fleet converged.

The coordinator daemon's headline number: how long a publish to a
release channel takes to walk every registered member through the
canary waves, measured end-to-end *through the REST API* (register
over HTTP, publish over HTTP, poll ``GET /rollouts/<id>`` until the
record leaves ``running``).  Also measured: how quickly the first
canary wave becomes visible to a poller — the lag an operator watching
``repro channel publish`` actually feels — and how long a daemon
restart takes to replay the store's journal and serve the registry
and the finished rollout again.

Run directly:

* ``--smoke`` — the CI check: 4 members; the publish must converge
  with every member updated and the registry must survive a restart.
* ``--full`` — the acceptance run: 12 members.

Both record into ``BENCH_corpus.json``.  Under pytest the smoke-sized
measurement runs as a benchmark.
"""

import shutil
import tempfile
import threading
import time

import perfjson

from repro.controlplane import ControlPlaneClient, ControlPlaneServer
from repro.evaluation import clear_caches

CVE = "CVE-2006-2451"  # analyzer-safe, probed, single-unit update
KERNEL = "2.6.16-deb3"


class _Daemon:
    """A live control plane on an ephemeral port, over ``data_dir``."""

    def __init__(self, data_dir):
        self.server = ControlPlaneServer(("127.0.0.1", 0),
                                         data_dir=data_dir)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()
        self.client = ControlPlaneClient(self.server.url)

    def stop(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)


def measure(fleet_size):
    """One publish over HTTP against ``fleet_size`` registered members.

    Returns ``(payload, failures)``.
    """
    clear_caches()
    data_dir = tempfile.mkdtemp(prefix="bench-controlplane-")
    failures = []
    try:
        daemon = _Daemon(data_dir)
        try:
            for index in range(fleet_size):
                daemon.client.register_member(
                    "bench-%02d" % index, KERNEL, channel="canary")

            start = time.perf_counter()
            record = daemon.client.publish("canary", CVE)
            rollout_id = record["rollout_id"]
            first_wave_s = None
            while True:
                record = daemon.client.rollout(rollout_id)
                if first_wave_s is None and record["waves"]:
                    first_wave_s = time.perf_counter() - start
                if record["status"] != "running":
                    break
                time.sleep(0.02)
            converged_s = time.perf_counter() - start

            if record["status"] != "complete":
                failures.append("publish ended %r" % record["status"])
            updated = [m for m in daemon.client.members()
                       if m["applied_sequence"] == 1]
            if len(updated) != fleet_size:
                failures.append("converged %d/%d members"
                                % (len(updated), fleet_size))
            waves = len(record["waves"])
        finally:
            daemon.stop()

        # Restart recovery: a fresh daemon over the same directory must
        # serve the full registry and the finished rollout record.
        start = time.perf_counter()
        revived = _Daemon(data_dir)
        try:
            members = revived.client.members()
            revived_record = revived.client.rollout(rollout_id)
            recovery_s = time.perf_counter() - start
            if len(members) != fleet_size:
                failures.append("restart recovered %d/%d members"
                                % (len(members), fleet_size))
            if revived_record["status"] != record["status"]:
                failures.append("restart changed rollout status to %r"
                                % revived_record["status"])
        finally:
            revived.stop()
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    payload = {
        "fleet_size": fleet_size,
        "waves": waves,
        "publish_to_converged_wall_s": round(converged_s, 3),
        "members_converged_per_s": round(fleet_size / converged_s, 2)
        if converged_s else 0.0,
        "first_wave_visible_s": round(first_wave_s, 3)
        if first_wave_s is not None else None,
        "restart_recovery_wall_s": round(recovery_s, 3),
    }
    return payload, failures


def _report(label, payload):
    print("%s: %d members converged in %.2fs (%.1f members/s, %d "
          "waves); first wave visible at %.2fs; restart recovery "
          "%.3fs"
          % (label, payload["fleet_size"],
             payload["publish_to_converged_wall_s"],
             payload["members_converged_per_s"],
             payload["waves"],
             payload["first_wave_visible_s"] or 0.0,
             payload["restart_recovery_wall_s"]))


def test_control_plane_convergence(benchmark):
    payload, failures = benchmark.pedantic(
        lambda: measure(4), rounds=1, iterations=1)
    _report("controlplane", payload)
    perfjson.record("control_plane_smoke", payload)
    assert not failures, failures


def run_smoke():
    payload, failures = measure(4)
    _report("smoke", payload)
    perfjson.record("control_plane_smoke", payload)
    for failure in failures:
        print("SMOKE FAIL: %s" % failure)
    if not failures:
        print("smoke: OK")
    return 1 if failures else 0


def run_full():
    payload, failures = measure(12)
    _report("full", payload)
    perfjson.record("control_plane_full", payload)
    for failure in failures:
        print("FULL FAIL: %s" % failure)
    if not failures:
        print("full: OK (recorded in %s)" % perfjson.DEFAULT_PATH)
    return 1 if failures else 0


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv[1:]:
        sys.exit(run_smoke())
    sys.exit(run_full())
