"""The ``fleet-rollout`` item carries the update, not only its CVE id.

A worker-backed rollout ships the plan, the pack's ``to_bytes()``
document and the publish gate's analysis; the worker parses and checks
them and applies that pack, so it never runs ``ksplice_create``.  Each
rollout report names the sha256 of the pack it applied.
"""

import hashlib
import json
import re
import socket
import sys

import repro.core.create as create_mod
from repro.analysis import AnalysisReport
from repro.distributed import protocol, spawn_local_workers
from repro.evaluation.analyze import ANALYSIS_CACHE, create_corpus_cve
from repro.fleet import RolloutPlan, remote, rollout_corpus_cve
from repro.fleet.model import RolloutReport, save_report

CVE = "CVE-2006-2451"  # analyzer-safe, has a semantics probe
KERNEL = "2.6.16-deb3"
#: a CVE of another kernel version
OTHER_CVE, OTHER_KERNEL = "CVE-2007-4573", "2.6.22"


def _digest(cve_id):
    pack = create_corpus_cve(cve_id).shippable_pack()
    return hashlib.sha256(pack.to_bytes()).hexdigest()


def test_local_rollout_names_the_pack_it_applied():
    report = rollout_corpus_cve(RolloutPlan(cve_id=CVE, fleet_size=1))
    assert report.outcome == "complete"
    assert report.pack_sha256 == _digest(CVE)
    assert "pack: sha256 %s" % report.pack_sha256 in report.render()


def test_worker_item_applies_the_shipped_pack_without_creating(
        monkeypatch):
    """``execute_rollout_item`` in-process, with a cold create memo and
    ``ksplice_create`` raising wherever it is bound: the rollout still
    completes, and its report equals the local one."""
    plan = RolloutPlan(cve_id=CVE, fleet_size=3)
    local = rollout_corpus_cve(plan)
    item = remote.rollout_item(plan)
    ANALYSIS_CACHE.clear()

    def refuse(*args, **kwargs):
        raise AssertionError("ksplice_create ran for a shipped pack")

    real = create_mod.ksplice_create
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro"
                                   or name.startswith("repro.")):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, refuse)
    waves = []
    report = remote.execute_rollout_item(item, on_wave=waves.append)
    assert report["outcome"] == "complete"
    assert report == local.to_json_dict()
    assert [w["index"] for w in waves] == [0, 1]
    assert len(ANALYSIS_CACHE) == 0


# -- hostile items over a live session ----------------------------------------


def _session(worker):
    sock = socket.create_connection((worker.host, worker.port),
                                    timeout=60.0)
    stream = protocol.connect_stream(sock, protocol.default_secret())
    stream.send({"type": protocol.HELLO,
                 "version": protocol.PROTOCOL_VERSION,
                 "disk_cache": None})
    assert stream.recv()["type"] == protocol.READY
    return sock, stream


def _hostile_items(good):
    """(name, item, what the error line must say) per hostile item."""
    other = remote.rollout_item(RolloutPlan(cve_id=OTHER_CVE,
                                            fleet_size=1))
    without_pack = dict(good)
    del without_pack["pack"]
    plan = good["plan"]
    cases = [
        ("missing-pack", without_pack,
         r"'pack' must be bytes, not NoneType"),
        ("text-pack", dict(good, pack=good["pack"].decode("utf-8")),
         r"'pack' must be bytes, not str"),
        ("garbage-pack", dict(good, pack=b"\x00not a pack"),
         r"'pack': malformed update pack"),
        ("truncated-pack", dict(good, pack=good["pack"][:200]),
         r"'pack': malformed update pack"),
        ("other-kernel", dict(good, pack=other["pack"]),
         r"the pack targets kernel %s, but %s runs on %s"
         % (OTHER_KERNEL, CVE, KERNEL)),
        ("dict-analysis", dict(good, analysis={"verdict": "safe"}),
         r"'analysis' must be an AnalysisReport, not dict"),
        ("no-analysis", dict(good, analysis=None),
         r"'analysis' must be an AnalysisReport, not NoneType"),
        ("unknown-verdict",
         dict(good, analysis=AnalysisReport(verdict="fine")),
         r"'analysis' has unknown verdict 'fine'"),
        ("reject-int-findings",
         dict(good, analysis=AnalysisReport(verdict="reject", findings=5)),
         r"'analysis' has findings that are not a list of Finding"),
        ("reject-int-finding",
         dict(good, analysis=AnalysisReport(verdict="reject",
                                            findings=[5])),
         r"'analysis' has findings that are not a list of Finding"),
        ("text-plan", dict(good, plan=CVE),
         r"malformed rollout plan: str, not a JSON object"),
        ("plan-without-cve", dict(good, plan={"fleet_size": 1}),
         r"malformed rollout plan: missing field 'cve_id'"),
        ("plan-text-size", dict(good, plan=dict(plan, fleet_size="2")),
         r"malformed rollout plan: field 'fleet_size' must be int, "
         r"not str"),
        ("plan-float-size", dict(good, plan=dict(plan, fleet_size=2.9)),
         r"field 'fleet_size' must be int, not float"),
        ("plan-text-probe", dict(good, plan=dict(plan, probe="no")),
         r"field 'probe' must be bool, not str"),
        ("plan-bad-faults", dict(good, plan=dict(plan, faults=[7])),
         r"malformed rollout plan: bad fault: TypeError"),
        ("plan-zero-size", dict(good, plan=dict(plan, fleet_size=0)),
         r"fleet_size must be >= 1"),
        ("plan-unknown-cve",
         dict(good, plan=dict(plan, cve_id="CVE-0000-0000")),
         r"unknown CVE id 'CVE-0000-0000'"),
    ]
    return [(name, dict(item, item_id=name), problem)
            for name, item, problem in cases]


def test_hostile_items_get_one_error_line_and_the_worker_goes_on():
    """Each hostile item is answered with exactly one ``error`` frame
    holding one line that names the problem; the same session then
    runs a good rollout to completion."""
    good = remote.rollout_item(RolloutPlan(cve_id=CVE, fleet_size=2))
    workers = spawn_local_workers(1)
    try:
        sock, stream = _session(workers[0])
        try:
            for name, item, problem in _hostile_items(good):
                stream.send(item)
                reply = stream.recv()
                assert reply["type"] == protocol.ERROR, name
                assert reply["item_id"] == name
                error = reply["error"]
                assert "\n" not in error.strip(), (name, error)
                assert error.startswith("RolloutError: "), (name, error)
                assert re.search(problem, error), (name, error)
            stream.send(dict(good, item_id="good"))
            waves = []
            while True:
                reply = stream.recv()
                assert reply["type"] in (protocol.RESULT,
                                         protocol.ITEM_DONE), reply
                assert reply["item_id"] == "good"
                if reply["type"] == protocol.ITEM_DONE:
                    break
                waves.append(reply["wave"])
            stream.send({"type": protocol.SHUTDOWN})
        finally:
            sock.close()
    finally:
        workers[0].stop()
    report = RolloutReport.from_json_dict(reply["report"])
    assert report.outcome == "complete"
    assert report.updated_members == [0, 1]
    assert len(waves) == 2
    assert report.pack_sha256 == hashlib.sha256(good["pack"]).hexdigest()


# -- the digest on persisted reports ------------------------------------------


def test_fleet_status_renders_the_pack_digest(tmp_path, monkeypatch,
                                              capsys):
    from repro.cli import main
    from repro.fleet.model import ROLLOUT_FILE_ENV

    path = tmp_path / "rollout.json"
    monkeypatch.setenv(ROLLOUT_FILE_ENV, str(path))
    report = rollout_corpus_cve(RolloutPlan(cve_id=CVE, fleet_size=1))
    save_report(report)
    assert main(["fleet", "status"]) == 0
    assert "pack: sha256 %s" % _digest(CVE) in capsys.readouterr().out

    # a report saved before reports named their pack loads as ""
    data = json.loads(path.read_text())
    del data["pack_sha256"]
    path.write_text(json.dumps(data))
    assert main(["fleet", "status", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["pack_sha256"] == ""
    assert main(["fleet", "status"]) == 0
    assert "pack:" not in capsys.readouterr().out
