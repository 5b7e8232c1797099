"""Tests for the update-channel control plane: the durable store,
the coordinator service, the REST daemon, and restart recovery."""

import json
import threading

import pytest

from repro.controlplane import (
    ROLLOUT_COMPLETE,
    ROLLOUT_INTERRUPTED,
    ROLLOUT_RUNNING,
    ChannelStore,
    ControlPlaneClient,
    ControlPlaneClientError,
    ControlPlaneError,
    ControlPlaneServer,
    ControlPlaneService,
    ControlPlaneStore,
    RolloutRecord,
    UnknownChannelError,
    UnknownMemberError,
)
from repro.controlplane.model import StoreCorruptError

CVE = "CVE-2006-2451"  # analyzer-safe, has a semantics probe
KERNEL = "2.6.16-deb3"


def make_service(tmp_path, members=(), channel="canary"):
    service = ControlPlaneService(ControlPlaneStore(str(tmp_path)))
    for member_id in members:
        service.register_member(member_id, KERNEL, channel=channel)
    return service


# -- durable store ------------------------------------------------------------


def test_store_survives_reopen(tmp_path):
    store = ControlPlaneStore(str(tmp_path))
    service = ControlPlaneService(store)
    service.register_member("web-00", KERNEL, channel="canary")
    service.quarantine("web-00")
    store.channels.append_entry("canary", {"cve_id": CVE})
    store.save_rollout(RolloutRecord(
        rollout_id="canary-0001", channel="canary", cve_id=CVE,
        sequence=1, status=ROLLOUT_COMPLETE))

    # A second store over the same directory (a restarted daemon)
    # sees every collection.
    revived = ControlPlaneStore(str(tmp_path))
    member = revived.get_member("web-00")
    assert member.kernel_version == KERNEL
    assert member.quarantined
    assert revived.channels.latest_sequence("canary") == 1
    record = revived.load_rollout("canary-0001")
    assert record.status == ROLLOUT_COMPLETE
    assert record.cve_id == CVE


def test_store_corruption_is_a_typed_error(tmp_path):
    """A torn last journal line (a crash mid-append) is dropped with
    every earlier write intact; a flipped byte in an earlier record is
    a typed refusal, not a traceback."""
    service = make_service(tmp_path, ["web-00", "web-01"])
    service.quarantine("web-01")
    journal = tmp_path / "journal.log"
    intact = journal.read_bytes()
    last = intact.splitlines(keepends=True)[-1]

    journal.write_bytes(intact + last[:len(last) // 2])
    revived = ControlPlaneStore(str(tmp_path))
    assert [m.member_id for m in revived.members()] == ["web-00",
                                                        "web-01"]
    assert revived.get_member("web-01").quarantined
    # the torn tail is cut off, so the next append starts a clean line
    assert journal.read_bytes() == intact

    damaged = bytearray(intact)
    damaged[intact.index(b"web-00")] ^= 0x01
    journal.write_bytes(bytes(damaged))
    with pytest.raises(StoreCorruptError, match="record"):
        ControlPlaneStore(str(tmp_path))


def test_channel_store_stamps_the_sequence_chain(tmp_path):
    channels = ChannelStore(str(tmp_path))
    channels.ensure_channel("stable")
    first = channels.append_entry("stable", {"cve_id": "a"})
    second = channels.append_entry("stable", {"cve_id": "b"})
    assert (first["sequence"], first["base_sequence"]) == (1, 0)
    assert (second["sequence"], second["base_sequence"]) == (2, 1)
    # A reopened store continues the chain, not restarts it.
    third = ChannelStore(str(tmp_path)).append_entry(
        "stable", {"cve_id": "c"})
    assert (third["sequence"], third["base_sequence"]) == (3, 2)
    with pytest.raises(UnknownChannelError):
        channels.get("no-such-channel")


def test_memory_channel_store_needs_no_disk():
    channels = ChannelStore()
    channels.ensure_channel("ephemeral")
    entry = channels.append_entry("ephemeral", {"cve_id": "a"})
    assert entry["sequence"] == 1
    assert channels.names() == ["ephemeral"]


# -- service ------------------------------------------------------------------


def test_recover_marks_running_rollouts_interrupted(tmp_path):
    store = ControlPlaneStore(str(tmp_path))
    record = RolloutRecord(
        rollout_id="canary-0001", channel="canary", cve_id=CVE,
        sequence=1, status=ROLLOUT_RUNNING,
        member_ids=["web-00", "web-01"],
        waves=[{"index": 0, "verdict": "green",
                "member_ids": ["web-00"]}])
    store.save_rollout(record)

    service = ControlPlaneService(ControlPlaneStore(str(tmp_path)))
    revived = service.rollout("canary-0001")
    assert revived.status == ROLLOUT_INTERRUPTED
    assert "1 wave(s) had completed" in revived.detail
    # The streamed progress is still readable.
    assert revived.waves[0]["member_ids"] == ["web-00"]


def test_publish_rolls_out_and_updates_the_registry(tmp_path):
    service = make_service(tmp_path, ["web-00", "web-01", "web-02"])
    record = service.publish("canary", CVE, synchronous=True)
    record = service.rollout(record.rollout_id)

    assert record.status == ROLLOUT_COMPLETE
    assert record.sequence == 1
    assert record.member_ids == ["web-00", "web-01", "web-02"]
    # canary=1, growth=2 over 3 members -> waves of 1 then 2
    assert [len(w["member_ids"]) for w in record.waves] == [1, 2]
    for member_id in record.member_ids:
        member = service.store.get_member(member_id)
        assert member.applied_sequence == 1
        assert member.applied_updates[-1]["cve_id"] == CVE
        assert member.health_history[-1]["healthy"]


def test_quarantined_and_pinned_members_are_skipped(tmp_path):
    service = make_service(tmp_path, ["web-00", "web-01", "web-02"])
    service.quarantine("web-01")
    service.pin("web-02")
    record = service.publish("canary", CVE, synchronous=True)
    record = service.rollout(record.rollout_id)

    assert record.member_ids == ["web-00"]
    skipped = {s["member_id"]: s["reason"] for s in record.skipped}
    assert skipped == {"web-01": "quarantined", "web-02": "pinned"}
    rolled = [m for w in record.waves for m in w["member_ids"]]
    assert "web-01" not in rolled and "web-02" not in rolled
    assert service.store.get_member("web-01").applied_sequence == 0
    assert service.store.get_member("web-02").applied_sequence == 0


def test_version_mismatch_and_sequence_gap_are_skipped(tmp_path):
    service = make_service(tmp_path, ["web-00"])
    service.register_member("old-00", "2.6.8", channel="canary")
    first = service.publish("canary", CVE, synchronous=True)
    assert service.rollout(first.rollout_id).status == ROLLOUT_COMPLETE

    # web-00 is now at #1; a member still at #0 gaps on entry #2.
    service.register_member("late-00", KERNEL, channel="canary")
    second = service.publish("canary", CVE, synchronous=True)
    record = service.rollout(second.rollout_id)
    assert record.member_ids == ["web-00"]
    skipped = {s["member_id"]: s["reason"] for s in record.skipped}
    assert "kernel-version mismatch" in skipped["old-00"]
    assert "sequence gap: member at #0, entry stacks on #1" \
        in skipped["late-00"]


def test_publish_with_no_eligible_members_completes_inline(tmp_path):
    service = make_service(tmp_path, ["web-00"])
    service.pin("web-00")
    record = service.publish("canary", CVE)
    assert record.status == ROLLOUT_COMPLETE
    assert "no eligible members" in record.detail
    # The entry is still published: the channel advanced.
    assert service.store.channels.latest_sequence("canary") == 1


def test_publish_refusals_are_typed(tmp_path):
    service = make_service(tmp_path, ["web-00"])
    with pytest.raises(ControlPlaneError, match="unknown corpus CVE"):
        service.publish("canary", "CVE-0000-0000")
    with pytest.raises(UnknownChannelError):
        service.publish("no-such-channel", CVE)
    with pytest.raises(UnknownMemberError):
        service.pin("no-such-member")
    with pytest.raises(UnknownChannelError):
        service.register_member("web-01", KERNEL,
                                channel="no-such-channel")


def test_reregistration_keeps_history(tmp_path):
    service = make_service(tmp_path, ["web-00"])
    service.publish("canary", CVE, synchronous=True)
    before = service.store.get_member("web-00")
    assert before.applied_sequence == 1

    service.register_member("web-00", KERNEL, channel="canary")
    after = service.store.get_member("web-00")
    assert after.applied_sequence == 1
    assert after.applied_updates == before.applied_updates


# -- REST daemon --------------------------------------------------------------


@pytest.fixture
def daemon(tmp_path):
    """A live control plane on an ephemeral port, plus its data dir."""
    server = ControlPlaneServer(("127.0.0.1", 0),
                                data_dir=str(tmp_path / "cp"))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def test_http_publish_drives_canary_waves_across_eight_members(
        daemon, tmp_path):
    """The acceptance path: 8 registered members, a publish over HTTP,
    wave-by-wave progress visible through GET /rollouts/<id>, and a
    daemon restart that loses nothing."""
    client = ControlPlaneClient(daemon.url)
    assert client.health()["ok"]

    fleet = ["web-%02d" % i for i in range(8)]
    for member_id in fleet:
        client.register_member(member_id, KERNEL, channel="canary")
    assert len(client.members()) == 8

    record = client.publish("canary", CVE, canary=1, growth=2)
    assert record["status"] == ROLLOUT_RUNNING
    rollout_id = record["rollout_id"]

    seen = []
    final = client.wait_rollout(rollout_id, timeout=300,
                                on_wave=seen.append)
    assert final["status"] == ROLLOUT_COMPLETE
    # canary=1, growth=2 over 8 members: 1, 2, 4, then the last 1.
    assert [len(w["member_ids"]) for w in seen] == [1, 2, 4, 1]
    assert [m for w in seen for m in w["member_ids"]] == fleet
    assert all(w["verdict"] == "green" for w in seen)

    status = client.channel("canary")
    assert [s["member_id"] for s in status["subscribers"]
            if s["current"]] == fleet
    assert status["entries"][0]["cve_id"] == CVE
    assert "pack_b64" not in status["entries"][0]

    # Kill the daemon, start a fresh one over the same directory:
    # registry, channel series, and the finished report all survive.
    daemon.shutdown()
    revived = ControlPlaneServer(("127.0.0.1", 0),
                                 data_dir=str(tmp_path / "cp"))
    thread = threading.Thread(target=revived.serve_forever,
                              daemon=True)
    thread.start()
    try:
        client = ControlPlaneClient(revived.url)
        assert len(client.members()) == 8
        assert client.member("web-03")["applied_sequence"] == 1
        record = client.rollout(rollout_id)
        assert record["status"] == ROLLOUT_COMPLETE
        assert len(record["waves"]) == 4
        assert record["report"]["outcome"] == "complete"
    finally:
        revived.shutdown()
        revived.server_close()
        thread.join(timeout=10)


def test_http_restart_marks_interrupted(daemon, tmp_path):
    """A record left ``running`` by a dead daemon reads as interrupted
    after the next boot, with its streamed waves intact."""
    store = daemon.service.store
    store.save_rollout(RolloutRecord(
        rollout_id="canary-0099", channel="canary", cve_id=CVE,
        sequence=99, status=ROLLOUT_RUNNING,
        member_ids=["web-00"],
        waves=[{"index": 0, "verdict": "green",
                "member_ids": ["web-00"]}]))
    daemon.shutdown()

    revived = ControlPlaneServer(("127.0.0.1", 0),
                                 data_dir=store.root)
    thread = threading.Thread(target=revived.serve_forever,
                              daemon=True)
    thread.start()
    try:
        record = ControlPlaneClient(revived.url).rollout("canary-0099")
        assert record["status"] == ROLLOUT_INTERRUPTED
        assert "wave(s) had completed" in record["detail"]
        assert record["waves"][0]["member_ids"] == ["web-00"]
    finally:
        revived.shutdown()
        revived.server_close()
        thread.join(timeout=10)


def test_http_quarantine_excludes_member_from_waves(daemon):
    client = ControlPlaneClient(daemon.url)
    for member_id in ("db-00", "db-01", "db-02"):
        client.register_member(member_id, KERNEL, channel="canary")
    assert client.member_action("db-02", "quarantine")["quarantined"]

    record = client.publish("canary", CVE)
    final = client.wait_rollout(record["rollout_id"], timeout=300)
    assert final["status"] == ROLLOUT_COMPLETE
    assert final["member_ids"] == ["db-00", "db-01"]
    assert final["skipped"] == [{"member_id": "db-02",
                                 "reason": "quarantined"}]
    rolled = [m for w in final["waves"] for m in w["member_ids"]]
    assert "db-02" not in rolled
    assert client.member("db-02")["applied_sequence"] == 0

    # Unquarantine and the member catches up on the next publish.
    client.member_action("db-02", "unquarantine")
    record = client.publish("canary", CVE)
    final = client.wait_rollout(record["rollout_id"], timeout=300)
    skipped = {s["member_id"] for s in final["skipped"]}
    # db-02 is at #0 and entry #2 stacks on #1 -> sequence gap.
    assert skipped == {"db-02"}


def test_http_error_statuses(daemon):
    client = ControlPlaneClient(daemon.url)
    with pytest.raises(ControlPlaneClientError) as excinfo:
        client.member("no-such-member")
    assert excinfo.value.status == 404
    assert excinfo.value.is_user_error
    with pytest.raises(ControlPlaneClientError) as excinfo:
        client.publish("stable", "CVE-0000-0000")
    assert excinfo.value.status == 400
    with pytest.raises(ControlPlaneClientError) as excinfo:
        client.register_member("", KERNEL)
    assert excinfo.value.status == 400
    with pytest.raises(ControlPlaneClientError) as excinfo:
        client.rollout("no-such-rollout")
    assert excinfo.value.status == 404
    with pytest.raises(ControlPlaneClientError, match="cve_id"):
        client._request("POST", "/channels/stable/publish", {})
    with pytest.raises(ControlPlaneClientError) as excinfo:
        client._request("GET", "/no/such/route")
    assert excinfo.value.status == 404


#: one ill-typed field per case: (route, body, the field named in 400)
ILL_TYPED = [
    ("/channels/canary/publish", {"cve_id": CVE, "force": "false"},
     "force"),
    ("/channels/canary/publish", {"cve_id": CVE, "canary": "abc"},
     "canary"),
    ("/channels/canary/publish", {"cve_id": CVE, "growth": True},
     "growth"),
    ("/channels/canary/publish", {"cve_id": 2451}, "cve_id"),
    ("/channels/canary/publish", {"cve_id": CVE, "description": 5},
     "description"),
    ("/members", {"member_id": 7, "kernel_version": KERNEL},
     "member_id"),
    ("/members", {"member_id": "web-00", "kernel_version": 2.6},
     "kernel_version"),
    ("/members", {"member_id": "web-00", "kernel_version": KERNEL,
                  "channel": ["canary"]}, "channel"),
    ("/members", {"member_id": "web-00", "kernel_version": KERNEL,
                  "worker": None}, "worker"),
    ("/channels", {"name": {"hotfix": 1}}, "name"),
]


@pytest.mark.parametrize("route,body,field", ILL_TYPED,
                         ids=[field for _, _, field in ILL_TYPED])
def test_http_ill_typed_field_is_a_400_naming_it(daemon, route, body,
                                                 field):
    client = ControlPlaneClient(daemon.url)
    client.register_member("web-00", KERNEL, channel="canary")
    with pytest.raises(ControlPlaneClientError) as excinfo:
        client._request("POST", route, body)
    assert excinfo.value.status == 400
    assert "field %r" % field in str(excinfo.value)
    # nothing was published, registered or created
    assert client.rollouts() == []
    assert [m["member_id"] for m in client.members()] == ["web-00"]
    assert len(client.channels()) == 3


def test_http_counts_must_be_positive_integers(daemon):
    client = ControlPlaneClient(daemon.url)
    for value in (0, -1, 1.5, False):
        with pytest.raises(ControlPlaneClientError, match="'canary'") \
                as excinfo:
            client.publish("canary", CVE, canary=value)
        assert excinfo.value.status == 400
    with pytest.raises(ControlPlaneClientError, match="'force'"):
        client.publish("canary", CVE, force=1)


@pytest.mark.parametrize("name", ["a/b", "../../x", ".hidden", "",
                                  "a b", "x?y", "tab\t"])
def test_http_unaddressable_names_are_refused(daemon, name):
    client = ControlPlaneClient(daemon.url)
    with pytest.raises(ControlPlaneClientError) as excinfo:
        client.create_channel(name)
    assert excinfo.value.status == 400
    with pytest.raises(ControlPlaneClientError) as excinfo:
        client.register_member(name, KERNEL, channel="canary")
    assert excinfo.value.status == 400
    assert {c["name"] for c in client.channels()} == {
        "stable", "canary", "nightly"}
    assert client.members() == []


def test_names_in_use_stay_valid(tmp_path):
    service = make_service(tmp_path)
    for name in ("stable", "canary", "hotfix", KERNEL):
        service.create_channel(name)
    for member_id in ("web-00", "%s-m0" % KERNEL):
        service.register_member(member_id, KERNEL, channel=KERNEL)
    assert service.channel_status(KERNEL)["subscribers"][1][
        "member_id"] == "web-00"


def test_cli_refuses_a_bad_name_with_exit_2(daemon, capsys):
    from repro.cli import main

    assert main(["member", "register", "../../x", "--kernel-version",
                 KERNEL, "--url", daemon.url]) == 2
    assert "must match [A-Za-z0-9._-]+" in capsys.readouterr().err


def test_http_create_channel_and_list(daemon):
    client = ControlPlaneClient(daemon.url)
    client.create_channel("hotfix")
    names = {c["name"] for c in client.channels()}
    assert {"stable", "canary", "nightly", "hotfix"} <= names
    # Unreachable daemon -> transport error, not a traceback.
    dead = ControlPlaneClient("http://127.0.0.1:1", timeout=2)
    with pytest.raises(ControlPlaneClientError,
                       match="cannot reach the control plane"):
        dead.health()


# -- remote execution ---------------------------------------------------------


def test_publish_ships_to_a_shared_worker(tmp_path):
    """Members registered with a worker address roll out remotely:
    the whole publish runs as one fleet-rollout item on the worker,
    with waves streamed back into the record."""
    from repro.distributed import spawn_local_workers

    workers = spawn_local_workers(1)
    try:
        service = make_service(tmp_path)
        for member_id in ("edge-00", "edge-01"):
            service.register_member(member_id, KERNEL,
                                    channel="canary",
                                    worker=workers[0].address)
        record = service.publish("canary", CVE, synchronous=True)
        record = service.rollout(record.rollout_id)
        assert record.worker == workers[0].address
        assert record.status == ROLLOUT_COMPLETE
        assert [len(w["member_ids"]) for w in record.waves] == [1, 1]
        assert record.report["outcome"] == "complete"
        for member_id in ("edge-00", "edge-01"):
            member = service.store.get_member(member_id)
            assert member.applied_sequence == 1
    finally:
        workers[0].stop()


def test_mixed_workers_fall_back_to_local(tmp_path):
    service = make_service(tmp_path)
    service.register_member("a", KERNEL, channel="canary",
                            worker="host-1:9999")
    service.register_member("b", KERNEL, channel="canary",
                            worker="host-2:9999")
    record = service.publish("canary", CVE, synchronous=True)
    record = service.rollout(record.rollout_id)
    # No single shared worker -> the coordinator runs it locally.
    assert record.worker == ""
    assert record.status == ROLLOUT_COMPLETE


# -- serialization ------------------------------------------------------------


def test_rollout_record_roundtrip():
    record = RolloutRecord(
        rollout_id="stable-0002", channel="stable", cve_id=CVE,
        sequence=2, status=ROLLOUT_COMPLETE,
        member_ids=["m-0"], skipped=[{"member_id": "m-1",
                                      "reason": "pinned"}],
        waves=[{"index": 0, "verdict": "green",
                "member_ids": ["m-0"]}])
    clone = RolloutRecord.from_json_dict(
        json.loads(json.dumps(record.to_json_dict())))
    assert clone == record
    assert clone.summary()["status"] == ROLLOUT_COMPLETE


# -- publish gate -------------------------------------------------------------


def _fake_report(verdict="safe", proven=True, run_build=True):
    """An AnalysisReport shaped to hit one gate branch."""
    from repro.analysis import AnalysisReport, Finding
    from repro.analysis.model import (
        EVIDENCE_ABI,
        EVIDENCE_EQUIVALENCE,
        Evidence,
    )

    report = AnalysisReport(run_build_analyzed=run_build)
    report.patched_functions = {"unit.c": ["fn"]}
    if verdict != "safe":
        report.add(Finding(analysis="lint", verdict=verdict,
                           unit="unit.c", symbol="fn",
                           detail="seeded %s" % verdict))
    if proven:
        for kind in (EVIDENCE_ABI, EVIDENCE_EQUIVALENCE):
            report.evidence.append(Evidence(
                kind=kind, unit="unit.c", symbol="fn",
                detail="seeded", sites=["unit.c:fn+0x0: seeded"]))
    return report


def test_publish_records_the_evidence_bundle(tmp_path):
    """A real publish carries the analyzer's proof on the record."""
    service = make_service(tmp_path, ["web-00"])
    record = service.publish("canary", CVE, synchronous=True)
    record = service.rollout(record.rollout_id)
    assert record.status == ROLLOUT_COMPLETE
    assert not record.forced
    bundle = record.analysis
    assert bundle is not None
    assert bundle["verdict"] == "safe"
    assert bundle["proven"] is True
    assert bundle["forced"] is False
    assert bundle["evidence"], "evidence bundle must not be empty"
    kinds = {e["kind"] for e in bundle["evidence"]}
    assert {"abi", "equivalence"} <= kinds
    # The bundle survives the store round-trip.
    revived = ControlPlaneStore(str(tmp_path)).load_rollout(
        record.rollout_id)
    assert revived.analysis == bundle


def test_publish_gate_refuses_a_reject_verdict(tmp_path, monkeypatch):
    import repro.evaluation.analyze as analyze_mod

    monkeypatch.setattr(
        analyze_mod, "analyze_corpus_cve",
        lambda spec, augmented=True: _fake_report(verdict="reject"))
    service = make_service(tmp_path, ["web-00"])
    with pytest.raises(ControlPlaneError, match="publish gate"):
        service.publish("canary", CVE)
    # Nothing was published: the channel did not advance.
    assert service.store.channels.latest_sequence("canary") == 0
    assert service.rollouts() == []


def test_publish_gate_refuses_an_unproven_verdict(tmp_path,
                                                  monkeypatch):
    import repro.evaluation.analyze as analyze_mod

    monkeypatch.setattr(
        analyze_mod, "analyze_corpus_cve",
        lambda spec, augmented=True: _fake_report(proven=False))
    service = make_service(tmp_path, ["web-00"])
    with pytest.raises(ControlPlaneError,
                       match="not backed by machine-checkable"):
        service.publish("canary", CVE)
    assert service.store.channels.latest_sequence("canary") == 0


def test_publish_gate_force_overrides_and_records_it(tmp_path,
                                                     monkeypatch):
    import repro.evaluation.analyze as analyze_mod

    monkeypatch.setattr(
        analyze_mod, "analyze_corpus_cve",
        lambda spec, augmented=True: _fake_report(verdict="reject"))
    service = make_service(tmp_path, ["web-00"])
    record = service.publish("canary", CVE, synchronous=True,
                             force=True)
    record = service.rollout(record.rollout_id)
    assert record.forced
    assert record.analysis["forced"] is True
    assert "rejects" in record.analysis["overridden_refusal"]
    # The override is durable.
    revived = ControlPlaneStore(str(tmp_path)).load_rollout(
        record.rollout_id)
    assert revived.forced


def test_publish_gate_refusal_over_http_is_a_user_error(
        daemon, monkeypatch):
    import repro.evaluation.analyze as analyze_mod

    monkeypatch.setattr(
        analyze_mod, "analyze_corpus_cve",
        lambda spec, augmented=True: _fake_report(proven=False))
    client = ControlPlaneClient(daemon.url)
    client.register_member("web-00", KERNEL, channel="canary")
    with pytest.raises(ControlPlaneClientError) as excinfo:
        client.publish("canary", CVE)
    assert excinfo.value.is_user_error
    # force=True goes through and the bundle rides the record.
    record = client.publish("canary", CVE, force=True)
    assert record["forced"] is True
