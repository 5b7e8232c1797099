"""Crash consistency, compaction and read isolation of the control-plane
journal.

A publish is a short sequence of journal appends: the channel entry,
the rollout record, one record per closed wave, then one batch with the
final record and the members' absorption.  The crash tests stop the
writer at every one of those appends — before any byte of the line
lands, and after half of it — then restart through
``ControlPlaneStore`` + ``ControlPlaneService`` and check that the
registry, the sequence chain and the rollout records agree, and that
the next publish reaches every member.
"""

import contextlib
import os
import stat
import threading

import pytest

import repro.controlplane.store as store_mod
from repro.controlplane import (
    ROLLOUT_COMPLETE,
    ROLLOUT_FAILED,
    ROLLOUT_GATED,
    ROLLOUT_INTERRUPTED,
    ROLLOUT_RUNNING,
    ChannelStore,
    ControlPlaneClient,
    ControlPlaneServer,
    ControlPlaneService,
    ControlPlaneStore,
    Member,
)

CVE = "CVE-2006-2451"  # analyzer-safe, has a semantics probe
KERNEL = "2.6.16-deb3"
MEMBERS = ("web-00", "web-01", "web-02")
#: appends of one 3-member publish: entry, rollout record, a record per
#: wave (canary 1, growth 2: two waves), the final batch
PUBLISH_APPENDS = 5


class Crash(BaseException):
    """The writer dies.  Not an ``Exception``, so no handler in the
    service records it as a failed rollout."""


@contextlib.contextmanager
def writer_stops_at(k, shape):
    """Stop the writer at the k-th journal append from now: before any
    byte of its line (``before``) or after half of it (``half``)."""
    real = store_mod.append_line
    count = [0]

    def append_line(handle, line):
        count[0] += 1
        if count[0] == k:
            if shape == "half":
                real(handle, line[:len(line) // 2])
            raise Crash("writer stopped at append %d" % k)
        real(handle, line)

    store_mod.append_line = append_line
    try:
        with pytest.raises(Crash):
            yield
    finally:
        store_mod.append_line = real


def fleet_service(root):
    service = ControlPlaneService(ControlPlaneStore(root))
    for member_id in MEMBERS:
        service.register_member(member_id, KERNEL, channel="canary")
    return service


def restart(root):
    return ControlPlaneService(ControlPlaneStore(root))


def assert_consistent(service):
    """Registry, sequence chain and rollout records agree."""
    store = service.store
    records = {r.rollout_id: r for r in store.rollouts()}
    assert [r.rollout_id for r in records.values()
            if r.status == ROLLOUT_RUNNING] == []
    for member in store.members():
        # every update a member holds came from a finished rollout
        # that updated it
        for update in member.applied_updates:
            record = records[update["rollout_id"]]
            assert record.report is not None, record.status
            updated = [record.member_ids[i]
                       for i in record.report["updated_members"]]
            assert member.member_id in updated
            assert update["sequence"] == record.sequence
        held = (member.applied_updates[-1]["sequence"]
                if member.applied_updates else 0)
        assert member.applied_sequence == held
    for name in store.channels.names():
        previous = 0
        for entry in store.channels.entries(name):
            if not entry.get("withdrawn"):
                assert entry["base_sequence"] == previous, entry
                previous = entry["sequence"]
        assert store.channels.latest_sequence(name) == previous


def assert_next_publish_reaches_everyone(service):
    record = service.publish("canary", CVE, synchronous=True)
    record = service.rollout(record.rollout_id)
    assert record.status == ROLLOUT_COMPLETE, record.detail
    assert record.member_ids == list(MEMBERS)
    assert record.skipped == []
    for member in service.store.members():
        assert member.applied_sequence == record.sequence
    assert_consistent(service)


def test_a_publish_is_five_appends(tmp_path):
    service = fleet_service(str(tmp_path))
    lines = []
    real = store_mod.append_line

    def append_line(handle, line):
        lines.append(line)
        real(handle, line)

    store_mod.append_line = append_line
    try:
        service.publish("canary", CVE, synchronous=True)
    finally:
        store_mod.append_line = real
    assert len(lines) == PUBLISH_APPENDS
    # the last append carries the final record and every member
    final = lines[-1].decode("ascii")
    assert final.count('["member",') == len(MEMBERS)
    assert '"status":"complete"' in final


@pytest.mark.parametrize("earlier", [0, 1], ids=["first", "second"])
@pytest.mark.parametrize("shape", ["before", "half"])
@pytest.mark.parametrize("k", range(1, PUBLISH_APPENDS + 1))
def test_crash_at_every_publish_append(tmp_path, k, shape, earlier):
    root = str(tmp_path)
    service = fleet_service(root)
    for _ in range(earlier):
        service.publish("canary", CVE, synchronous=True)
    with writer_stops_at(k, shape):
        service.publish("canary", CVE, synchronous=True)

    revived = restart(root)
    assert_consistent(revived)
    entries = revived.store.channels.entries("canary")
    if k == 1:  # nothing of the publish landed
        assert len(entries) == earlier
    else:  # its entry landed, and recovery closed it
        crashed = revived.rollout("canary-%04d" % (earlier + 1))
        assert crashed.status == ROLLOUT_INTERRUPTED
        assert "wave(s) had completed" in crashed.detail
        assert entries[-1]["withdrawn"] is True
    for member in revived.store.members():
        assert member.applied_sequence == earlier
    assert_next_publish_reaches_everyone(revived)


@pytest.mark.parametrize("shape", ["before", "half"])
def test_crash_inside_recover(tmp_path, shape):
    root = str(tmp_path)
    service = fleet_service(root)
    with writer_stops_at(3, shape):  # after the first rollout record
        service.publish("canary", CVE, synchronous=True)
    with writer_stops_at(1, shape):  # recover()'s own write
        restart(root)

    revived = restart(root)
    assert revived.rollout("canary-0001").status == ROLLOUT_INTERRUPTED
    assert revived.store.channels.entries("canary")[0]["withdrawn"]
    assert_consistent(revived)
    assert_next_publish_reaches_everyone(revived)
    # a clean restart finds nothing left to close
    assert restart(root).recover() == []


def assert_entry_withdrawn(service, record, live):
    """``record``'s entry is withdrawn and ``live`` is the newest entry
    members hold; the registry still agrees with the chain."""
    entry = service.store.channels.entries("canary")[-1]
    assert entry["sequence"] == record.sequence
    assert entry["withdrawn"] is True
    assert service.store.channels.latest_sequence("canary") == live
    for member in service.store.members():
        assert member.applied_sequence == live
    assert_consistent(service)


def assert_next_publish_stacks_on(service, live):
    assert_next_publish_reaches_everyone(service)
    assert service.store.channels.entries("canary")[-1][
        "base_sequence"] == live


def test_a_failed_rollout_withdraws_its_entry(tmp_path):
    """A rollout that raised (here: an unreachable worker) updated no
    member, so its entry must not become the base of the next one."""
    service = fleet_service(str(tmp_path))
    service.publish("canary", CVE, synchronous=True)
    for member_id in MEMBERS:
        service.register_member(member_id, KERNEL, channel="canary",
                                worker="127.0.0.1:1")
    record = service.publish("canary", CVE, synchronous=True)
    record = service.rollout(record.rollout_id)
    assert record.status == ROLLOUT_FAILED
    assert_entry_withdrawn(service, record, live=1)

    for member_id in MEMBERS:
        service.register_member(member_id, KERNEL, channel="canary")
    assert_next_publish_stacks_on(service, live=1)


def test_a_gated_rollout_withdraws_its_entry(tmp_path, monkeypatch):
    """A forced publish the fleet's analyzer gate refuses touches no
    machine; the good publish after it reaches every member."""
    from repro.analysis import AnalysisReport, Finding
    import repro.evaluation.analyze as analyze_mod
    import repro.fleet.orchestrator as orchestrator_mod

    service = fleet_service(str(tmp_path))
    service.publish("canary", CVE, synchronous=True)
    reject = AnalysisReport(run_build_analyzed=True)
    reject.add(Finding(analysis="lint", verdict="reject", unit="unit.c",
                       symbol="fn", detail="seeded reject"))
    corpus_update = orchestrator_mod._corpus_update
    with monkeypatch.context() as patch:
        patch.setattr(analyze_mod, "analyze_corpus_cve",
                      lambda spec, augmented=True: reject)
        patch.setattr(orchestrator_mod, "_corpus_update",
                      lambda *args: corpus_update(*args)[:2] + (reject,))
        record = service.publish("canary", CVE, synchronous=True,
                                 force=True)
    record = service.rollout(record.rollout_id)
    assert record.status == ROLLOUT_GATED
    assert record.forced
    assert record.waves == []
    assert_entry_withdrawn(service, record, live=1)

    assert_next_publish_stacks_on(service, live=1)


def test_withdrawn_entries_keep_their_sequence_out_of_the_chain():
    channels = ChannelStore()
    channels.ensure_channel("stable")
    channels.append_entry("stable", {"cve_id": "a"})
    channels.append_entry("stable", {"cve_id": "b"})
    channels.journal.append([channels.withdrawal("stable", 2)])
    assert channels.latest_sequence("stable") == 1
    third = channels.append_entry("stable", {"cve_id": "c"})
    # sequence numbers are never reused; the chain skips #2
    assert (third["sequence"], third["base_sequence"]) == (3, 1)
    assert channels.latest_sequence("stable") == 3
    assert channels.withdrawal("stable", 2) is None


# -- compaction ---------------------------------------------------------------


def _documents(url):
    client = ControlPlaneClient(url)
    rollouts = client.rollouts()
    return {"channels": client.channels(), "members": client.members(),
            "rollouts": rollouts,
            "records": [client.rollout(r["rollout_id"])
                        for r in rollouts]}


def _served_documents(**server_args):
    server = ControlPlaneServer(("127.0.0.1", 0), **server_args)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        return _documents(server.url)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def test_compacted_store_reopens_to_identical_documents(tmp_path,
                                                        monkeypatch):
    compactions = []
    real = store_mod.Journal._compact

    def compact(journal):
        real(journal)
        # the rewritten journal holds exactly the live documents
        assert os.path.getsize(journal.path) == journal.live_bytes
        compactions.append(len(journal.rollouts))

    monkeypatch.setattr(store_mod.Journal, "_compact", compact)
    root = str(tmp_path / "cp")
    service = fleet_service(root)
    service.create_channel("hotfix")
    service.register_member("edge-00", KERNEL, channel="hotfix")
    service.quarantine("web-02")
    for _ in range(6):
        service.publish("canary", CVE, synchronous=True)
        service.publish("hotfix", CVE, synchronous=True)
    service.unquarantine("web-02")
    # compacted while rollouts were still being written
    assert compactions and compactions[0] < 12, compactions

    before = _served_documents(service=service)
    after = _served_documents(data_dir=root)
    assert after == before
    assert [r["status"] for r in before["rollouts"]] == \
        [ROLLOUT_COMPLETE] * 12


def test_appends_and_directory_entries_are_fsynced(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync

    def fsync(fd):
        info = os.fstat(fd)
        synced.append(("dir" if stat.S_ISDIR(info.st_mode) else "file",
                       info.st_ino))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    root = tmp_path / "cp"
    store = ControlPlaneStore(str(root))
    journal = root / "journal.log"
    # the journal's creation is made durable in its directory
    assert ("dir", os.stat(root).st_ino) in synced

    member = Member(member_id="web-00", kernel_version=KERNEL)
    compacted = 0
    for count in range(12):
        inode = os.stat(journal).st_ino
        member.rollouts_seen = count
        before = len(synced)
        store.save_member(member)
        # the append itself is fsynced before save_member returns ...
        assert synced[before] == ("file", inode)
        if len(synced) > before + 1:
            # ... and a compaction syncs the new file, then the rename
            new_inode = os.stat(journal).st_ino
            assert synced[before + 1:] == [("file", new_inode),
                                           ("dir", os.stat(root).st_ino)]
            compacted += 1
    assert compacted
    assert ControlPlaneStore(str(root)).get_member(
        "web-00").rollouts_seen == 11


# -- read isolation -----------------------------------------------------------


def test_reads_share_nothing_with_the_store(tmp_path):
    service = fleet_service(str(tmp_path))
    record = service.publish("canary", CVE, synchronous=True)
    store = service.store

    member = store.get_member("web-00")
    member.applied_updates[0]["cve_id"] = "mutated"
    member.health_history.clear()
    listed = store.members()[0]
    listed.applied_updates.append({"sequence": 99})
    fresh = store.get_member("web-00")
    assert fresh.applied_updates[0]["cve_id"] == CVE
    assert len(fresh.applied_updates) == 1
    assert fresh.health_history

    rollout = store.load_rollout(record.rollout_id)
    rollout.waves[0]["verdict"] = "red"
    rollout.waves[0]["member_ids"].append("intruder")
    store.rollouts("canary")[0].waves[1]["member_ids"].clear()
    fresh = store.load_rollout(record.rollout_id)
    assert fresh.waves[0]["verdict"] == "green"
    assert fresh.waves[0]["member_ids"] == ["web-00"]
    assert fresh.waves[1]["member_ids"] == ["web-01", "web-02"]

    # an object handed to a write is not kept either
    fresh.waves[0]["verdict"] = "red"
    store.save_rollout(fresh)
    fresh.waves[0]["verdict"] = "amber"
    assert store.load_rollout(record.rollout_id).waves[0]["verdict"] \
        == "red"

    channels = ChannelStore()
    channels.ensure_channel("ephemeral")
    payload = {"resulting_tree": {"files": {"a.c": "int x;"}}}
    stored = channels.append_entry("ephemeral", payload)
    payload["resulting_tree"]["files"]["a.c"] = "mutated"
    stored["resulting_tree"]["files"]["a.c"] = "mutated"
    channels.entries("ephemeral")[0]["resulting_tree"]["files"].clear()
    channels.get("ephemeral")["entries"][0]["sequence"] = 7
    entry = channels.entries("ephemeral")[0]
    assert entry["resulting_tree"]["files"] == {"a.c": "int x;"}
    assert entry["sequence"] == 1


# -- concurrency --------------------------------------------------------------


def test_concurrent_writers_lose_no_update(tmp_path, monkeypatch):
    """More writer threads than cores, switching often: every append
    lands once, the chain stays unbroken through compactions, and a
    reopened store reads the same state."""
    import sys

    compactions = []
    real = store_mod.Journal._compact

    def compact(journal):
        compactions.append(journal.file_bytes)
        real(journal)

    monkeypatch.setattr(store_mod.Journal, "_compact", compact)
    store = ControlPlaneStore(str(tmp_path))
    errors = []

    def publisher(index):
        try:
            for count in range(25):
                store.channels.append_entry("stable", {
                    "cve_id": "w%d-%d" % (index, count)})
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    def registrar(index):
        try:
            member = Member(member_id="m-%d" % index,
                            kernel_version=KERNEL)
            for count in range(25):
                member.rollouts_seen = count + 1
                store.save_member(member)
                store.members()
        except Exception as exc:
            errors.append(exc)

    threads = ([threading.Thread(target=publisher, args=(i,))
                for i in range(4)]
               + [threading.Thread(target=registrar, args=(i,))
                  for i in range(4)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert compactions

    for revived in (store, ControlPlaneStore(str(tmp_path))):
        entries = revived.channels.entries("stable")
        assert [e["sequence"] for e in entries] == list(range(1, 101))
        assert [e["base_sequence"] for e in entries] == list(range(100))
        assert len({e["cve_id"] for e in entries}) == 100
        assert [m.rollouts_seen for m in revived.members()] == [25] * 4
