"""The distributed evaluation fabric: protocol, scheduling, failures.

End-to-end tests spawn real worker processes on ephemeral localhost
ports and drive them through ``evaluate_corpus(workers=...)`` — the
same code path ``repro evaluate --workers`` uses — asserting the
fabric's three contracts: results byte-identical (after
``normalize_result``) to a sequential run, per-CVE streamed progress,
and survival of worker crashes via bounded retry and local rescue.
"""

import socket
import threading
import time

import pytest

from repro.compiler.cache import CacheStats, merge_stats_into
from repro.distributed import (
    Coordinator,
    ProtocolError,
    parse_address,
    protocol,
    spawn_local_workers,
)
from repro.evaluation import (
    CORPUS,
    clear_caches,
    evaluate_corpus,
    normalize_result,
)
from repro.evaluation.engine import EngineStats, _group_by_version
from repro.evaluation.harness import CveResult

SECRET = b"fabric-test-secret"


def _pairs():
    """Client and worker cipher pairs of one session."""
    from repro.distributed.crypto import SessionKeys, _pair_for

    keys = SessionKeys.from_master(b"m" * 32)
    return _pair_for(keys, "client"), _pair_for(keys, "worker")


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _slice(count=6, versions=2):
    """The first ``count`` CVEs spanning at most ``versions`` versions."""
    seen, chosen = [], []
    for spec in CORPUS:
        if spec.kernel_version not in seen:
            if len(seen) == versions:
                continue
            seen.append(spec.kernel_version)
        chosen.append(spec)
        if len(chosen) == count:
            break
    return chosen


@pytest.fixture(scope="module")
def sequential_results():
    clear_caches()
    report = evaluate_corpus(_slice(), run_stress=False)
    return [normalize_result(r) for r in report.results]


# -- protocol framing -------------------------------------------------------


def test_message_roundtrip_over_socketpair():
    client, worker = _pairs()
    left, right = socket.socketpair()
    try:
        message = {"type": "item", "specs": [1, 2, 3], "blob": b"x" * 1000}
        protocol.MessageStream(left, client).send(message)
        receiver = protocol.MessageStream(right, worker)
        assert receiver.recv() == message
        left.close()
        assert receiver.recv() is None  # clean EOF
    finally:
        right.close()


def test_oversized_frame_is_rejected_before_allocation():
    left, right = socket.socketpair()
    try:
        header = (protocol.MAX_FRAME + 4096).to_bytes(4, "big")
        left.sendall(header)
        with pytest.raises(ProtocolError):
            protocol.MessageStream(right, _pairs()[1]).recv()
    finally:
        left.close()
        right.close()


def test_message_stream_survives_timeout_mid_frame():
    """A heartbeat timeout mid-frame must not desynchronize the wire."""
    from repro.distributed import wire

    client, worker = _pairs()
    left, right = socket.socketpair()
    try:
        stream = protocol.MessageStream(right, worker)
        frame = wire.encode_frame({"type": "item", "item_id": 7,
                                   "blob": b"y" * 4096})
        expected = wire.decode_frame(frame)
        buf = protocol.seal_records([frame], client, protocol.MAX_FRAME)
        right.settimeout(0.05)
        left.sendall(buf[:100])  # first fragment only
        with pytest.raises(socket.timeout):
            stream.recv()
        left.sendall(buf[100:])  # the rest arrives later
        assert stream.recv() == expected
    finally:
        left.close()
        right.close()


def test_parse_address_validation():
    assert parse_address("10.0.0.1:5000") == ("10.0.0.1", 5000)
    assert parse_address("[::1]:80") == ("::1", 80)
    for bad in ("nocolon", ":5000", "host:", "host:abc", "host:70000",
                "[::1:80", "::1]:80", "[]:80", "[[::1]]:80"):
        with pytest.raises(ProtocolError):
            parse_address(bad)
    with pytest.raises(ProtocolError):
        parse_address("host:0")
    assert parse_address("host:0", allow_zero=True) == ("host", 0)


def _has_ipv6_loopback():
    try:
        with socket.socket(socket.AF_INET6) as probe:
            probe.bind(("::1", 0))
    except OSError:
        return False
    return True


@pytest.mark.skipif(not _has_ipv6_loopback(),
                    reason="host has no IPv6 loopback")
def test_bracketed_ipv6_address_connects():
    """The parsed ``[::1]:port`` is an address ``getaddrinfo`` accepts:
    a v3 session runs over it to a ``::1`` listener."""
    received = {}

    def fake_worker(listener):
        sock, _ = listener.accept()
        with sock:
            stream = protocol.accept_stream(sock, SECRET)
            received["message"] = stream.recv()

    listener = socket.socket(socket.AF_INET6)
    listener.bind(("::1", 0))
    listener.listen(1)
    thread = threading.Thread(target=fake_worker, args=(listener,),
                              daemon=True)
    thread.start()
    try:
        address = "[::1]:%d" % listener.getsockname()[1]
        with socket.create_connection(parse_address(address),
                                      timeout=10.0) as sock:
            protocol.connect_stream(sock, SECRET).send(
                {"type": protocol.SHUTDOWN})
        thread.join(timeout=10.0)
    finally:
        listener.close()
    assert not thread.is_alive()
    assert received["message"] == {"type": protocol.SHUTDOWN}


def test_version_mismatch_rejected_at_handshake(monkeypatch):
    monkeypatch.setenv(protocol.SECRET_ENV, SECRET.decode())
    done = {}

    def fake_worker(listener):
        sock, _ = listener.accept()
        stream = protocol.accept_stream(sock, SECRET)
        hello = stream.recv()
        done["version"] = hello["version"]
        stream.send({"type": protocol.ERROR,
                     "item_id": None,
                     "error": "protocol version mismatch"})
        sock.close()

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]
    thread = threading.Thread(target=fake_worker, args=(listener,),
                              daemon=True)
    thread.start()
    stats = EngineStats()
    coordinator = Coordinator(["127.0.0.1:%d" % port])
    assert coordinator.run(_slice(2), run_stress=False,
                           stats=stats) is None
    assert "no workers reachable" in stats.fallback_reason
    thread.join(timeout=10.0)
    listener.close()
    assert done["version"] == protocol.PROTOCOL_VERSION


def test_stale_error_frame_does_not_fail_inflight_item(monkeypatch):
    """An ERROR stamped with a *retired* item_id — a zombie thread from
    a previously abandoned item reporting late — must be discarded like
    stale results, not fail the item currently in flight."""
    monkeypatch.setenv(protocol.SECRET_ENV, SECRET.decode())
    spec = _slice(1)[0]
    fake_result = CveResult(cve_id=spec.cve_id,
                            kernel_version=spec.kernel_version)

    def fake_worker(listener):
        sock, _ = listener.accept()
        sock.settimeout(10.0)
        stream = protocol.accept_stream(sock, SECRET)
        assert stream.recv()["type"] == protocol.HELLO
        stream.send({"type": protocol.READY,
                     "version": protocol.PROTOCOL_VERSION})
        item = stream.recv()
        assert item["type"] == protocol.ITEM
        # Zombie noise first: an error for an item this coordinator
        # never dispatched to us (retired id).
        stream.send({"type": protocol.ERROR, "item_id": "i999",
                     "error": "late failure from an abandoned item"})
        stream.send({"type": protocol.RESULT,
                     "item_id": item["item_id"], "offset": 0,
                     "result": fake_result})
        stream.send({"type": protocol.ITEM_DONE,
                     "item_id": item["item_id"]})
        while True:
            message = stream.recv()
            if message is None or message["type"] == protocol.SHUTDOWN:
                break
        stream.close()

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]
    thread = threading.Thread(target=fake_worker, args=(listener,),
                              daemon=True)
    thread.start()
    stats = EngineStats()
    coordinator = Coordinator(["127.0.0.1:%d" % port])
    results = coordinator.run(_slice(1), run_stress=False, stats=stats)
    thread.join(timeout=10.0)
    listener.close()
    assert results == [fake_result]
    assert stats.retries == 0  # the stale error cost nothing
    assert stats.local_rescues == 0


def _refusable_result_cases():
    spec = CORPUS[0]
    return [
        (0, CacheStats(hits=1)),
        (0, CveResult(cve_id="CVE-0000-0000",
                      kernel_version=spec.kernel_version)),
        (7, CveResult(cve_id=spec.cve_id,
                      kernel_version=spec.kernel_version)),
    ]


@pytest.mark.parametrize("offset, result", _refusable_result_cases(),
                         ids=["cache-stats", "foreign-cve",
                              "offset-past-item"])
def test_malformed_result_fails_the_item_on_that_peer(monkeypatch, offset,
                                                      result):
    """A ``result`` frame is stored only when its offset indexes the
    item in flight and its value is that spec's ``CveResult``; anything
    else fails the item on that peer, which is then rescued exactly as
    when a worker dies."""
    monkeypatch.setenv(protocol.SECRET_ENV, SECRET.decode())
    specs = CORPUS[:1]
    sequential = [normalize_result(r)
                  for r in evaluate_corpus(specs, run_stress=False).results]

    def fake_worker(listener):
        sock, _ = listener.accept()
        listener.close()  # reconnects are refused
        sock.settimeout(10.0)
        try:
            stream = protocol.accept_stream(sock, SECRET)
            assert stream.recv()["type"] == protocol.HELLO
            stream.send({"type": protocol.READY,
                         "version": protocol.PROTOCOL_VERSION})
            item = stream.recv()
            stream.send({"type": protocol.RESULT,
                         "item_id": item["item_id"], "offset": offset,
                         "result": result})
            stream.send({"type": protocol.ITEM_DONE,
                         "item_id": item["item_id"]})
            while stream.recv() is not None:
                pass
        except (ConnectionError, OSError, ProtocolError):
            pass  # the coordinator dropped us
        finally:
            sock.close()

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]
    thread = threading.Thread(target=fake_worker, args=(listener,),
                              daemon=True)
    thread.start()
    stats = EngineStats()
    try:
        report = evaluate_corpus(specs, run_stress=False, stats=stats,
                                 workers=["127.0.0.1:%d" % port])
    finally:
        thread.join(timeout=10.0)
        listener.close()
    assert [normalize_result(r) for r in report.results] == sequential
    assert not stats.fell_back
    assert stats.local_rescues == 1


# -- end-to-end over spawned localhost workers ------------------------------


def test_distributed_matches_sequential(sequential_results):
    specs = _slice()
    workers = spawn_local_workers(2)
    stats = EngineStats()
    seen = []
    try:
        report = evaluate_corpus(
            specs, run_stress=False, stats=stats,
            workers=[w.address for w in workers],
            progress=lambda r: seen.append(r.cve_id))
    finally:
        for worker in workers:
            worker.stop()
    assert [normalize_result(r) for r in report.results] == \
        sequential_results
    assert not stats.fell_back
    assert stats.workers == 2
    # Streaming granularity: progress fired exactly once per CVE.
    assert sorted(seen) == sorted(s.cve_id for s in specs)
    # Work-stealing granularity: after each version's lead, the tail is
    # dispatched as single-CVE items — one work item per CVE overall.
    assert stats.work_items == len(specs)
    assert stats.groups == len(_group_by_version(specs))
    # Cache deltas rode back per item and were merged per worker.
    assert stats.combined_cache_stats().lookups > 0


def test_worker_killed_mid_run_is_retried(sequential_results):
    """A worker that dies with an item in flight must not lose it."""
    faulty = spawn_local_workers(1, fail_after_items=2)
    healthy = spawn_local_workers(1)
    stats = EngineStats()
    try:
        report = evaluate_corpus(
            _slice(), run_stress=False, stats=stats,
            workers=[faulty[0].address, healthy[0].address])
    finally:
        for worker in faulty + healthy:
            worker.stop()
    assert [normalize_result(r) for r in report.results] == \
        sequential_results
    assert not stats.fell_back
    assert stats.retries >= 1


def test_whole_fleet_dead_degrades_to_local_rescue(sequential_results):
    """Connected-then-crashed workers leave the coordinator to finish
    the corpus in-process — complete, identical results regardless."""
    doomed = spawn_local_workers(1, fail_after_items=1)
    stats = EngineStats()
    try:
        report = evaluate_corpus(_slice(), run_stress=False, stats=stats,
                                 workers=[doomed[0].address])
    finally:
        doomed[0].stop()
    assert [normalize_result(r) for r in report.results] == \
        sequential_results
    assert not stats.fell_back  # the distributed run *completed*
    assert stats.local_rescues == len(_slice())


def test_no_workers_reachable_falls_back(sequential_results, monkeypatch):
    monkeypatch.setenv(protocol.SECRET_ENV, SECRET.decode())
    stats = EngineStats()
    report = evaluate_corpus(_slice(), run_stress=False, stats=stats,
                             workers=["127.0.0.1:9", "127.0.0.1:10"])
    assert stats.fell_back
    assert "no workers reachable" in stats.fallback_reason
    assert [normalize_result(r) for r in report.results] == \
        sequential_results


def test_missing_secret_falls_back_before_connecting(sequential_results,
                                                     monkeypatch):
    """With no shared secret the coordinator opens no socket: the run
    falls back locally and the reason names both ways to set one."""
    monkeypatch.delenv(protocol.SECRET_ENV, raising=False)
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    stats = EngineStats()
    try:
        report = evaluate_corpus(
            _slice(), run_stress=False, stats=stats,
            workers=["127.0.0.1:%d" % listener.getsockname()[1]])
        listener.settimeout(0.2)
        with pytest.raises(socket.timeout):
            listener.accept()  # nobody connected
    finally:
        listener.close()
    assert stats.fell_back
    assert "--secret" in stats.fallback_reason
    assert protocol.SECRET_ENV in stats.fallback_reason
    assert [normalize_result(r) for r in report.results] == \
        sequential_results


def test_unserializable_specs_fall_back_with_reason():
    """A class outside the wire's closed registry cannot cross: the
    coordinator refuses before connecting rather than failing mid-run."""
    from dataclasses import fields

    from repro.evaluation.specs import CveSpec

    class LocalSpec(CveSpec):
        pass

    local = LocalSpec(**{f.name: getattr(CORPUS[0], f.name)
                         for f in fields(CveSpec)})
    stats = EngineStats()
    coordinator = Coordinator(["127.0.0.1:9"])
    assert coordinator.run([local], run_stress=False, stats=stats) is None
    assert stats.fallback_reason == "unserializable specs"


def test_bad_worker_address_falls_back():
    stats = EngineStats()
    report = evaluate_corpus(_slice(2), run_stress=False, stats=stats,
                             workers=["not-an-address"])
    assert stats.fell_back
    assert "not-an-address" in stats.fallback_reason
    assert len(report.results) == 2


# -- sessions driven directly over connect_stream --------------------------


def _open_session(worker, disk_cache=None):
    sock = socket.create_connection((worker.host, worker.port),
                                    timeout=120.0)
    stream = protocol.connect_stream(sock, protocol.default_secret())
    stream.send({"type": protocol.HELLO,
                 "version": protocol.PROTOCOL_VERSION,
                 "disk_cache": disk_cache})
    return stream


def _run_one_item(worker, version, spec):
    """One ``item`` on its own session; returns its cache delta."""
    stream = _open_session(worker)
    try:
        assert stream.recv()["type"] == protocol.READY
        stream.send({"type": protocol.ITEM, "item_id": "i0",
                     "version": version, "specs": [spec],
                     "run_stress": False, "verify_undo": False})
        while True:
            message = stream.recv()
            assert message is not None
            assert message["type"] != protocol.ERROR, message["error"]
            if message["type"] == protocol.ITEM_DONE:
                stream.send({"type": protocol.SHUTDOWN})
                return message["cache_delta"]
    finally:
        stream.close()


def test_cache_delta_merge_across_two_workers_overlapping_keys():
    """Two workers that evaluate the *same* kernel version each pay for
    the same content keys; the merged stats must sum their deltas, not
    collapse them (satellite: overlapping-key delta merging)."""
    version = CORPUS[0].kernel_version
    same_version = [s for s in CORPUS if s.kernel_version == version][:2]
    assert len(same_version) == 2
    workers = spawn_local_workers(2)
    try:
        deltas = [_run_one_item(worker, version, spec)
                  for worker, spec in zip(workers, same_version)]
    finally:
        for worker in workers:
            worker.stop()
    merged = {}
    for delta in deltas:
        merge_stats_into(merged, delta)
    # Both workers were cold and saw no shared disk tier, so each one
    # missed the run-build key for this version once: the merged counter
    # must show both misses even though the content key is identical.
    assert deltas[0]["run-build"].misses == 1
    assert deltas[1]["run-build"].misses == 1
    assert merged["run-build"].misses == 2
    for name in merged:
        assert merged[name].hits == sum(d[name].hits for d in deltas)
        assert merged[name].misses == sum(d[name].misses for d in deltas)


def test_malformed_hello_disk_cache_is_refused_with_error_frame():
    """The worker checks the peer's ``disk_cache`` before it reaches the
    cache: a bad value earns an ``error`` frame naming the field and a
    close, and the same worker then serves a well-formed session."""
    workers = spawn_local_workers(1)
    try:
        for bad in ("xyz", ["/tmp/a", 1, 2], 7, ("/tmp/x", "many"),
                    ("/tmp/x", 0), ("/tmp/x", True), (7, 8)):
            stream = _open_session(workers[0], disk_cache=bad)
            try:
                reply = stream.recv()
                assert reply["type"] == protocol.ERROR, (bad, reply)
                assert reply["item_id"] is None
                assert "disk_cache" in reply["error"]
                assert stream.recv() is None  # then the worker closes
            finally:
                stream.close()
        stream = _open_session(workers[0])
        try:
            assert stream.recv()["type"] == protocol.READY
            stream.send({"type": protocol.PING, "seq": 5})
            assert stream.recv() == {"type": protocol.PONG, "seq": 5}
            stream.send({"type": protocol.SHUTDOWN})
        finally:
            stream.close()
    finally:
        workers[0].stop()


def test_merge_stats_into_overlapping_names_pure():
    target = {}
    merge_stats_into(target, {"parse": CacheStats(hits=2, misses=1),
                              "compile": CacheStats(hits=1)})
    merge_stats_into(target, {"parse": CacheStats(hits=3, misses=4,
                                                  disk_hits=2)})
    assert target["parse"].hits == 5
    assert target["parse"].misses == 5
    assert target["parse"].disk_hits == 2
    assert target["compile"].hits == 1


# -- streaming progress -----------------------------------------------------


def test_distributed_progress_streams_per_cve():
    """Progress must fire per CVE as results stream in, not in one
    burst at the end: with a single worker evaluating sequentially,
    successive callbacks are separated by real evaluation time."""
    specs = _slice(4, versions=1)
    workers = spawn_local_workers(1)
    stamps = []
    try:
        evaluate_corpus(specs, run_stress=False,
                        workers=[workers[0].address],
                        progress=lambda r: stamps.append(
                            (time.perf_counter(), r.cve_id)))
    finally:
        workers[0].stop()
    assert len(stamps) == len(specs)
    assert len({cve for _, cve in stamps}) == len(specs)
    spread = stamps[-1][0] - stamps[0][0]
    # A per-group burst would deliver all callbacks within microseconds;
    # streamed delivery spreads them across the whole evaluation.
    assert spread > 0.01, "progress callbacks arrived in one burst"
