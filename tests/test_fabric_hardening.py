"""Tests for the hardened fabric: shared-secret handshake auth,
per-item wall-clock timeouts, send-queue backpressure, and remote
fleet rollouts."""

import asyncio
import socket

import pytest

from repro.distributed import (
    AuthError,
    ProtocolError,
    protocol,
    spawn_local_workers,
)
from repro.evaluation import clear_caches, evaluate_corpus
from repro.evaluation.engine import EngineStats
from repro.fleet import RolloutPlan, run_remote_rollout

SECRET = b"fabric-test-secret"


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _connect(worker):
    sock = socket.create_connection((worker.host, worker.port),
                                    timeout=10.0)
    sock.settimeout(10.0)
    return sock


# -- handshake authentication ------------------------------------------------


def test_unauthenticated_peer_dropped_before_any_decode():
    """A client with no secret stops before the handshake sends a
    byte — the worker never decodes a data frame from it — and the
    worker stays up for properly authenticated peers."""
    workers = spawn_local_workers(1, secret=SECRET)
    try:
        sock = _connect(workers[0])
        try:
            with pytest.raises(AuthError, match="requires a shared"):
                protocol.connect_stream(sock, None)
        finally:
            sock.close()

        # Same worker process, correct secret: a full remote rollout.
        report = run_remote_rollout(
            workers[0].address,
            RolloutPlan(cve_id="CVE-2006-2451", fleet_size=2),
            secret=SECRET)
        assert report.outcome == "complete"
    finally:
        workers[0].stop()


def test_wrong_secret_is_rejected():
    workers = spawn_local_workers(1, secret=SECRET)
    try:
        sock = _connect(workers[0])
        try:
            with pytest.raises(ProtocolError):
                protocol.connect_stream(sock, b"not-the-secret")
        finally:
            sock.close()
    finally:
        workers[0].stop()


def test_client_detects_impostor_worker():
    """Mutual auth: a fake worker that demands a secret but cannot
    prove it knows it must be refused by the client."""
    from repro.distributed.crypto import ServerHandshake

    def impostor(server):
        conn, _ = server.accept()
        with conn:
            # A worker that *demands* the secret but holds a wrong one
            # cannot compute the confirmation the client expects.
            handshake = ServerHandshake(b"some-other-secret")
            protocol.send_raw(conn, handshake.banner())
            protocol.recv_raw(conn)  # client proof; impostor can't check
            protocol.send_raw(conn, b"\x00" * 32)  # forged confirmation

    import threading

    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    thread = threading.Thread(target=impostor, args=(server,),
                              daemon=True)
    thread.start()
    try:
        sock = socket.create_connection(server.getsockname(), timeout=10)
        sock.settimeout(10.0)
        try:
            with pytest.raises(AuthError, match="failed to prove"):
                protocol.connect_stream(sock, SECRET)
        finally:
            sock.close()
    finally:
        server.close()
        thread.join(5.0)


def test_client_refuses_anonymous_downgrade():
    """A client must refuse a worker (or a MITM rewriting the banner's
    mode byte) that offers an unauthenticated handshake — never ship
    work to a peer that proved nothing."""

    def impostor(server, banner):
        conn, _ = server.accept()
        with conn:
            protocol.send_raw(conn, banner)
            try:
                protocol.recv_raw(conn)  # client hangs up instead
            except (ConnectionError, OSError, ProtocolError):
                pass

    import threading

    # An open-worker banner: magic, mode byte 0 and a 16-byte nonce,
    # with and without the 256-byte DH public older workers appended.
    for trailer in (b"\x05" * 256, b""):
        banner = b"KSP3" + bytes([0]) + b"\x01" * 16 + trailer
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        thread = threading.Thread(target=impostor, args=(server, banner),
                                  daemon=True)
        thread.start()
        try:
            sock = socket.create_connection(server.getsockname(),
                                            timeout=10)
            sock.settimeout(10.0)
            try:
                with pytest.raises(AuthError, match="downgrade"):
                    protocol.connect_stream(sock, SECRET)
            finally:
                sock.close()
        finally:
            server.close()
            thread.join(5.0)


def test_missing_secret_is_refused_before_any_socket_opens(monkeypatch):
    """No client opens a session without a secret: ``connect_channel``
    and ``run_remote_rollout`` raise AuthError naming ``--secret``
    before connecting, and ``connect_stream`` on a connected socket
    raises it without sending a byte."""
    from repro.distributed import aio

    monkeypatch.delenv(protocol.SECRET_ENV, raising=False)
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()
    try:
        with pytest.raises(AuthError, match="--secret"):
            asyncio.run(aio.connect_channel(host, port, None))
        with pytest.raises(AuthError, match="--secret"):
            run_remote_rollout("%s:%d" % (host, port),
                               RolloutPlan(cve_id="CVE-2006-2451",
                                           fleet_size=1))
        listener.settimeout(0.2)
        with pytest.raises(socket.timeout):
            listener.accept()  # nobody connected
    finally:
        listener.close()

    left, right = socket.socketpair()
    try:
        left.settimeout(5.0)
        with pytest.raises(AuthError, match="--secret"):
            protocol.connect_stream(left, None)
        right.setblocking(False)
        with pytest.raises(BlockingIOError):
            right.recv(1)  # nothing was sent
    finally:
        left.close()
        right.close()


def test_worker_refuses_to_start_without_a_secret(monkeypatch):
    from repro.distributed import serve

    monkeypatch.delenv(protocol.SECRET_ENV, raising=False)

    def listening(host, port):
        pytest.fail("worker listened without a secret")

    with pytest.raises(AuthError, match="--secret"):
        serve(port=0, once=True, ready=listening)


def test_spawned_workers_authenticate_with_a_generated_secret(
        monkeypatch):
    """With no secret anywhere, spawning exports a generated one: a
    coordinator in this process then evaluates exactly like a
    sequential run, and a client holding another secret is refused."""
    from repro.evaluation import CORPUS, normalize_result

    monkeypatch.delenv(protocol.SECRET_ENV, raising=False)
    specs = CORPUS[:2]
    sequential = evaluate_corpus(specs, run_stress=False)
    workers = spawn_local_workers(1)
    stats = EngineStats()
    try:
        generated = protocol.default_secret()
        assert generated
        report = evaluate_corpus(specs, run_stress=False, stats=stats,
                                 workers=[workers[0].address])
        sock = _connect(workers[0])
        try:
            with pytest.raises(AuthError):
                protocol.connect_stream(sock, b"not-" + generated)
        finally:
            sock.close()
    finally:
        workers[0].stop()
    assert not stats.fell_back
    assert stats.workers == 1
    assert [normalize_result(r) for r in report.results] == \
        [normalize_result(r) for r in sequential.results]


def test_authenticated_evaluation_matches_open(monkeypatch):
    """The coordinator picks the secret up from the environment and the
    distributed run completes without fallback."""
    from repro.evaluation import CORPUS

    specs = CORPUS[:2]
    monkeypatch.setenv(protocol.SECRET_ENV, SECRET.decode("utf-8"))
    workers = spawn_local_workers(1, secret=SECRET)
    stats = EngineStats()
    try:
        report = evaluate_corpus(specs, run_stress=False, stats=stats,
                                 workers=[workers[0].address])
    finally:
        workers[0].stop()
    assert not stats.fell_back
    assert all(r.success for r in report.results)


def test_secret_worker_open_coordinator_falls_back(monkeypatch):
    """A coordinator without the worker's secret never connects: the
    run still completes, locally, with the reason recorded."""
    monkeypatch.delenv(protocol.SECRET_ENV, raising=False)
    from repro.evaluation import CORPUS

    workers = spawn_local_workers(1, secret=SECRET)
    stats = EngineStats()
    try:
        report = evaluate_corpus(CORPUS[:2], run_stress=False,
                                 stats=stats,
                                 workers=[workers[0].address])
    finally:
        workers[0].stop()
    assert stats.fell_back
    assert all(r.success for r in report.results)


# -- heartbeats under load ----------------------------------------------------


def test_heartbeat_answered_while_item_runs():
    """A slow item must not starve the heartbeat: the worker evaluates
    in an executor thread while its event loop answers pings, so a
    coordinator with a tight heartbeat budget sees a live worker and
    never retries or rescues."""
    from repro.distributed.coordinator import Coordinator
    from repro.evaluation import CORPUS
    from repro.evaluation.engine import _evaluate_group

    specs = CORPUS[:2]
    # Each item wedges ~2s; three missed 0.2s heartbeats (~0.6s budget)
    # would mark the worker dead long before the item finishes.
    workers = spawn_local_workers(1, wedge_seconds=2.0)
    stats = EngineStats()
    try:
        coordinator = Coordinator([workers[0].address],
                                  heartbeat_interval=0.2,
                                  heartbeat_misses=3)
        results = coordinator.run(specs, run_stress=False, stats=stats)
    finally:
        workers[0].stop()
    assert results is not None and len(results) == len(specs)
    assert stats.retries == 0
    assert stats.local_rescues == 0
    assert stats.workers == 1


# -- reconnect backoff --------------------------------------------------------


def test_reconnect_after_worker_death_is_counted():
    """A worker that dies mid-run is reconnected (the respawned
    listener reuses the port) with exponential backoff, and the
    reconnect shows up in EngineStats per peer."""
    from repro.evaluation import CORPUS

    faulty = spawn_local_workers(1, fail_after_items=1)
    healthy = spawn_local_workers(1)
    stats = EngineStats()
    try:
        report = evaluate_corpus(CORPUS[:4], run_stress=False,
                                 stats=stats,
                                 workers=[faulty[0].address,
                                          healthy[0].address])
    finally:
        faulty[0].stop()
        healthy[0].stop()
    assert all(r.success for r in report.results)
    assert not stats.fell_back
    # The faulty worker died after its first item; the coordinator
    # either reconnected to its respawned listener or exhausted the
    # backoff schedule — both are visible in the stats.
    assert stats.reconnects == sum(stats.reconnects_by_peer.values())


# -- frame-size enforcement ---------------------------------------------------


def test_oversize_frame_drops_peer_post_handshake():
    """max_frame binds *after* the handshake too: a session frame
    larger than the configured cap is a ProtocolError on the sender
    and, wire-injected, on the receiver."""
    from repro.distributed.crypto import SessionKeys, _pair_for

    keys = SessionKeys.from_master(b"m" * 32)
    left, right = socket.socketpair()
    try:
        sender = protocol.MessageStream(left, _pair_for(keys, "client"),
                                        max_frame=1024)
        with pytest.raises(ProtocolError, match="exceeds the session"):
            sender.send({"type": "item", "blob": b"z" * 2048})
        # Receiver side: a forged record header over the cap is
        # rejected before any allocation or decode.
        receiver = protocol.MessageStream(right, _pair_for(keys, "worker"),
                                          max_frame=1024)
        left.sendall((1024 + 4096).to_bytes(4, "big"))
        with pytest.raises(ProtocolError, match="dropping the peer"):
            receiver.recv()
    finally:
        left.close()
        right.close()


# -- backpressure ------------------------------------------------------------


def test_async_channel_backpressure_bounds_queue(monkeypatch):
    """A producer outrunning a stalled peer parks on the bounded send
    queue instead of buffering unboundedly."""
    from repro.distributed import aio

    monkeypatch.setattr(aio, "SEND_QUEUE_SIZE", 2)
    # The stalled peer's reader task stops pulling records off the
    # socket once its receive queue is full; at the default bound (256
    # frames) the count below measured loopback throughput, not the
    # send queue's bound.
    monkeypatch.setattr(aio, "RECV_QUEUE_SIZE", 2)

    async def scenario():
        server_ready = asyncio.Event()
        port_holder = {}
        parked = {"count": 0}

        async def handle(reader, writer):
            channel = await aio.accept_channel(reader, writer, SECRET)
            port_holder["server_channel"] = channel
            server_ready.set()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        client = await aio.connect_channel(host, port, SECRET)
        await server_ready.wait()
        # The client never calls recv(); its reader task parks on the
        # full receive queue, the server's writer drains into the
        # socket until TCP buffers fill, then its queue (bound 2)
        # fills, then send() parks.  Pushing a big payload many times
        # must eventually time out rather than buffer forever.
        big = {"type": "item", "blob": b"x" * 1_000_000}
        sender = port_holder["server_channel"]

        async def flood():
            while True:
                await sender.send(big)
                parked["count"] += 1

        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(flood(), 2.0)
        assert parked["count"] < 200  # bounded, not unbounded buffering
        await client.close()
        await sender.close()
        server.close()
        await server.wait_closed()

    asyncio.run(scenario())


# -- per-item wall-clock timeout ---------------------------------------------


def test_wedged_item_is_abandoned_with_reasoned_failure():
    """A worker whose item wedges past --item-timeout reports a
    reasoned ERROR frame and stays in session; the coordinator
    finishes the corpus itself."""
    from repro.evaluation import CORPUS

    specs = CORPUS[:2]
    workers = spawn_local_workers(1, item_timeout=0.2, wedge_seconds=30.0)
    stats = EngineStats()
    try:
        report = evaluate_corpus(specs, run_stress=False, stats=stats,
                                 workers=[workers[0].address])
    finally:
        workers[0].stop()
    # Results are complete despite every remote attempt timing out.
    assert all(r.success for r in report.results)
    assert len(report.results) == len(specs)
    assert stats.local_rescues == len(specs)


# -- remote fleet rollouts ---------------------------------------------------


def test_remote_rollout_streams_waves_and_matches_local():
    plan = RolloutPlan(cve_id="CVE-2006-2451", fleet_size=3)
    workers = spawn_local_workers(1)
    seen = []
    try:
        remote = run_remote_rollout(workers[0].address, plan,
                                    on_wave=seen.append)
    finally:
        workers[0].stop()
    from repro.fleet import rollout_corpus_cve

    local = rollout_corpus_cve(plan)
    assert remote.to_json() == local.to_json()
    assert [w["index"] for w in seen] == [0, 1]
    assert all(w["verdict"] == "green" for w in seen)
