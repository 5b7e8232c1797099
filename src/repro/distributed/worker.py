"""The worker side of the fabric: one asyncio loop per process.

A worker is a long-lived process that listens for coordinators,
handshakes (encrypted session, then protocol version + disk-cache
warm start), and evaluates the ``item`` messages it is sent — each item
is one kernel version plus an ordered list of
:class:`~repro.evaluation.specs.CveSpec`s, the same shape
``engine._evaluate_group`` runs locally today.

The session runs on the event loop; **evaluation runs in an executor
thread**.  That split is what fixes heartbeat starvation: the loop is
always free to answer ``ping`` with ``pong`` the instant it arrives,
even when the current item has been grinding for minutes — a busy
worker no longer looks dead.  The evaluating thread streams every
finished ``CveResult`` back the moment it exists through
:meth:`~repro.distributed.aio.AsyncChannel.send_threadsafe` (parking on
the bounded send queue when the coordinator reads slowly), then closes
the item with its cache-stats delta (``item-done``).

Because the process outlives items, its in-memory cache tiers warm up
across items: a worker that already evaluated one CVE of a kernel
version holds that version's run build for every later item, which is
what makes the coordinator's per-CVE work-stealing split cheap.

Hardening knobs:

* ``secret`` (CLI ``--secret`` / env ``KSPLICE_WORKER_SECRET``) is
  required: a worker without one refuses to start.  Every peer must
  prove it in the mutual-HMAC handshake, and one that does not is
  dropped before one data frame is decoded.
* ``item_timeout`` bounds each item's wall clock.  A thread cannot be
  killed, so on timeout the worker *abandons* the evaluation, answers
  with a reasoned ``error`` frame, and moves on; late ``result`` frames
  from the zombie thread reuse a retired ``item_id``, which the
  coordinator discards as stale.
* ``max_frame`` bounds every incoming and outgoing session frame; an
  oversized claim drops the peer before allocation.

``spawn_local_workers`` forks workers on ephemeral localhost ports for
tests, benchmarks, and the CI smoke job; each child starts with cold
memory tiers (anything inherited from the parent is dropped) so a
spawned pool behaves like freshly started remote hosts, and shares a
secret with the spawning process so its clients authenticate.
"""

from __future__ import annotations

import asyncio
import os
import reprlib
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.distributed import aio, protocol
from repro.distributed.aio import AsyncChannel
from repro.distributed.protocol import (
    MAX_FRAME,
    AuthError,
    ProtocolError,
)
from repro.errors import ReproError

#: exit status a worker uses when told to die by fail_after_items
_FAULT_EXIT = 17


def _reset_process_caches() -> None:
    """Make this process cache-cold (spawned workers inherit the parent's
    warm tiers under fork; a real remote host would not have them)."""
    from repro.compiler.cache import (
        disable_disk_cache,
        drop_memory_tiers,
        reset_cache_stats,
    )
    from repro.evaluation.kernels import kernel_for_version

    disable_disk_cache()
    drop_memory_tiers()
    reset_cache_stats()
    kernel_for_version.cache_clear()


def _valid_disk_cache(config: Any) -> bool:
    """``None`` or a ``(root, max_entries)`` pair: a str root and an
    int bound of at least 1 (the peer's value reaches the cache)."""
    if config is None:
        return True
    return (isinstance(config, (tuple, list)) and len(config) == 2
            and isinstance(config[0], str)
            and type(config[1]) is int and config[1] >= 1)


class _Session:
    """One coordinator connection: reader coroutine + evaluator task."""

    def __init__(self, channel: AsyncChannel,
                 fail_after_items: Optional[int] = None,
                 item_timeout: Optional[float] = None,
                 wedge_seconds: Optional[float] = None):
        self._channel = channel
        self._items: "asyncio.Queue[Optional[Dict[str, Any]]]" = \
            asyncio.Queue()
        self._fail_after_items = fail_after_items
        self._item_timeout = item_timeout
        self._wedge_seconds = wedge_seconds
        self._items_seen = 0

    async def run(self) -> None:
        if not await self._handshake():
            return
        evaluator = asyncio.get_running_loop().create_task(
            self._evaluate_loop())
        try:
            await self._reader_loop()
        finally:
            await self._items.put(None)
            try:
                await asyncio.wait_for(evaluator, timeout=30.0)
            except (asyncio.TimeoutError, Exception):
                evaluator.cancel()

    async def _handshake(self) -> bool:
        try:
            hello = await self._channel.recv()
        except (ConnectionError, ProtocolError, OSError):
            return False
        if hello is None or hello.get("type") != protocol.HELLO:
            return False
        if hello.get("version") != protocol.PROTOCOL_VERSION:
            await self._channel.send(
                {"type": protocol.ERROR, "item_id": None,
                 "error": "protocol version mismatch: "
                          "coordinator %r, worker %r"
                          % (hello.get("version"),
                             protocol.PROTOCOL_VERSION)})
            return False
        disk_cache = hello.get("disk_cache")
        if not _valid_disk_cache(disk_cache):
            await self._channel.send(
                {"type": protocol.ERROR, "item_id": None,
                 "error": "hello field disk_cache must be None or "
                          "(root, max_entries >= 1), got %s"
                          % reprlib.repr(disk_cache)})
            return False
        from repro.compiler.cache import apply_disk_cache_config

        apply_disk_cache_config(disk_cache)
        await self._channel.send({"type": protocol.READY,
                                  "version": protocol.PROTOCOL_VERSION,
                                  "pid": os.getpid()})
        return True

    async def _reader_loop(self) -> None:
        """The loop side of the session: always free to answer pings —
        evaluation happens on executor threads, so a grinding item never
        delays the pong (the v2 fabric's heartbeat-starvation bug)."""
        while True:
            try:
                message = await self._channel.recv()
            except (ConnectionError, OSError, ProtocolError):
                return
            if message is None:
                return
            kind = message.get("type")
            if kind == protocol.PING:
                await self._channel.send({"type": protocol.PONG,
                                          "seq": message.get("seq")})
            elif kind == protocol.ITEM:
                self._items_seen += 1
                if self._fail_after_items is not None \
                        and self._items_seen >= self._fail_after_items:
                    # Deterministic fault injection: die with the item
                    # in flight, exactly like a worker host crashing
                    # mid-evaluation.  os._exit skips atexit/io — the
                    # coordinator only sees the TCP connection drop.
                    os._exit(_FAULT_EXIT)
                await self._items.put(message)
            elif kind == protocol.SHUTDOWN:
                return

    async def _evaluate_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await self._items.get()
            if item is None:
                return
            future = loop.run_in_executor(None, self._run_item, item)
            if self._item_timeout is None:
                if not await future:
                    return
                continue
            # Wall-clock budget: the item runs on an executor thread; a
            # thread cannot be killed, so on timeout the worker
            # *abandons* it (shield keeps the future alive so the
            # zombie thread finishes quietly) and reports why.  Stray
            # frames the zombie sends later carry this retired item_id
            # and are dropped by the coordinator as stale.
            try:
                ok = await asyncio.wait_for(asyncio.shield(future),
                                            self._item_timeout)
            except asyncio.TimeoutError:
                try:
                    await self._channel.send({
                        "type": protocol.ERROR,
                        "item_id": item.get("item_id"),
                        "error": "item exceeded the worker's "
                                 "--item-timeout of %.1fs; abandoned"
                                 % self._item_timeout})
                except (ConnectionError, ProtocolError, OSError):
                    return
                continue
            if not ok:
                return

    # -- blocking side (executor threads) -----------------------------------

    def _send_from_thread(self, message: Dict[str, Any]) -> None:
        self._channel.send_threadsafe(message)

    def _run_item(self, item: Dict[str, Any]) -> bool:
        """Evaluate one item; ``False`` means the session is dead."""
        item_id = item.get("item_id")
        try:
            if self._wedge_seconds is not None:
                # Fault injection for the timeout tests: the "CVE"
                # wedges exactly like an interpreter loop that never
                # terminates would.
                time.sleep(self._wedge_seconds)
            if item.get("kind") == "fleet-rollout":
                self._run_fleet_item(item)
            else:
                self._run_evaluate_item(item)
            return True
        except (ConnectionError, OSError):
            return False  # coordinator is gone; the session is over
        except ReproError as exc:
            # a typed refusal (a hostile item, say): one line naming it
            error = "%s: %s" % (type(exc).__name__, exc)
        except Exception:
            error = traceback.format_exc()
        try:
            self._send_from_thread({"type": protocol.ERROR,
                                    "item_id": item_id, "error": error})
        except (ConnectionError, OSError):
            return False
        return True

    def _run_evaluate_item(self, item: Dict[str, Any]) -> None:
        from repro.compiler.cache import snapshot_stats, stats_delta
        from repro.evaluation.harness import evaluate_cve

        item_id = item.get("item_id")
        before = snapshot_stats()
        for offset, spec in enumerate(item["specs"]):
            result = evaluate_cve(
                spec, run_stress=item.get("run_stress", True),
                verify_undo=item.get("verify_undo", False))
            self._send_from_thread({"type": protocol.RESULT,
                                    "item_id": item_id, "offset": offset,
                                    "result": result})
        self._send_from_thread({"type": protocol.ITEM_DONE,
                                "item_id": item_id,
                                "cache_delta": stats_delta(before)})

    def _run_fleet_item(self, item: Dict[str, Any]) -> None:
        """A whole canary rollout as one item, waves streamed back.

        The item carries the plan, the pack bytes and the publish
        gate's analysis; the worker applies that pack and never runs
        ``ksplice_create`` (:func:`repro.fleet.remote.execute_rollout_item`).
        """
        from repro.fleet.remote import execute_rollout_item

        item_id = item.get("item_id")

        def on_wave(wave_dict: Dict[str, Any]) -> None:
            self._send_from_thread({"type": protocol.RESULT,
                                    "item_id": item_id,
                                    "offset": wave_dict.get("index", 0),
                                    "wave": wave_dict})

        report = execute_rollout_item(item, on_wave=on_wave)
        self._send_from_thread({"type": protocol.ITEM_DONE,
                                "item_id": item_id, "report": report})


def serve(host: str = "127.0.0.1", port: int = 0, once: bool = False,
          ready: Optional[Callable[[str, int], None]] = None,
          fail_after_items: Optional[int] = None,
          secret: Optional[bytes] = None,
          item_timeout: Optional[float] = None,
          wedge_seconds: Optional[float] = None,
          max_frame: int = MAX_FRAME) -> None:
    """Listen on ``host:port`` and serve coordinator sessions forever.

    One event loop multiplexes every coordinator session.  ``port=0``
    binds an ephemeral port; ``ready`` (if given) receives the bound
    ``(host, port)`` before the accept loop starts — how spawned
    workers report their address.  ``once`` exits after the first
    session (used by tests and the CLI's ``--once``).
    ``fail_after_items`` makes the process exit abruptly upon receiving
    its Nth item — fault injection for the retry tests — and
    ``wedge_seconds`` stalls every item, fault injection for the
    ``item_timeout`` budget.  ``secret=None`` falls back to
    ``KSPLICE_WORKER_SECRET``; with neither, :class:`AuthError` is
    raised before anything listens.  ``max_frame`` bounds every session
    frame in both directions.
    """
    secret = protocol.require_secret(secret or protocol.default_secret())

    async def accept_loop() -> None:
        done = asyncio.Event()

        async def handle(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
            try:
                channel = await aio.accept_channel(reader, writer, secret,
                                                   max_frame=max_frame)
            except (AuthError, ProtocolError, ConnectionError, OSError,
                    asyncio.IncompleteReadError):
                # drop the peer: nothing past the handshake was decoded
                try:
                    writer.close()
                except OSError:
                    pass
                return
            try:
                await _Session(channel,
                               fail_after_items=fail_after_items,
                               item_timeout=item_timeout,
                               wedge_seconds=wedge_seconds).run()
            finally:
                await channel.close()
                if once:
                    done.set()

        server = await asyncio.start_server(handle, host, port)
        bound_host, bound_port = server.sockets[0].getsockname()[:2]
        if ready is not None:
            ready(bound_host, bound_port)
        try:
            if once:
                await done.wait()
            else:
                await server.serve_forever()
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(accept_loop())


# -- localhost spawning (tests, benchmarks, CI smoke) -----------------------


@dataclass
class LocalWorker:
    """Handle on one spawned localhost worker process."""

    process: Any  # multiprocessing.Process
    host: str
    port: int

    @property
    def address(self) -> str:
        return "%s:%d" % (self.host, self.port)

    def kill(self) -> None:
        """SIGKILL — the crash the retry machinery exists for."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=10.0)

    def stop(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=10.0)


def _serve_child(conn, fail_after_items: Optional[int],
                 secret: bytes,
                 item_timeout: Optional[float] = None,
                 wedge_seconds: Optional[float] = None) -> None:
    _reset_process_caches()

    def report(host: str, port: int) -> None:
        conn.send((host, port))
        conn.close()

    serve(ready=report, fail_after_items=fail_after_items,
          secret=secret,
          item_timeout=item_timeout, wedge_seconds=wedge_seconds)


def spawn_local_workers(count: int,
                        fail_after_items: Optional[int] = None,
                        secret: Optional[bytes] = None,
                        item_timeout: Optional[float] = None,
                        wedge_seconds: Optional[float] = None,
                        ) -> List[LocalWorker]:
    """Fork ``count`` workers on ephemeral localhost ports.

    Each child reports its bound address over a pipe before accepting;
    the returned handles are ready to be passed (``.address``) straight
    to ``evaluate_corpus(workers=...)``.  ``fail_after_items`` applies
    to every spawned worker (tests usually spawn the faulty one
    separately); ``secret``/``item_timeout``/``wedge_seconds`` likewise.
    Without ``secret`` the children take ``KSPLICE_WORKER_SECRET`` or,
    when it is unset, a generated per-run secret that is exported to
    it, so this process's coordinator, remote-rollout client and
    control plane authenticate with no further setup.  Callers own
    cleanup: ``worker.stop()`` each handle.
    """
    import multiprocessing

    secret = secret or protocol.default_secret()
    if not secret:
        secret = os.urandom(16).hex().encode("ascii")
        os.environ[protocol.SECRET_ENV] = secret.decode("ascii")
    workers: List[LocalWorker] = []
    try:
        for _ in range(count):
            parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
            process = multiprocessing.Process(
                target=_serve_child,
                args=(child_conn, fail_after_items, secret,
                      item_timeout, wedge_seconds),
                daemon=True)
            process.start()
            child_conn.close()
            if not parent_conn.poll(30.0):
                raise ProtocolError("spawned worker did not report its "
                                    "address within 30s")
            host, port = parent_conn.recv()
            parent_conn.close()
            workers.append(LocalWorker(process=process, host=host,
                                       port=port))
    except Exception:
        for worker in workers:
            worker.stop()
        raise
    return workers
