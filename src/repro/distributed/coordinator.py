"""The coordinator: one event loop scheduling items over many workers.

Scheduling model
----------------

Work starts as one **lead item** per kernel version (the version's
first CVE in spec order).  The lead's evaluation warms that version's
run-build cache entry on whichever worker runs it — and, when a shared
disk tier is enabled, for every other worker too.  The moment a
version's lead CVE has a result, the version's remaining CVEs are
released as independent single-CVE items into the shared ready queue,
where **any idle worker steals the next one**.  That removes the local
pool's ``min(jobs, len(groups))`` cap: a version with twenty CVEs no
longer serializes its tail behind one worker, because after the first
CVE the other nineteen are up for grabs.

Concurrency model
-----------------

v2 spent one OS thread per worker; v3 runs **every peer as a task on
one asyncio event loop** — the scheduler state needs no locks at all,
because every mutation happens on the loop.  ``run()`` keeps its
synchronous signature (it owns ``asyncio.run``), so engine callers are
untouched.  Each peer connection is an
:class:`~repro.distributed.aio.AsyncChannel` with bounded send/receive
queues: a slow worker parks its producer instead of ballooning
coordinator memory.

Streaming
---------

Workers push each finished ``CveResult`` (trace included) the moment
it exists, so the caller's ``progress`` callback fires per CVE in
completion order — distributed runs report exactly like sequential
ones, not in per-group bursts.

Failure model
-------------

* **Heartbeats** — while an item is in flight the coordinator pings the
  worker whenever the connection goes quiet; a worker that misses
  several consecutive probes is declared lost.  A killed worker is
  usually detected faster, by the TCP reset.
* **Reconnect with backoff + jitter** — a refused or dropped connection
  is retried up to ``reconnect_attempts`` times per peer, with
  exponentially growing, jittered delays (jitter decorrelates a fleet
  of coordinators hammering a recovering worker).  Reconnect counts
  are surfaced per peer in ``EngineStats``.
* **Bounded retry with backoff** — an item lost with a worker (or
  failed remotely) is requeued for the CVEs that have no result yet,
  with exponentially backed-off not-before times, up to
  ``max_attempts`` total tries; only then is it abandoned remotely.
* **Graceful degradation** — abandoned items, or everything left when
  every worker has died, are evaluated in-process by the coordinator
  (``local_rescues``); results stay complete and deterministic.  If
  *no* worker ever answered the handshake, ``run`` returns ``None``
  and the engine falls back to the local pool exactly like the
  unserializable-spec path.

Cache accounting mirrors ``engine._evaluate_group``: each item returns
its per-cache stats delta, merged per worker into ``stats.caches``.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.distributed import aio, protocol
from repro.distributed.aio import AsyncChannel
from repro.distributed.protocol import (
    MAX_FRAME,
    AuthError,
    ProtocolError,
    parse_address,
)


@dataclass
class WorkItem:
    """One schedulable unit: a kernel version plus spec indices."""

    item_id: str
    version: str
    indices: List[int]
    specs: List[Any]
    #: lead item of its version: completing it releases the parked tail
    warm: bool = False
    attempts: int = 0


@dataclass
class _RunState:
    """The scheduler's state — loop-confined, so no locks."""

    results: List[Optional[Any]]
    ready: "deque[WorkItem]" = field(default_factory=deque)
    retry: List[Tuple[float, WorkItem]] = field(default_factory=list)
    #: version -> indices waiting for that version's lead to complete
    parked: Dict[str, List[int]] = field(default_factory=dict)
    inflight: Dict[int, WorkItem] = field(default_factory=dict)
    released: Dict[str, bool] = field(default_factory=dict)
    connected: int = 0
    handlers_running: int = 0
    dispatched: int = 0
    retries: int = 0
    reconnects: int = 0
    reconnects_by_peer: Dict[str, int] = field(default_factory=dict)


class Coordinator:
    """Runs one corpus evaluation over a set of ``host:port`` workers."""

    def __init__(self, addresses: Sequence[str],
                 connect_timeout: float = 5.0,
                 heartbeat_interval: float = 2.0,
                 heartbeat_misses: int = 3,
                 max_attempts: int = 3,
                 retry_backoff: float = 0.05,
                 reconnect_attempts: int = 3,
                 reconnect_backoff: float = 0.1,
                 max_frame: int = MAX_FRAME):
        self.addresses = [parse_address(a) for a in addresses]
        self.connect_timeout = connect_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_misses = heartbeat_misses
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        self.reconnect_attempts = reconnect_attempts
        self.reconnect_backoff = reconnect_backoff
        self.max_frame = max_frame
        self._ids = itertools.count()
        self._wake: Optional[asyncio.Event] = None

    # -- public entry point -------------------------------------------------

    def run(self, specs: Sequence[Any], run_stress: bool = True,
            verify_undo: bool = False, progress=None,
            stats=None) -> Optional[List[Any]]:
        """Evaluate ``specs`` over the workers; None means "fall back".

        Returns the results in spec order, or ``None`` when the specs
        cannot cross the wire or no worker answered — the same contract
        as the engine's local parallel path.
        """
        ok, _reason = protocol.encodable(list(specs))
        if not ok:
            if stats is not None:
                stats.fallback_reason = "unserializable specs"
            return None

        state = self._build_state(specs)
        self._specs = list(specs)
        self._run_stress = run_stress
        self._verify_undo = verify_undo
        self._progress = progress
        self._stats = stats
        self._state = state

        asyncio.run(self._run_async())

        missing = [i for i, r in enumerate(state.results) if r is None]
        if missing and state.connected == 0:
            if stats is not None and not stats.fallback_reason:
                stats.fallback_reason = (
                    "no workers reachable at %s"
                    % ", ".join("%s:%d" % a for a in self.addresses))
            return None
        if missing:
            self._rescue_locally(missing)
        if stats is not None:
            stats.workers = state.connected
            stats.work_items = state.dispatched
            stats.retries = state.retries
            stats.reconnects = state.reconnects
            stats.reconnects_by_peer = dict(state.reconnects_by_peer)
        return list(state.results)  # type: ignore[arg-type]

    # -- the event loop -----------------------------------------------------

    async def _run_async(self) -> None:
        state = self._state
        self._wake = asyncio.Event()
        state.handlers_running = len(self.addresses)
        tasks = [asyncio.get_running_loop().create_task(
            self._peer(peer_id, host, port))
            for peer_id, (host, port) in enumerate(self.addresses)]
        while not self._all_filled(state) \
                and state.handlers_running > 0 \
                and self._remote_pending(state):
            await self._wait_wake(0.2)
        # Work is done (or undoable remotely): flush the queues so
        # peers mid-backoff or mid-_next_item see nothing pending and
        # exit; stragglers are cancelled after a grace period.
        state.ready.clear()
        state.retry.clear()
        state.parked.clear()
        self._wake.set()
        if tasks:
            await asyncio.wait(tasks, timeout=30.0)
        for task in tasks:
            task.cancel()

    async def _wait_wake(self, timeout: float) -> None:
        wake = self._wake
        assert wake is not None
        wake.clear()
        try:
            await asyncio.wait_for(wake.wait(), timeout)
        except asyncio.TimeoutError:
            pass

    def _notify(self) -> None:
        if self._wake is not None:
            self._wake.set()

    # -- scheduling ---------------------------------------------------------

    def _build_state(self, specs: Sequence[Any]) -> _RunState:
        from repro.evaluation.engine import _group_by_version

        state = _RunState(results=[None] * len(specs))
        for version, indices in _group_by_version(specs):
            lead, rest = indices[0], indices[1:]
            state.ready.append(WorkItem(
                item_id="i%d" % next(self._ids), version=version,
                indices=[lead], specs=[specs[lead]], warm=True))
            if rest:
                state.parked[version] = rest
            state.released[version] = not rest
        return state

    def _all_filled(self, state: _RunState) -> bool:
        return all(r is not None for r in state.results)

    def _remote_pending(self, state: _RunState) -> bool:
        return bool(state.ready or state.retry or state.parked
                    or state.inflight)

    def _release_parked(self, state: _RunState, version: str) -> None:
        """Split a version's tail into stealable single-CVE items."""
        if state.released.get(version):
            return
        state.released[version] = True
        for index in state.parked.pop(version, []):
            state.ready.append(WorkItem(
                item_id="i%d" % next(self._ids), version=version,
                indices=[index], specs=[self._specs[index]]))
        self._notify()

    async def _next_item(self, peer_id: int) -> Optional[WorkItem]:
        state = self._state
        while True:
            if self._all_filled(state):
                return None
            now = time.monotonic()
            due = [entry for entry in state.retry if entry[0] <= now]
            for entry in due:
                state.retry.remove(entry)
                state.ready.append(entry[1])
            if state.ready:
                item = state.ready.popleft()
                state.inflight[peer_id] = item
                state.dispatched += 1
                return item
            if not state.retry and not state.inflight and state.parked:
                # Safety valve: every lead for these versions was
                # abandoned — release the tails rather than stall.
                for version in list(state.parked):
                    self._release_parked(state, version)
                continue
            if not self._remote_pending(state):
                return None
            timeout = 0.2
            if state.retry:
                timeout = min(timeout, max(
                    0.01, min(t for t, _ in state.retry) - now))
            await self._wait_wake(timeout)

    def _record_result(self, item: WorkItem, offset: Any,
                       result: Any) -> None:
        """Store the ``CveResult`` of the spec at ``offset``, or fail."""
        from repro.evaluation.harness import CveResult

        if type(offset) is not int or not 0 <= offset < len(item.specs) \
                or not isinstance(result, CveResult) \
                or result.cve_id != item.specs[offset].cve_id:
            raise ProtocolError("worker sent a result that does not "
                                "belong to item %s" % item.item_id)
        state = self._state
        index = item.indices[offset]
        fresh = state.results[index] is None
        if fresh:
            state.results[index] = result
        if item.warm:
            self._release_parked(state, item.version)
        self._notify()
        if fresh and self._progress is not None:
            self._progress(result)

    def _finish_item(self, peer_id: int, item: WorkItem,
                     cache_delta: Optional[Dict[str, Any]],
                     failed: bool) -> None:
        from repro.compiler.cache import merge_stats_into

        state = self._state
        state.inflight.pop(peer_id, None)
        if cache_delta and self._stats is not None:
            merge_stats_into(self._stats.caches, cache_delta)
        missing = [i for i in item.indices if state.results[i] is None]
        if missing:
            attempts = item.attempts + 1
            if attempts < self.max_attempts:
                retry_item = WorkItem(
                    item_id="i%d" % next(self._ids),
                    version=item.version, indices=missing,
                    specs=[self._specs[i] for i in missing],
                    warm=item.warm, attempts=attempts)
                not_before = time.monotonic() \
                    + self.retry_backoff * (2 ** (attempts - 1))
                state.retry.append((not_before, retry_item))
                state.retries += 1
            elif item.warm:
                # The lead is a lost cause remotely; don't hold the
                # version's tail hostage.
                self._release_parked(state, item.version)
        elif item.warm:
            self._release_parked(state, item.version)
        self._notify()

    # -- per-worker peer task -----------------------------------------------

    async def _peer(self, peer_id: int, host: str, port: int) -> None:
        """Connect, serve, and reconnect (bounded, jittered backoff)."""
        state = self._state
        label = "%s:%d" % (host, port)
        ever_connected = False
        reconnects_used = 0
        try:
            while True:
                if self._all_filled(state) \
                        or not self._remote_pending(state):
                    return
                try:
                    channel = await self._connect(host, port)
                except (AuthError, ProtocolError):
                    return  # a secret mismatch won't fix itself
                except (ConnectionError, OSError, asyncio.TimeoutError):
                    if not await self._backoff(label, reconnects_used):
                        return
                    reconnects_used += 1
                    continue
                if not ever_connected:
                    ever_connected = True
                    state.connected += 1
                    self._notify()
                try:
                    await self._serve_worker(peer_id, channel)
                    return
                except (ConnectionError, OSError, ProtocolError):
                    item = state.inflight.pop(peer_id, None)
                    if item is not None:
                        self._finish_item(peer_id, item, None,
                                          failed=True)
                    if not await self._backoff(label, reconnects_used):
                        return
                    reconnects_used += 1
                finally:
                    await channel.close()
        finally:
            item = state.inflight.pop(peer_id, None)
            state.handlers_running -= 1
            self._notify()
            if item is not None:
                self._finish_item(peer_id, item, None, failed=True)

    async def _backoff(self, label: str, used: int) -> bool:
        """Count one reconnect and sleep its jittered delay.

        ``False`` when the peer's reconnect budget is exhausted or the
        run no longer needs workers.  The jitter (up to half the base
        delay) decorrelates simultaneous reconnects.
        """
        state = self._state
        if used >= self.reconnect_attempts:
            return False
        state.reconnects += 1
        state.reconnects_by_peer[label] = \
            state.reconnects_by_peer.get(label, 0) + 1
        delay = self.reconnect_backoff * (2 ** used)
        delay += random.uniform(0, delay / 2)
        deadline = time.monotonic() + delay
        while True:
            if self._all_filled(state) \
                    or not self._remote_pending(state):
                return False
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return True
            await self._wait_wake(min(remaining, 0.2))

    async def _connect(self, host: str, port: int) -> AsyncChannel:
        channel = await aio.connect_channel(
            host, port, protocol.default_secret(),
            max_frame=self.max_frame,
            connect_timeout=self.connect_timeout)
        from repro.compiler.cache import disk_cache_config

        try:
            await channel.send({
                "type": protocol.HELLO,
                "version": protocol.PROTOCOL_VERSION,
                "disk_cache": disk_cache_config()})
            ready = await channel.recv()
        except (ConnectionError, OSError, ProtocolError):
            await channel.close()
            raise
        if ready is None or ready.get("type") != protocol.READY:
            await channel.close()
            raise ProtocolError(
                "worker %s:%d rejected the handshake: %r"
                % (host, port,
                   (ready or {}).get("error", "connection closed")))
        return channel

    async def _serve_worker(self, peer_id: int,
                            channel: AsyncChannel) -> None:
        while True:
            item = await self._next_item(peer_id)
            if item is None:
                try:
                    await channel.send({"type": protocol.SHUTDOWN})
                except (ConnectionError, OSError, ProtocolError):
                    pass
                return
            await self._run_item(channel, peer_id, item)

    async def _run_item(self, channel: AsyncChannel, peer_id: int,
                        item: WorkItem) -> None:
        await channel.send({
            "type": protocol.ITEM, "item_id": item.item_id,
            "version": item.version, "specs": item.specs,
            "run_stress": self._run_stress,
            "verify_undo": self._verify_undo})
        missed = 0
        ping_seq = 0
        while True:
            try:
                message = await asyncio.wait_for(
                    channel.recv(), timeout=self.heartbeat_interval)
            except asyncio.TimeoutError:
                if missed >= self.heartbeat_misses:
                    raise ConnectionError(
                        "worker missed %d heartbeats" % missed)
                ping_seq += 1
                await channel.send({"type": protocol.PING,
                                    "seq": ping_seq})
                missed += 1
                continue
            if message is None:
                raise ConnectionError("worker closed mid-item")
            missed = 0
            kind = message.get("type")
            if kind == protocol.RESULT \
                    and message.get("item_id") == item.item_id:
                self._record_result(item, message.get("offset"),
                                    message.get("result"))
            elif kind == protocol.ITEM_DONE \
                    and message.get("item_id") == item.item_id:
                self._finish_item(peer_id, item,
                                  message.get("cache_delta"),
                                  failed=False)
                return
            elif kind == protocol.ERROR \
                    and message.get("item_id") in (item.item_id, None):
                # item_id None covers pre-item failures (version
                # mismatch); an error stamped with a *retired* item_id
                # is a zombie thread from an abandoned item and must
                # not fail the item currently in flight.
                self._finish_item(peer_id, item, None, failed=True)
                return
            # pongs and stale-item noise just prove liveness

    # -- local degradation --------------------------------------------------

    def _rescue_locally(self, missing: List[int]) -> None:
        """Evaluate leftover indices in-process (workers all gone or
        retries exhausted); accounting lands in the same stats.  Runs
        after the event loop has exited, so results access is safe."""
        from repro.compiler.cache import (
            merge_stats_into,
            snapshot_stats,
            stats_delta,
        )
        from repro.evaluation.harness import evaluate_cve

        before = snapshot_stats()
        for index in sorted(missing):
            if self._state.results[index] is not None:
                continue  # a straggler worker beat us to it
            result = evaluate_cve(self._specs[index],
                                  run_stress=self._run_stress,
                                  verify_undo=self._verify_undo)
            self._state.results[index] = result
            if self._progress is not None:
                self._progress(result)
            if self._stats is not None:
                self._stats.local_rescues += 1
        if self._stats is not None:
            merge_stats_into(self._stats.caches, stats_delta(before))
