"""The asyncio transport: one event loop, every peer.

v2 spent one OS thread per connection on both ends of the fabric.  v3
multiplexes every peer on one event loop through
:class:`AsyncChannel`, which pairs a **reader task** (decodes records
into a bounded receive queue) with a **writer task** (drains a bounded
send queue through ``drain()``):

* the reader-task design makes ``recv()`` *cancellation-safe* — a
  heartbeat ``wait_for`` timeout never strands half a record, because
  the reader task itself is never cancelled mid-read;
* the bounded send queue is the fabric's **backpressure**: a slow
  consumer parks its producers (``await send(...)`` blocks when the
  queue is full) instead of ballooning coordinator memory with queued
  frames.  Blocking worker threads push into the same queue through
  :meth:`AsyncChannel.send_threadsafe`, so an evaluation thread
  streaming results feels the same backpressure the loop does.

Records are encoded, sealed, bounded and opened by the same
:mod:`~repro.distributed.protocol` functions the synchronous
:class:`~repro.distributed.protocol.MessageStream` calls — the two
transports are byte-compatible on the wire, and a sync peer can talk
to an async peer freely.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any, Dict, Optional

from repro.distributed import protocol
from repro.distributed.crypto import (
    CipherPair,
    ClientHandshake,
    HandshakeError,
    ServerHandshake,
)
from repro.distributed.protocol import MAX_FRAME, AuthError, ProtocolError

#: bound for both per-peer queues (frames, not bytes)
SEND_QUEUE_SIZE = 64
RECV_QUEUE_SIZE = 256


async def _send_raw(writer: asyncio.StreamWriter, payload: bytes) -> None:
    writer.write(protocol.raw_frame(payload))
    await writer.drain()


async def _recv_raw(reader: asyncio.StreamReader) -> bytes:
    length = protocol.handshake_length(
        await reader.readexactly(protocol.HEADER_SIZE))
    return await reader.readexactly(length)


class AsyncChannel:
    """One established session on the event loop."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 ciphers: CipherPair,
                 max_frame: int = MAX_FRAME):
        self._reader = reader
        self._writer = writer
        self._ciphers = ciphers
        self.max_frame = max_frame
        self._loop = asyncio.get_running_loop()
        self._rx: "asyncio.Queue[Optional[Dict[str, Any]]]" = \
            asyncio.Queue(RECV_QUEUE_SIZE)
        self._tx: "asyncio.Queue[Optional[bytes]]" = \
            asyncio.Queue(SEND_QUEUE_SIZE)
        self._rx_error: Optional[BaseException] = None
        self._tx_error: Optional[BaseException] = None
        self._closed = False
        self._reader_task = self._loop.create_task(self._read_loop())
        self._writer_task = self._loop.create_task(self._write_loop())

    # -- reading ------------------------------------------------------------

    async def _read_loop(self) -> None:
        try:
            while True:
                try:
                    header = await self._reader.readexactly(
                        protocol.HEADER_SIZE)
                except asyncio.IncompleteReadError as exc:
                    if exc.partial:
                        raise ConnectionError("peer closed mid-frame")
                    break  # clean EOF
                length = protocol.record_length(header, self.max_frame)
                try:
                    record = await self._reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    raise ConnectionError("peer closed mid-frame")
                for message in protocol.open_record(
                        record, self._ciphers, self.max_frame):
                    await self._rx.put(message)
        except asyncio.CancelledError:
            raise
        except (ConnectionError, ProtocolError, OSError) as exc:
            self._rx_error = exc
        await self._rx.put(None)

    async def recv(self) -> Optional[Dict[str, Any]]:
        """One message; ``None`` on clean EOF; raises the connection's
        terminal error once the queue has drained."""
        message = await self._rx.get()
        if message is None:
            if self._rx_error is not None:
                raise self._rx_error  # noqa: raise-from — original error
            return None
        return message

    # -- writing ------------------------------------------------------------

    async def _write_loop(self) -> None:
        try:
            while True:
                # Coalesce everything already queued into sealed
                # records — a pipelined burst of frames costs one
                # keystream + MAC and one syscall per record, not one
                # per frame.  ``None`` is the close sentinel.
                frames = [await self._tx.get()]
                while frames[-1] is not None and not self._tx.empty():
                    frames.append(self._tx.get_nowait())
                closing = frames[-1] is None
                if closing:
                    frames.pop()
                if frames:
                    self._writer.write(protocol.seal_records(
                        frames, self._ciphers, self.max_frame))
                    await self._writer.drain()
                if closing:
                    return
        except (ConnectionError, OSError) as exc:
            self._tx_error = exc
            # drain producers so senders see the error, not a hang
            while True:
                if await self._tx.get() is None:
                    return
        except asyncio.CancelledError:
            raise

    async def send(self, message: Dict[str, Any]) -> None:
        """Queue one message; parks when the peer's queue is full."""
        if self._tx_error is not None:
            raise ConnectionError("send on a dead channel: %s"
                                  % self._tx_error)
        await self._tx.put(protocol.encode_message(message,
                                                   self.max_frame))

    def send_threadsafe(self, message: Dict[str, Any],
                        timeout: float = 60.0) -> None:
        """Send from a worker thread (blocking, backpressured)."""
        future = asyncio.run_coroutine_threadsafe(self.send(message),
                                                  self._loop)
        future.result(timeout)

    # -- lifecycle ----------------------------------------------------------

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            await asyncio.wait_for(self._tx.put(None), timeout=5.0)
            await asyncio.wait_for(self._writer_task, timeout=5.0)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def accept_channel(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter,
                         secret: Optional[bytes],
                         max_frame: int = MAX_FRAME) -> AsyncChannel:
    """Server side of the v3 handshake on the event loop.

    Raises :class:`AuthError` before a byte moves when ``secret`` is
    missing.
    """
    handshake = ServerHandshake(protocol.require_secret(secret))
    sock = writer.get_extra_info("socket")
    if sock is not None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        await _send_raw(writer, handshake.banner())
        confirm = handshake.verify(await _recv_raw(reader))
        await _send_raw(writer, confirm)
    except HandshakeError as exc:
        raise AuthError(str(exc))
    except asyncio.IncompleteReadError:
        raise AuthError("peer closed during the handshake")
    return AsyncChannel(reader, writer, handshake.ciphers(),
                        max_frame=max_frame)


async def connect_channel(host: str, port: int,
                          secret: Optional[bytes],
                          max_frame: int = MAX_FRAME,
                          connect_timeout: float = 5.0,
                          ) -> AsyncChannel:
    """Connect + client side of the v3 handshake on the event loop;
    :class:`AuthError` before any socket opens when ``secret`` is
    missing."""
    handshake = ClientHandshake(protocol.require_secret(secret))
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout=connect_timeout)
    sock = writer.get_extra_info("socket")
    if sock is not None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        banner = await asyncio.wait_for(_recv_raw(reader),
                                        timeout=connect_timeout)
        await _send_raw(writer, handshake.respond(banner))
        try:
            confirm = await asyncio.wait_for(_recv_raw(reader),
                                             timeout=connect_timeout)
        except asyncio.IncompleteReadError:
            raise AuthError("worker rejected the handshake "
                            "(connection closed)")
        handshake.verify(confirm)
    except (HandshakeError, asyncio.TimeoutError) as exc:
        writer.close()
        if isinstance(exc, asyncio.TimeoutError):
            raise ConnectionError("handshake timed out")
        raise AuthError(str(exc))
    except (AuthError, ConnectionError, OSError,
            asyncio.IncompleteReadError) as exc:
        writer.close()
        if isinstance(exc, asyncio.IncompleteReadError):
            raise AuthError("worker closed during the handshake")
        raise
    return AsyncChannel(reader, writer, handshake.ciphers(),
                        max_frame=max_frame)
