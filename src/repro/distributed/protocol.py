"""The fabric session layer: encrypted, length-prefixed binary frames.

This module owns the **record format**.  Both transports call the
same plain functions here to encode, seal, bound and open records: the
asyncio :class:`~.aio.AsyncChannel` (coordinator and worker) and the
blocking :class:`MessageStream` below, whose one caller is
:mod:`repro.fleet.remote` (the client of a remote rollout).  The two
are therefore byte-compatible by construction, and a sync peer talks
to an async peer freely.

Wire stack, bottom up:

1. **Handshake** (cleartext, tightly bounded raw frames, unchanged
   since v3): the worker banners ``KSP3`` + mode; both sides run the
   :mod:`~repro.distributed.crypto` state machine — mutual HMAC proof
   of the shared secret, then secret-derived keys.  Every session
   needs the secret: an endpoint without one raises :class:`AuthError`
   before it sends or reads a byte.  A peer that fails is dropped
   before one data frame is parsed.  v2 peers (pickle fabric) are
   rejected with an explicit version-mismatch message on both sides.
2. **Records**: ``!I`` length prefix + ciphertext + 16-byte tag.  A
   record's plaintext is a *batch*: one or more ``!I``-length-prefixed
   frames sealed together, so a pipelined burst pays one keystream and
   one MAC instead of one per frame (the same trick TLS records play).
   Every record — all frame types, both directions — is encrypted and
   authenticated with the session keys; per-record sequence numbers
   prevent replay and reordering.  ``max_frame`` bounds **every**
   frame (v2 only bounded handshake frames): a peer claiming an
   oversized record or smuggling an oversized frame inside one raises
   :class:`ProtocolError` and is dropped before the payload is
   interpreted.
3. **Frames** (protocol v4): one version byte plus the kpack of the
   message (:mod:`~repro.distributed.wire`), over a closed class
   registry; the batch prefix above is a frame's only length.  A v3
   peer passes the handshake and is dropped at its first frame with
   an "upgrade both ends" error.  ``pickle`` is gone from the data
   plane: no network byte ever reaches ``pickle.loads``.
"""

from __future__ import annotations

import os
import socket
import struct
from typing import Any, Dict, Optional, Tuple

from repro.distributed import wire
from repro.distributed.crypto import (
    MAX_HANDSHAKE_FRAME,
    CipherPair,
    ClientHandshake,
    FrameAuthError,
    HandshakeError,
    ServerHandshake,
)
from repro.distributed.wire import WireError
from repro.errors import ReproError

#: the version a ``hello`` carries, which is the frame layout's version
PROTOCOL_VERSION = wire.WIRE_VERSION

#: default per-record byte bound (64 MiB); every frame on a session is
#: checked against the session's limit, not just handshake frames
MAX_FRAME = 64 * 1024 * 1024

#: record length prefix; also the per-frame prefix inside a batch and
#: the prefix of a raw handshake frame
_RECORD_HEADER = struct.Struct("!I")
HEADER_SIZE = _RECORD_HEADER.size

#: most frames a writer coalesces into one sealed record
BATCH_FRAMES = 256

#: slack the record-length check allows beyond ``max_frame``: batch
#: frame prefixes (4 * BATCH_FRAMES) plus the auth tag, rounded up
_RECORD_SLACK = 2048

# re-exported frame-type names (the wire vocabulary)
HELLO = wire.HELLO
READY = wire.READY
ITEM = wire.ITEM
RESULT = wire.RESULT
ITEM_DONE = wire.ITEM_DONE
ERROR = wire.ERROR
PING = wire.PING
PONG = wire.PONG
SHUTDOWN = wire.SHUTDOWN


class ProtocolError(ReproError):
    """A malformed, oversized, or version-incompatible frame."""


class AuthError(ProtocolError):
    """The peer failed (or refused) the handshake."""


#: environment variable holding the fabric's shared secret
SECRET_ENV = "KSPLICE_WORKER_SECRET"


def default_secret() -> Optional[bytes]:
    """The fabric secret from ``KSPLICE_WORKER_SECRET``, if set."""
    value = os.environ.get(SECRET_ENV)
    if not value:
        return None
    return value.encode("utf-8")


def require_secret(secret: Optional[bytes]) -> bytes:
    """``secret``; :class:`AuthError` when it is missing or empty."""
    if not secret:
        raise AuthError("the fabric requires a shared secret; pass "
                        "--secret or set %s" % SECRET_ENV)
    return secret


def parse_address(address: str, allow_zero: bool = False) -> tuple:
    """``"host:port"`` -> ``(host, port)`` with validation.

    An IPv6 host is written in brackets (``"[::1]:7000"``) and comes
    back without them, as ``getaddrinfo`` wants it.  ``allow_zero``
    admits port 0 — valid for a *listening* worker (bind an ephemeral
    port), never for a coordinator connecting out.
    """
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ProtocolError("worker address %r is not host:port" % address)
    try:
        port = int(port_text)
    except ValueError:
        raise ProtocolError("worker address %r has a non-numeric port"
                            % address)
    if not (0 if allow_zero else 1) <= port < 65536:
        raise ProtocolError("worker address %r port out of range" % address)
    if "[" in host or "]" in host:
        inner = host[1:-1]
        if not (host.startswith("[") and host.endswith("]")) \
                or not inner or "[" in inner or "]" in inner:
            raise ProtocolError("worker address %r has unbalanced "
                                "brackets" % address)
        host = inner
    return host, port


# --------------------------------------------------------------------------
# The record format (both transports call these)
# --------------------------------------------------------------------------


def pack_batch(frames) -> bytes:
    """Concatenate frames into one record plaintext (length-prefixed)."""
    return b"".join(_RECORD_HEADER.pack(len(frame)) + frame
                    for frame in frames)


def split_batch(blob: bytes, max_frame: int) -> list:
    """Record plaintext -> frames, validating every length."""
    frames = []
    pos = 0
    end = len(blob)
    if end == 0:
        raise ProtocolError("empty record")
    while pos < end:
        if end - pos < _RECORD_HEADER.size:
            raise ProtocolError("truncated frame prefix in record")
        (length,) = _RECORD_HEADER.unpack_from(blob, pos)
        pos += _RECORD_HEADER.size
        if length > max_frame:
            raise ProtocolError(
                "frame of %d bytes inside a record exceeds the "
                "session max_frame (%d); dropping the peer"
                % (length, max_frame))
        if end - pos < length:
            raise ProtocolError("truncated frame in record")
        frames.append(blob[pos:pos + length])
        pos += length
    return frames


def encode_message(message: Dict[str, Any], max_frame: int) -> bytes:
    """One message -> one frame, refused past ``max_frame`` bytes."""
    try:
        frame = wire.encode_frame(message)
    except WireError as exc:
        raise ProtocolError(str(exc))
    if len(frame) > max_frame:
        raise ProtocolError("frame of %d bytes exceeds the session "
                            "max_frame (%d)" % (len(frame), max_frame))
    return frame


def _seal(frames, ciphers: CipherPair) -> bytes:
    plain = pack_batch(frames)
    record = ciphers.tx.seal(plain)
    return _RECORD_HEADER.pack(len(record)) + record


def seal_records(frames, ciphers: CipherPair,
                 max_frame: int) -> bytes:
    """Frames -> length-prefixed sealed records, ready to write.

    Consecutive frames share a record up to ``BATCH_FRAMES`` frames or
    ``max_frame`` frame bytes, which is what :func:`record_length`
    allows a peer to claim.
    """
    records = []
    batch: list = []
    total = 0
    for frame in frames:
        if batch and (total + len(frame) > max_frame
                      or len(batch) >= BATCH_FRAMES):
            records.append(_seal(batch, ciphers))
            batch, total = [], 0
        batch.append(frame)
        total += len(frame)
    if batch:
        records.append(_seal(batch, ciphers))
    return b"".join(records)


def record_length(header: bytes, max_frame: int) -> int:
    """The length a record header claims, refused before allocation
    when no batch that fits ``max_frame`` could be that long."""
    (length,) = _RECORD_HEADER.unpack(header)
    if length > max_frame + _RECORD_SLACK:
        raise ProtocolError(
            "incoming record claims %d bytes (session max_frame is "
            "%d); dropping the peer" % (length, max_frame))
    return length


def open_record(record: bytes, ciphers: CipherPair,
                max_frame: int) -> list:
    """Authenticate one record's body and decode it into messages."""
    try:
        blob = ciphers.rx.open(record)
    except FrameAuthError as exc:
        raise ProtocolError(str(exc))
    try:
        return [wire.decode_frame(frame)
                for frame in split_batch(blob, max_frame)]
    except WireError as exc:
        raise ProtocolError(str(exc))


def raw_frame(payload: bytes) -> bytes:
    """One length-prefixed cleartext handshake frame."""
    return _RECORD_HEADER.pack(len(payload)) + payload


def handshake_length(header: bytes) -> int:
    """The length a handshake frame header claims, bounded by
    ``MAX_HANDSHAKE_FRAME``.

    Used exclusively before the handshake completes, so the bound is
    tight: a peer that claims a large frame here is not speaking the
    protocol and the connection is dropped.
    """
    (length,) = _RECORD_HEADER.unpack(header)
    if length > MAX_HANDSHAKE_FRAME:
        raise AuthError("pre-auth frame claims %d bytes (max %d)"
                        % (length, MAX_HANDSHAKE_FRAME))
    return length


# --------------------------------------------------------------------------
# The blocking transport
# --------------------------------------------------------------------------


def send_raw(sock: socket.socket, payload: bytes) -> None:
    """One raw frame (handshake only)."""
    sock.sendall(raw_frame(payload))


def recv_raw(sock: socket.socket) -> bytes:
    """Read one raw frame, bounded by ``MAX_HANDSHAKE_FRAME``."""
    return _recv_exactly(sock, handshake_length(
        _recv_exactly(sock, HEADER_SIZE)))


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed mid-frame (%d of %d bytes)"
                                  % (count - remaining, count))
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class MessageStream:
    """One side of an established session over a blocking socket.

    Created by :func:`connect_stream` / :func:`accept_stream`, which
    run the handshake and hand over its session ciphers.

    The reader keeps partial records in a buffer across
    ``socket.timeout`` raises — a heartbeat timeout mid-frame does not
    desynchronize the wire; the next :meth:`recv` continues exactly
    where the last one left off.  ``max_frame`` bounds **every**
    incoming record and outgoing frame.
    """

    def __init__(self, sock: socket.socket,
                 ciphers: CipherPair,
                 max_frame: int = MAX_FRAME):
        self.sock = sock
        self.ciphers = ciphers
        self.max_frame = max_frame
        self._buf = bytearray()
        self._pending: list = []  # decoded messages from the last batch

    def send(self, message: Dict[str, Any]) -> None:
        """Encode, seal, and write one message as a one-frame record."""
        self.sock.sendall(seal_records(
            [encode_message(message, self.max_frame)], self.ciphers,
            self.max_frame))

    def recv(self) -> Optional[Dict[str, Any]]:
        """One message; ``None`` on clean EOF; ``socket.timeout``
        propagates with the partial record preserved."""
        while True:
            if self._pending:
                return self._pending.pop(0)
            if len(self._buf) >= HEADER_SIZE:
                end = HEADER_SIZE + record_length(
                    bytes(self._buf[:HEADER_SIZE]), self.max_frame)
                if len(self._buf) >= end:
                    record = bytes(self._buf[HEADER_SIZE:end])
                    del self._buf[:end]
                    self._pending = open_record(record, self.ciphers,
                                                self.max_frame)
                    continue
            chunk = self.sock.recv(65536)
            if not chunk:
                if self._buf:
                    raise ConnectionError("peer closed mid-frame")
                return None
            self._buf += chunk

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def accept_stream(sock: socket.socket, secret: Optional[bytes],
                  max_frame: int = MAX_FRAME) -> MessageStream:
    """Worker side: run the handshake, return the session channel.

    Raises :class:`AuthError` (caller drops the connection) before any
    data frame has been touched.
    """
    handshake = ServerHandshake(require_secret(secret))
    try:
        send_raw(sock, handshake.banner())
        confirm = handshake.verify(recv_raw(sock))
        send_raw(sock, confirm)
    except HandshakeError as exc:
        raise AuthError(str(exc))
    return MessageStream(sock, handshake.ciphers(), max_frame=max_frame)


def connect_stream(sock: socket.socket, secret: Optional[bytes],
                   max_frame: int = MAX_FRAME) -> MessageStream:
    """Client side: run the handshake, return the session channel.

    Raises :class:`AuthError` before a byte moves when ``secret`` is
    missing, and when our secret is rejected (connection closed mid-
    handshake), when the worker cannot prove *it* knows the secret, or
    when the peer speaks protocol v2.
    """
    handshake = ClientHandshake(require_secret(secret))
    try:
        send_raw(sock, handshake.respond(recv_raw(sock)))
        try:
            confirm = recv_raw(sock)
        except ConnectionError:
            raise AuthError("worker rejected the handshake "
                            "(connection closed)")
        handshake.verify(confirm)
    except HandshakeError as exc:
        raise AuthError(str(exc))
    return MessageStream(sock, handshake.ciphers(),
                         max_frame=max_frame)


def encodable(value: Any) -> Tuple[bool, str]:
    """Can ``value`` cross the wire?  ``(ok, reason)``."""
    try:
        wire.kpack(value)
        return True, ""
    except WireError as exc:
        return False, str(exc)
