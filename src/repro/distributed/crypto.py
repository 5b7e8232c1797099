"""Session crypto for the v3 fabric: handshake and encrypted frames.

The v2 handshake authenticated peers (HMAC challenge/response over a
shared secret) but every frame after it crossed the wire in cleartext.
v3 closes that gap: the handshake additionally agrees on per-session
keys, and **every post-handshake frame is encrypted and authenticated**
(encrypt-then-MAC) in both directions.

Every session has one shape: both sides prove the shared secret with
the same domain-separated HMAC challenge/response as v2 (mutual: a
client never sends work to an impostor worker), then derive session
keys from ``HMAC(secret, nonces)``.  Two HMACs per connection — cheap
enough for ten thousand fleet members handshaking in one rollout.

The banner carries a mode byte, and a client refuses any banner that
is not secret mode (an older open worker, or a MITM rewriting the byte
to dodge the challenge).  The byte is bound into every HMAC proof and
into master-key derivation, so a MITM rewriting it desynchronizes the
two sides' keys and the key confirmation fails.

Frame protection (:class:`FrameCipher`, one per direction):

* keystream — SHAKE-128 as an XOF in counter mode:
  ``shake_128(enc_key || seq).digest(len(frame))``; one C call per
  frame, several hundred MB/s;
* tag — ``HMAC-SHA256(mac_key, seq || ciphertext)`` truncated to 16
  bytes, checked with ``compare_digest`` before a single ciphertext
  byte is interpreted;
* ``seq`` — a per-direction 64-bit counter bound into both keystream
  and tag, so frames cannot be replayed, reordered, or reflected.

The handshake itself is a pure state machine over byte blobs
(:class:`ServerHandshake` / :class:`ClientHandshake`) so the blocking
socket layer and the asyncio layer drive the identical logic.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import struct
from dataclasses import dataclass
from typing import Optional

from repro.errors import ReproError

#: raw handshake frames are small; anything bigger is an attack
MAX_HANDSHAKE_FRAME = 2048

NONCE_SIZE = 16
TAG_SIZE = 16
_DIGEST_SIZE = 32

MAGIC = b"KSP3"
MODE_SECRET = 1

_SEQ = struct.Struct("!Q")

#: domain separation labels (v2's client/worker split, carried forward)
_CLIENT_DOMAIN = b"ksplice3-client:"
_WORKER_DOMAIN = b"ksplice3-worker:"
_MASTER_DOMAIN = b"ksplice3-master:"


class HandshakeError(ReproError):
    """The peer failed, refused, or mangled the v3 handshake."""


class FrameAuthError(ReproError):
    """A frame failed decryption/authentication mid-session."""


def _proof(secret: bytes, domain: bytes, nonce: bytes) -> bytes:
    # The mode byte is bound into every proof and the master key: it
    # keeps secret-mode sessions byte-compatible with earlier v3
    # peers, and a MITM rewriting it gets mismatched proofs.
    return hmac.new(secret, domain + bytes([MODE_SECRET]) + nonce,
                    "sha256").digest()


def _derive(master: bytes, label: bytes) -> bytes:
    return hmac.new(master, label, "sha256").digest()


@dataclass
class SessionKeys:
    """Directional keys for one session (client/worker perspective
    agnostic: ``c2w`` always means client-to-worker)."""

    c2w_enc: bytes
    c2w_mac: bytes
    w2c_enc: bytes
    w2c_mac: bytes

    @classmethod
    def from_master(cls, master: bytes) -> "SessionKeys":
        return cls(
            c2w_enc=_derive(master, b"c2w-enc"),
            c2w_mac=_derive(master, b"c2w-mac"),
            w2c_enc=_derive(master, b"w2c-enc"),
            w2c_mac=_derive(master, b"w2c-mac"),
        )


def _master(secret: bytes, worker_nonce: bytes,
            client_nonce: bytes) -> bytes:
    return hmac.new(secret,
                    _MASTER_DOMAIN + bytes([MODE_SECRET]) + worker_nonce
                    + client_nonce,
                    "sha256").digest()


class FrameCipher:
    """Encrypt-then-MAC for one direction of one session."""

    def __init__(self, enc_key: bytes, mac_key: bytes):
        self._enc_key = enc_key
        self._seq = 0
        # hmac.new() re-hashes the key every call; keying once and
        # .copy()-ing per frame keeps the per-frame MAC cost to the
        # two compression blocks that actually cover the data; every
        # record in both directions of every session pays it.
        self._mac = hmac.new(mac_key, digestmod="sha256")
        self._shake = hashlib.shake_128(enc_key)

    def _keystream(self, seq: bytes, length: int) -> bytes:
        xof = self._shake.copy()
        xof.update(seq)
        return xof.digest(length)

    def _tag(self, seq: bytes, ciphertext: bytes) -> bytes:
        mac = self._mac.copy()
        mac.update(seq)
        mac.update(ciphertext)
        return mac.digest()[:TAG_SIZE]

    def seal(self, plaintext: bytes) -> bytes:
        seq = _SEQ.pack(self._seq)
        self._seq += 1
        keystream = self._keystream(seq, len(plaintext))
        ciphertext = (int.from_bytes(plaintext, "little")
                      ^ int.from_bytes(keystream, "little")
                      ).to_bytes(len(plaintext), "little")
        return ciphertext + self._tag(seq, ciphertext)

    def open(self, record: bytes) -> bytes:
        if len(record) < TAG_SIZE:
            raise FrameAuthError("sealed frame shorter than its tag")
        seq = _SEQ.pack(self._seq)
        ciphertext, tag = record[:-TAG_SIZE], record[-TAG_SIZE:]
        if not hmac.compare_digest(tag, self._tag(seq, ciphertext)):
            raise FrameAuthError(
                "frame %d failed authentication (tampered, replayed, "
                "or out of order)" % self._seq)
        self._seq += 1
        keystream = self._keystream(seq, len(ciphertext))
        return (int.from_bytes(ciphertext, "little")
                ^ int.from_bytes(keystream, "little")
                ).to_bytes(len(ciphertext), "little")


@dataclass
class CipherPair:
    """What a finished handshake hands the session layer."""

    tx: FrameCipher
    rx: FrameCipher


def _pair_for(keys: SessionKeys, side: str) -> CipherPair:
    if side == "client":
        return CipherPair(
            tx=FrameCipher(keys.c2w_enc, keys.c2w_mac),
            rx=FrameCipher(keys.w2c_enc, keys.w2c_mac))
    return CipherPair(
        tx=FrameCipher(keys.w2c_enc, keys.w2c_mac),
        rx=FrameCipher(keys.c2w_enc, keys.c2w_mac))


class ServerHandshake:
    """Worker side: emit the banner, verify the response, confirm.

    Drive it::

        hs = ServerHandshake(secret)
        send_raw(hs.banner())
        confirm = hs.verify(recv_raw())   # raises HandshakeError
        send_raw(confirm)
        pair = hs.ciphers()
    """

    def __init__(self, secret: bytes):
        self._secret = secret
        self._worker_nonce = os.urandom(NONCE_SIZE)
        self._keys: Optional[SessionKeys] = None

    def banner(self) -> bytes:
        return MAGIC + bytes([MODE_SECRET]) + self._worker_nonce

    def verify(self, response: bytes) -> bytes:
        """Check the client response; returns the confirm frame."""
        if response[:4] != MAGIC:
            raise HandshakeError(
                "peer did not answer a v3 handshake (got %r...); a v2 "
                "coordinator must be upgraded to v3" % response[:8])
        if len(response) < 5 or response[4] != MODE_SECRET:
            raise HandshakeError("peer answered handshake mode %r, "
                                 "expected %d"
                                 % (response[4:5], MODE_SECRET))
        client_nonce = response[5:5 + NONCE_SIZE]
        proof = response[5 + NONCE_SIZE:]
        if len(client_nonce) != NONCE_SIZE or len(proof) != _DIGEST_SIZE:
            raise HandshakeError("malformed auth response (%d bytes)"
                                 % len(response))
        expected = _proof(self._secret, _CLIENT_DOMAIN,
                          self._worker_nonce + client_nonce)
        if not hmac.compare_digest(proof, expected):
            raise HandshakeError("client failed the shared-secret challenge")
        self._keys = SessionKeys.from_master(
            _master(self._secret, self._worker_nonce, client_nonce))
        return _proof(self._secret, _WORKER_DOMAIN,
                      client_nonce + self._worker_nonce)

    def ciphers(self) -> CipherPair:
        assert self._keys is not None, "verify() must succeed first"
        return _pair_for(self._keys, "worker")


class ClientHandshake:
    """Coordinator side: answer the banner, verify the confirm.

    Drive it::

        hs = ClientHandshake(secret)
        send_raw(hs.respond(recv_raw()))  # raises HandshakeError
        hs.verify(recv_raw())             # raises HandshakeError
        pair = hs.ciphers()
    """

    def __init__(self, secret: bytes):
        self._secret = secret
        self._client_nonce = os.urandom(NONCE_SIZE)
        self._keys: Optional[SessionKeys] = None
        self._expected_confirm = b""

    def respond(self, banner: bytes) -> bytes:
        if banner[:4] != MAGIC:
            raise HandshakeError(
                "worker speaks fabric protocol v2 or older (banner "
                "%r...); v3 required — upgrade the worker" % banner[:8])
        if len(banner) < 5 + NONCE_SIZE:
            raise HandshakeError("malformed v3 banner (%d bytes)"
                                 % len(banner))
        if banner[4] != MODE_SECRET:
            # Downgrade refusal: a banner in any other mode is an
            # older open worker or an impostor/MITM stripping the mode
            # byte to dodge the challenge.  Never ship work to a peer
            # that proved nothing.
            raise HandshakeError(
                "authentication downgrade refused: the worker offered "
                "an unauthenticated (mode %d) handshake; start the "
                "worker with the same --secret / KSPLICE_WORKER_SECRET"
                % banner[4])
        worker_nonce = banner[5:5 + NONCE_SIZE]
        proof = _proof(self._secret, _CLIENT_DOMAIN,
                       worker_nonce + self._client_nonce)
        self._keys = SessionKeys.from_master(
            _master(self._secret, worker_nonce, self._client_nonce))
        self._expected_confirm = _proof(self._secret, _WORKER_DOMAIN,
                                        self._client_nonce + worker_nonce)
        return MAGIC + bytes([MODE_SECRET]) + self._client_nonce + proof

    def verify(self, confirm: bytes) -> None:
        if not hmac.compare_digest(confirm, self._expected_confirm):
            raise HandshakeError("worker failed to prove the shared secret")

    def ciphers(self) -> CipherPair:
        assert self._keys is not None, "verify() must succeed first"
        return _pair_for(self._keys, "client")
