"""Property tests for the protocol v3 binary codec and session crypto.

Hypothesis drives three invariants the fabric depends on:

* **round-trip identity** — any encodable message comes back equal
  through ``encode_frame``/``decode_frame`` (and any kpack-able value
  through ``kpack``/``kunpack``);
* **no raw decode errors** — truncated, corrupted, or hostile bytes
  raise :class:`WireError` / :class:`ProtocolError`, never a raw
  ``struct.error`` / ``UnicodeDecodeError`` / ``IndexError`` that
  would leak codec internals into the fabric's error handling;
* **version fencing** — a peer speaking protocol v2 (or any other
  version) is rejected with an explicit upgrade message, at the frame
  layer and at the handshake banner.
"""

import socket
import struct

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis ships in the image
    pytest.skip("hypothesis unavailable", allow_module_level=True)

from repro.compiler.cache import CacheStats
from repro.distributed import protocol, wire
from repro.distributed.crypto import (
    FrameAuthError,
    SessionKeys,
)
from repro.distributed.protocol import ProtocolError
from repro.distributed.wire import WireError

# -- strategies --------------------------------------------------------------

# Text that survives a round trip must be valid UTF-8 (no lone
# surrogates) — exactly what the fabric ships.
_text = st.text(alphabet=st.characters(codec="utf-8"), max_size=40)

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(allow_nan=False),
    _text,
    st.binary(max_size=200),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_text, children, max_size=4),
    ),
    max_leaves=20,
)

_messages = st.fixed_dictionaries(
    {"type": st.sampled_from(["hello", "ready", "item", "error",
                              "shutdown"])},
    optional={
        "item_id": st.integers(min_value=0, max_value=2 ** 31),
        "blob": st.binary(max_size=200),
        "nested": _values,
    },
)


# -- round-trip identity -----------------------------------------------------


@given(_values)
@settings(max_examples=200)
def test_kpack_roundtrip_identity(value):
    assert wire.kunpack(wire.kpack(value)) == value


@given(_messages)
@settings(max_examples=200)
def test_frame_roundtrip_identity(message):
    assert wire.decode_frame(wire.encode_frame(message)) == message


_counts = st.integers(min_value=0, max_value=2 ** 40)

_struct_bodies = st.one_of(
    st.builds(lambda kind, seq: {"type": kind, "seq": seq},
              st.sampled_from([protocol.PING, protocol.PONG]),
              st.integers(min_value=0, max_value=2 ** 64 - 1)),
    st.builds(lambda item_id, offset, key, value: {
        "type": protocol.RESULT, "item_id": item_id, "offset": offset,
        key: value},
        _text, st.integers(min_value=0, max_value=2 ** 32 - 1),
        st.sampled_from(["wave", "result"]), _values),
    st.builds(lambda item_id, extra: dict(
        extra, type=protocol.ITEM_DONE, item_id=item_id),
        _text, st.fixed_dictionaries({}, optional={
            "cache_delta": st.dictionaries(
                _text, st.builds(CacheStats, _counts, _counts, _counts,
                                 _counts, _counts), max_size=3),
            "report": _values})),
)


@given(_struct_bodies)
@settings(max_examples=200)
def test_struct_packed_frame_roundtrip(message):
    """``ping``/``pong``, ``result`` and ``item-done`` (struct-packed
    bodies before v4) round-trip through the one kpack frame codec."""
    assert wire.decode_frame(wire.encode_frame(message)) == message


@pytest.mark.parametrize("body", [
    {"type": "telemetry"}, {"seq": 1}, ["shutdown"], {"type": "ping", 7: 7},
], ids=["unknown-type", "no-type", "non-dict-body", "non-str-key"])
def test_unknown_frame_types_and_non_dict_bodies_are_wire_errors(body):
    """An unknown type name, or a body that is not a dict with str
    keys, is a ``WireError``."""
    frame = bytes([wire.WIRE_VERSION]) + wire.kpack(body)
    with pytest.raises(WireError, match="frame type|message dict|field name"):
        wire.decode_frame(frame)


@pytest.mark.parametrize("value", [{1, 2}, frozenset([3])],
                         ids=["set", "frozenset"])
def test_sets_are_not_wire_values(value):
    """Encoding a set is refused, and v3's set (0x0A) and frozenset
    (0x0B) tags decode as unknown tags."""
    with pytest.raises(WireError, match="not wire-encodable"):
        wire.kpack(value)
    with pytest.raises(WireError, match="not wire-encodable"):
        wire.encode_frame({"type": "item", "specs": value})
    for tag in (0x0A, 0x0B):
        with pytest.raises(WireError, match="unknown kpack tag 0x%02x" % tag):
            wire.kunpack(bytes([tag, 1, 0x03, 2]))


def test_registered_object_roundtrip():
    from repro.evaluation import CORPUS

    spec = CORPUS[0]
    back = wire.kunpack(wire.kpack(spec))
    assert type(back) is type(spec)
    assert back == spec


# -- object and enum tags name their kind of class ---------------------------

_T_OBJECT, _T_ENUM = 0x0C, 0x0D
_CLASSES = [wire._registered_class(i) for i in range(len(wire.REGISTRY))]


def test_object_tag_refuses_an_enum_class():
    """Tag 0x0C on registry id 0 (``CveCategory``) once built an enum
    member with no ``_name_``, whose ``repr()`` raised later."""
    with pytest.raises(WireError, match="CveCategory, which is an enum"):
        wire.kunpack(bytes([_T_OBJECT, 0, 0x09, 0]))


def test_enum_tag_refuses_a_dataclass():
    """Tag 0x0D on ``CacheStats`` once called ``CacheStats(hits=1)``."""
    with pytest.raises(WireError, match="CacheStats, which is not an enum"):
        wire.kunpack(bytes([_T_ENUM, 0x0D, 0x03, 0x02]))


def test_object_state_omitting_defaults_decodes_whole():
    """``{"verdict": 1}`` for an ``AnalysisReport`` once built an object
    whose only attribute was ``verdict``; every other field now takes
    its default."""
    from repro.analysis import AnalysisReport

    report = wire.kunpack(bytes([_T_OBJECT, 0x0C, 0x09, 0x01, 0x05, 0x07])
                          + b"verdict" + bytes([0x03, 0x02]))
    assert type(report) is AnalysisReport
    assert report == AnalysisReport(verdict=1)
    assert "findings=[]" in repr(report)


@pytest.mark.parametrize("state, problem", [
    ({"function": "f"}, "lacks its field 'args'"),
    ({"function": "f", "args": [], "bogus": 1}, "has no field 'bogus'"),
    ({"function": "f", "args": [], 7: 1}, "has no field 7"),
], ids=["missing-field", "unknown-field", "non-str-field"])
def test_object_state_names_exactly_its_fields(state, problem):
    probe_call = [c.__name__ for c in _CLASSES].index("ProbeCall")
    with pytest.raises(WireError, match=problem):
        wire.kunpack(bytes([_T_OBJECT, probe_call]) + wire.kpack(state))


def _fields(cls):
    import dataclasses

    return {f.name: f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
            for f in dataclasses.fields(cls)}


def _payloads(cls):
    """Values worth decoding as ``cls``'s state or enum value: a
    well-formed one most of the time, anything else otherwise."""
    import enum

    if issubclass(cls, enum.Enum):
        return st.one_of(st.sampled_from([m.value for m in cls]), _values)
    fields = _fields(cls)
    required = {name: _values for name, needed in fields.items()
                if needed}
    optional = {name: _values for name, needed in fields.items()
                if not needed}
    keys = st.one_of(st.sampled_from(sorted(fields)), _text)
    return st.one_of(st.fixed_dictionaries(required, optional=optional),
                     st.dictionaries(keys, _values, max_size=6), _values)


@given(st.sampled_from([_T_OBJECT, _T_ENUM]),
       st.integers(min_value=0, max_value=len(wire.REGISTRY) - 1),
       st.data())
@settings(max_examples=400)
def test_every_tag_and_registry_id_decodes_whole_or_not_at_all(
        tag, class_id, data):
    """For every (tag, registry id) pair: the value decodes exactly
    when the tag names the class's kind and the payload fits it, and
    then it is a whole instance of that class."""
    import enum

    cls = _CLASSES[class_id]
    is_enum = issubclass(cls, enum.Enum)
    payload = data.draw(_payloads(cls))
    if is_enum:
        fits = tag == _T_ENUM and any(
            type(payload) is type(m.value) and payload == m.value
            for m in cls)
    else:
        fields = _fields(cls)
        fits = (tag == _T_OBJECT and type(payload) is dict
                and all(key in fields for key in payload)
                and all(name in payload
                        for name, needed in fields.items() if needed))
    blob = bytes([tag, class_id]) + wire.kpack(payload)
    try:
        value = wire.kunpack(blob)
    except WireError:
        assert not fits
        return
    assert fits
    assert type(value) is cls
    if not is_enum:
        assert set(_fields(cls)) <= set(vars(value))
    repr(value)


# -- hostile bytes never leak raw errors -------------------------------------

_RAW_ERRORS = (struct.error, UnicodeDecodeError, IndexError, KeyError,
               ValueError, MemoryError, OverflowError)


@given(_messages, st.integers(min_value=0, max_value=400))
@settings(max_examples=200)
def test_truncated_frame_is_wire_error(message, cut):
    frame = wire.encode_frame(message)
    truncated = frame[:min(cut, max(0, len(frame) - 1))]
    try:
        wire.decode_frame(truncated)
    except WireError:
        pass
    except _RAW_ERRORS as exc:  # pragma: no cover - the regression
        pytest.fail("raw %s leaked: %s" % (type(exc).__name__, exc))


@given(_messages, st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=255))
@settings(max_examples=200)
def test_corrupted_frame_never_leaks_raw_errors(message, index, byte):
    frame = bytearray(wire.encode_frame(message))
    frame[index % len(frame)] = byte
    try:
        decoded = wire.decode_frame(bytes(frame))
    except WireError:
        return
    except _RAW_ERRORS as exc:  # pragma: no cover - the regression
        pytest.fail("raw %s leaked: %s" % (type(exc).__name__, exc))
    assert isinstance(decoded, dict)  # lucky corruption must still parse


@given(st.binary(max_size=400))
@settings(max_examples=200)
def test_random_bytes_are_wire_error(blob):
    try:
        decoded = wire.decode_frame(blob)
    except WireError:
        return
    except _RAW_ERRORS as exc:  # pragma: no cover - the regression
        pytest.fail("raw %s leaked: %s" % (type(exc).__name__, exc))
    assert isinstance(decoded, dict)


@given(st.binary(max_size=200))
@settings(max_examples=200)
def test_random_batch_split_is_protocol_error(blob):
    try:
        frames = protocol.split_batch(blob, protocol.MAX_FRAME)
    except ProtocolError:
        return
    except _RAW_ERRORS as exc:  # pragma: no cover - the regression
        pytest.fail("raw %s leaked: %s" % (type(exc).__name__, exc))
    assert all(isinstance(f, bytes) for f in frames)


@given(st.lists(st.binary(min_size=1, max_size=100), min_size=1,
                max_size=8))
def test_batch_roundtrip(frames):
    blob = protocol.pack_batch(frames)
    assert protocol.split_batch(blob, protocol.MAX_FRAME) == frames


# -- session crypto ----------------------------------------------------------


def _pair():
    keys = SessionKeys.from_master(b"m" * 32)
    from repro.distributed.crypto import _pair_for

    return _pair_for(keys, "client"), _pair_for(keys, "worker")


@given(st.binary(min_size=1, max_size=500))
@settings(max_examples=100)
def test_seal_open_roundtrip(plaintext):
    client, worker = _pair()
    assert worker.rx.open(client.tx.seal(plaintext)) == plaintext


@given(st.binary(min_size=1, max_size=200),
       st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=255))
@settings(max_examples=100)
def test_tampered_record_is_rejected(plaintext, index, byte):
    client, worker = _pair()
    record = bytearray(client.tx.seal(plaintext))
    position = index % len(record)
    if record[position] == byte:
        byte = (byte + 1) % 256
    record[position] = byte
    with pytest.raises(FrameAuthError):
        worker.rx.open(bytes(record))


def test_secret_session_transcript_is_pinned(monkeypatch):
    """A secret-mode session keeps its exact handshake bytes: the mode
    byte stays bound into every proof and into the master key, so a
    peer from an earlier release with the same secret completes the
    handshake.  The record pins the v4 frame layout; a v3 peer's
    records are refused at their first frame."""
    import hashlib

    from repro.distributed import crypto

    secret = b"transcript-secret"
    monkeypatch.setattr(crypto.os, "urandom", lambda size: b"\x01" * 16)
    server = crypto.ServerHandshake(secret)
    monkeypatch.setattr(crypto.os, "urandom", lambda size: b"\x02" * 16)
    client = crypto.ClientHandshake(secret)
    banner = server.banner()
    response = client.respond(banner)
    confirm = server.verify(response)
    client.verify(confirm)
    hello = {"type": "hello", "version": 4, "disk_cache": None}
    record = protocol.seal_records(
        [protocol.encode_message(hello, protocol.MAX_FRAME)],
        client.ciphers(), protocol.MAX_FRAME)
    digests = {name: (len(blob), hashlib.sha256(blob).hexdigest())
               for name, blob in (("banner", banner),
                                  ("response", response),
                                  ("confirm", confirm),
                                  ("record", record))}
    assert digests == {
        "banner": (21, "a194b063c307fac6f041a4e517f52019"
                       "e4c0de1cf3a28ed08a6466a555038e2f"),
        "response": (53, "376db46d324f8a621c18baae21acc075"
                         "56504c1292b0cb6e812eae909ad316ff"),
        "confirm": (32, "461f3c3498af7c1b46267d67220d9148"
                        "9bdca770948a407efd536cd047bbf662"),
        "record": (64, "c69d387dc865254b555da2ff97c52424"
                       "6ee1dcc2cab43c8eb15a8e814f5a82b4"),
    }
    assert protocol.open_record(record[protocol.HEADER_SIZE:],
                                server.ciphers(),
                                protocol.MAX_FRAME) == [hello]


def test_replayed_record_is_rejected():
    client, worker = _pair()
    record = client.tx.seal(b"only once")
    assert worker.rx.open(record) == b"only once"
    with pytest.raises(FrameAuthError):
        worker.rx.open(record)


@given(st.integers(min_value=60, max_value=600),
       st.integers(min_value=323, max_value=4096))
@settings(max_examples=50)
def test_sealed_burst_splits_within_the_record_bound(count, max_frame):
    """``seal_records`` cuts a burst too big for one record (at least
    6 KiB of frames, over any ``max_frame`` drawn plus its slack) into
    records that each pass ``record_length`` and open, in order, back
    to the same messages."""
    messages = [{"type": "item", "blob": bytes([i % 256]) * (100 + i % 200)}
                for i in range(count)]
    client, worker = _pair()
    stream = protocol.seal_records(
        [protocol.encode_message(m, max_frame) for m in messages],
        client, max_frame)
    received, pos = [], 0
    while pos < len(stream):
        body = pos + protocol.HEADER_SIZE
        end = body + protocol.record_length(stream[pos:body], max_frame)
        received += protocol.open_record(stream[body:end], worker,
                                         max_frame)
        pos = end
    assert received == messages


# -- version fencing ---------------------------------------------------------


@given(st.integers(min_value=0, max_value=255)
       .filter(lambda v: v != wire.WIRE_VERSION))
def test_other_frame_versions_rejected_with_upgrade_message(version):
    frame = bytearray(wire.encode_frame({"type": "shutdown"}))
    frame[0] = version
    with pytest.raises(WireError, match="upgrade both ends"):
        wire.decode_frame(bytes(frame))


def test_v2_pickle_banner_rejected_at_handshake():
    """A v2 worker opened the session with a raw pickled HELLO (or the
    HMAC AUTH banner) — no KSP3 magic either way.  The v3 client must
    name the version mismatch, not crash parsing garbage."""
    import pickle

    from repro.distributed.crypto import ClientHandshake

    for v2_banner in (
            pickle.dumps({"type": "hello", "version": 2}),
            b"AUTH?" + b"\x00" * 16):
        handshake = ClientHandshake(b"secret")
        with pytest.raises(Exception, match="v2 or older|v3 required"):
            handshake.respond(v2_banner)


def test_v2_style_client_rejected_by_worker():
    """A coordinator that skips the crypto handshake and speaks
    length-prefixed pickle at a v3 worker is dropped cleanly."""
    left, right = socket.socketpair()
    try:
        import pickle

        payload = pickle.dumps({"type": "hello", "version": 2})
        left.sendall(len(payload).to_bytes(8, "big") + payload)
        with pytest.raises((ProtocolError, ConnectionError)):
            protocol.accept_stream(right, b"secret")
    finally:
        left.close()
        right.close()
