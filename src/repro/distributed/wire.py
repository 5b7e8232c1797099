"""Protocol v3: the compact binary wire encoding ("kpack").

Protocol v2 shipped every frame as a pickle, which has two costs the
fabric can no longer afford:

* **security** — ``pickle.loads`` on network bytes is arbitrary code
  execution; the HMAC handshake authenticated peers but one leaked
  secret (or an open worker) handed an attacker the process;
* **size/speed** — pickle frames carry class descriptors and memo
  machinery per frame; heartbeats were ~60 bytes of pickle for one
  integer.

v3 replaces pickle on the data plane with a purpose-built codec:

Frame layout
------------

Every frame is one 8-byte struct-packed header followed by a body::

    !BBHI  =  version (3) | type code | flags | body length

The type code selects a body layout.  Hot frame types get dedicated
struct-packed bodies (a ``pong`` body is 8 bytes, down from ~60):

==============  ==========================================================
type            body
==============  ==========================================================
``ping/pong``   ``!Q`` heartbeat sequence number
``result``      varstr item_id + ``!I`` offset + kpack value
``item-done``   varstr item_id + kpack cache-delta/report dict
(all others)    kpack of the message dict minus its ``type`` key
==============  ==========================================================

kpack values
------------

A tagged, length-prefixed binary tree over exactly the types the fabric
ships: ``None``/bool/int/float/str/bytes/list/tuple/dict/set/frozenset
plus a **closed registry** of repro classes (specs in, results + traces
+ analysis reports + cache deltas out).  Registered instances encode as
``registry id + state dict`` and decode through ``object.__new__`` on
the registered class — the wire can only ever name classes in
:data:`REGISTRY`, so untrusted bytes choose *data shapes*, never code.
Integers are zigzag LEB128 varints (a heartbeat seq is 1-2 bytes), and
collection counts are validated against the remaining buffer before
anything is allocated, so a corrupt count cannot balloon memory.

Every malformed input — truncated buffer, unknown tag, bad UTF-8, an
unregistered class id, trailing garbage, absurd counts — decodes to
:class:`WireError` (a :class:`~repro.errors.ReproError`), never a raw
``struct.error``/``UnicodeDecodeError``; the session layer treats it
as a protocol violation and drops the peer.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError

#: bump when the frame vocabulary or kpack tags change incompatibly
#: (3: binary kpack frames + encrypted sessions; 2: pickled frames
#: behind an HMAC handshake; 1: bare pickled frames)
WIRE_VERSION = 3

#: frame header: version, type code, flags, body length
FRAME_HEADER = struct.Struct("!BBHI")

_U64 = struct.Struct("!Q")
_U32 = struct.Struct("!I")
_F64 = struct.Struct("!d")


class WireError(ReproError):
    """Malformed or unencodable v3 wire data."""


# --------------------------------------------------------------------------
# Frame types
# --------------------------------------------------------------------------

HELLO = "hello"
READY = "ready"
ITEM = "item"
RESULT = "result"
ITEM_DONE = "item-done"
ERROR = "error"
PING = "ping"
PONG = "pong"
SHUTDOWN = "shutdown"

_TYPE_CODES: Dict[str, int] = {
    HELLO: 1, READY: 2, ITEM: 3, RESULT: 4, ITEM_DONE: 5, ERROR: 6,
    PING: 7, PONG: 8, SHUTDOWN: 9,
}
_TYPE_NAMES = {code: name for name, code in _TYPE_CODES.items()}


# --------------------------------------------------------------------------
# kpack: tagged binary values
# --------------------------------------------------------------------------

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_TUPLE = 0x08
_T_DICT = 0x09
_T_SET = 0x0A
_T_FROZENSET = 0x0B
_T_OBJECT = 0x0C
_T_ENUM = 0x0D

#: the closed set of classes allowed to cross the wire, in a stable
#: order (ids are indices — append only, never reorder).  Everything
#: the evaluation fabric ships lives here: specs in, results out.
REGISTRY: Tuple[Tuple[str, str], ...] = (
    ("repro.evaluation.specs", "CveCategory"),
    ("repro.evaluation.specs", "ProbeCall"),
    ("repro.evaluation.specs", "ExploitSpec"),
    ("repro.evaluation.specs", "Table1Info"),
    ("repro.evaluation.specs", "CveSpec"),
    ("repro.evaluation.archetypes", "ProbeSpec"),
    ("repro.evaluation.harness", "CveResult"),
    ("repro.pipeline.stage", "StageContext"),
    ("repro.pipeline.stage", "StageReport"),
    ("repro.pipeline.trace", "Trace"),
    ("repro.analysis.model", "Finding"),
    ("repro.analysis.model", "Evidence"),
    ("repro.analysis.model", "AnalysisReport"),
    ("repro.compiler.cache", "CacheStats"),
)

_classes_by_id: List[Optional[type]] = []
_ids_by_class: Dict[type, int] = {}


def _load_registry() -> None:
    import importlib

    if _classes_by_id:
        return
    for class_id, (module_name, qualname) in enumerate(REGISTRY):
        module = importlib.import_module(module_name)
        cls = getattr(module, qualname)
        _classes_by_id.append(cls)
        _ids_by_class[cls] = class_id


def _registered_id(cls: type) -> Optional[int]:
    if not _classes_by_id:
        _load_registry()
    return _ids_by_class.get(cls)


def _registered_class(class_id: int) -> type:
    if not _classes_by_id:
        _load_registry()
    if not 0 <= class_id < len(_classes_by_id):
        raise WireError("unregistered wire class id %d" % class_id)
    cls = _classes_by_id[class_id]
    assert cls is not None
    return cls


def _pack_varint(out: bytearray, value: int) -> None:
    """Unsigned LEB128."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _pack_zigzag(out: bytearray, value: int) -> None:
    """Signed int -> unsigned zigzag (works on arbitrary precision)."""
    _pack_varint(out, (value << 1) if value >= 0
                 else ((-value) << 1) - 1)


def _unpack_varint(buf: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise WireError("truncated varint")
        if shift > 10009:  # arbitrary-precision ints, but not forever
            raise WireError("varint too long")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _unpack_zigzag(buf: bytes, pos: int) -> Tuple[int, int]:
    raw, pos = _unpack_varint(buf, pos)
    if raw & 1:
        return -((raw + 1) >> 1), pos
    return raw >> 1, pos


def _kpack_value(out: bytearray, value: Any) -> None:
    # bool before int: bool is an int subclass
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif type(value) is int:
        out.append(_T_INT)
        _pack_zigzag(out, value)
    elif type(value) is float:
        out.append(_T_FLOAT)
        out += _F64.pack(value)
    elif type(value) is str:
        data = value.encode("utf-8")
        out.append(_T_STR)
        _pack_varint(out, len(data))
        out += data
    elif type(value) in (bytes, bytearray):
        out.append(_T_BYTES)
        _pack_varint(out, len(value))
        out += value
    elif type(value) is list:
        out.append(_T_LIST)
        _pack_varint(out, len(value))
        for item in value:
            _kpack_value(out, item)
    elif type(value) is tuple:
        out.append(_T_TUPLE)
        _pack_varint(out, len(value))
        for item in value:
            _kpack_value(out, item)
    elif type(value) is dict:
        out.append(_T_DICT)
        _pack_varint(out, len(value))
        for key, item in value.items():
            _kpack_value(out, key)
            _kpack_value(out, item)
    elif type(value) in (set, frozenset):
        out.append(_T_SET if type(value) is set else _T_FROZENSET)
        _pack_varint(out, len(value))
        # deterministic order so equal sets encode identically
        for item in sorted(value, key=repr):
            _kpack_value(out, item)
    else:
        class_id = _registered_id(type(value))
        if class_id is None:
            raise WireError(
                "%s is not wire-encodable (not a plain value and "
                "%s.%s is not in the v3 registry)"
                % (type(value).__name__, type(value).__module__,
                   type(value).__qualname__))
        import enum

        if isinstance(value, enum.Enum):
            out.append(_T_ENUM)
            _pack_varint(out, class_id)
            _kpack_value(out, value.value)
            return
        out.append(_T_OBJECT)
        _pack_varint(out, class_id)
        getstate = getattr(value, "__getstate__", None)
        state = getstate() if callable(getstate) else dict(value.__dict__)
        if not isinstance(state, dict):
            raise WireError("%s.__getstate__ did not return a dict"
                            % type(value).__name__)
        _kpack_value(out, state)


def _guard_count(count: int, buf: bytes, pos: int, per_item: int) -> None:
    """A claimed element count must fit in the remaining bytes (each
    element costs at least ``per_item`` bytes), so a corrupted count
    cannot trigger a huge allocation before decoding fails."""
    if count < 0 or count * per_item > len(buf) - pos:
        raise WireError("collection claims %d elements with %d bytes "
                        "left" % (count, len(buf) - pos))


def _kunpack_value(buf: bytes, pos: int, depth: int = 0) -> Tuple[Any, int]:
    if depth > 100:
        raise WireError("kpack nesting deeper than 100")
    if pos >= len(buf):
        raise WireError("truncated value")
    tag = buf[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT:
        return _unpack_zigzag(buf, pos)
    if tag == _T_FLOAT:
        if pos + 8 > len(buf):
            raise WireError("truncated float")
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if tag == _T_STR:
        length, pos = _unpack_varint(buf, pos)
        _guard_count(length, buf, pos, 1)
        try:
            return buf[pos:pos + length].decode("utf-8"), pos + length
        except UnicodeDecodeError as exc:
            raise WireError("undecodable string: %s" % exc)
    if tag == _T_BYTES:
        length, pos = _unpack_varint(buf, pos)
        _guard_count(length, buf, pos, 1)
        return buf[pos:pos + length], pos + length
    if tag in (_T_LIST, _T_TUPLE, _T_SET, _T_FROZENSET):
        count, pos = _unpack_varint(buf, pos)
        _guard_count(count, buf, pos, 1)
        items = []
        for _ in range(count):
            item, pos = _kunpack_value(buf, pos, depth + 1)
            items.append(item)
        if tag == _T_LIST:
            return items, pos
        if tag == _T_TUPLE:
            return tuple(items), pos
        try:
            return (set(items) if tag == _T_SET
                    else frozenset(items)), pos
        except TypeError as exc:
            raise WireError("unhashable set element: %s" % exc)
    if tag == _T_DICT:
        count, pos = _unpack_varint(buf, pos)
        _guard_count(count, buf, pos, 2)
        result: Dict[Any, Any] = {}
        for _ in range(count):
            key, pos = _kunpack_value(buf, pos, depth + 1)
            value, pos = _kunpack_value(buf, pos, depth + 1)
            try:
                result[key] = value
            except TypeError as exc:
                raise WireError("unhashable dict key: %s" % exc)
        return result, pos
    if tag == _T_ENUM:
        class_id, pos = _unpack_varint(buf, pos)
        cls = _registered_class(class_id)
        raw, pos = _kunpack_value(buf, pos, depth + 1)
        try:
            return cls(raw), pos
        except (ValueError, TypeError) as exc:
            raise WireError("bad enum value for %s: %s"
                            % (cls.__name__, exc))
    if tag == _T_OBJECT:
        class_id, pos = _unpack_varint(buf, pos)
        cls = _registered_class(class_id)
        state, pos = _kunpack_value(buf, pos, depth + 1)
        if not isinstance(state, dict):
            raise WireError("object state for %s is %s, not a dict"
                            % (cls.__name__, type(state).__name__))
        instance = object.__new__(cls)
        setstate = getattr(instance, "__setstate__", None)
        try:
            if callable(setstate):
                setstate(state)
            else:
                instance.__dict__.update(state)
        except Exception as exc:
            raise WireError("rejected state for %s: %s"
                            % (cls.__name__, exc))
        return instance, pos
    raise WireError("unknown kpack tag 0x%02x" % tag)


def kpack(value: Any) -> bytes:
    """Encode one value tree; :class:`WireError` on foreign types."""
    out = bytearray()
    try:
        _kpack_value(out, value)
    except RecursionError:
        raise WireError("value tree too deep to encode")
    return bytes(out)


def kunpack(data: bytes) -> Any:
    """Decode one value tree; :class:`WireError` on any malformation
    (including trailing bytes — a frame body is exactly one value)."""
    try:
        value, pos = _kunpack_value(data, 0)
    except RecursionError:
        raise WireError("kpack nesting too deep to decode")
    if pos != len(data):
        raise WireError("%d trailing bytes after value" % (len(data) - pos))
    return value


# --------------------------------------------------------------------------
# Frame bodies
# --------------------------------------------------------------------------


def _varstr(out: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    _pack_varint(out, len(data))
    out += data


def _read_varstr(buf: bytes, pos: int) -> Tuple[str, int]:
    length, pos = _unpack_varint(buf, pos)
    _guard_count(length, buf, pos, 1)
    try:
        return buf[pos:pos + length].decode("utf-8"), pos + length
    except UnicodeDecodeError as exc:
        raise WireError("undecodable string field: %s" % exc)


def _pack_seq_body(message: Dict[str, Any]) -> bytes:
    seq = message.get("seq") or 0
    if not isinstance(seq, int) or not 0 <= seq < 1 << 64:
        raise WireError("heartbeat seq %r is not a u64" % (seq,))
    return _U64.pack(seq)


def _unpack_seq_body(body: bytes) -> Dict[str, Any]:
    if len(body) != _U64.size:
        raise WireError("heartbeat body is %d bytes, not 8" % len(body))
    return {"seq": _U64.unpack(body)[0]}


def _pack_result_body(message: Dict[str, Any]) -> bytes:
    out = bytearray()
    _varstr(out, str(message.get("item_id") or ""))
    offset = message.get("offset") or 0
    if not isinstance(offset, int) or not 0 <= offset < 1 << 32:
        raise WireError("result offset %r is not a u32" % (offset,))
    out += _U32.pack(offset)
    rest = {k: v for k, v in message.items()
            if k not in ("type", "item_id", "offset")}
    _kpack_value(out, rest)
    return bytes(out)


def _unpack_result_body(body: bytes) -> Dict[str, Any]:
    item_id, pos = _read_varstr(body, 0)
    if pos + _U32.size > len(body):
        raise WireError("truncated result header")
    offset = _U32.unpack_from(body, pos)[0]
    rest, pos = _kunpack_value(body, pos + _U32.size)
    if pos != len(body):
        raise WireError("trailing bytes after result body")
    if not isinstance(rest, dict):
        raise WireError("result payload is not a dict")
    message = dict(rest)
    message.update({"item_id": item_id, "offset": offset})
    return message


def _pack_item_done_body(message: Dict[str, Any]) -> bytes:
    out = bytearray()
    _varstr(out, str(message.get("item_id") or ""))
    rest = {k: v for k, v in message.items()
            if k not in ("type", "item_id")}
    _kpack_value(out, rest)
    return bytes(out)


def _unpack_item_done_body(body: bytes) -> Dict[str, Any]:
    item_id, pos = _read_varstr(body, 0)
    rest, pos = _kunpack_value(body, pos)
    if pos != len(body):
        raise WireError("trailing bytes after item-done body")
    if not isinstance(rest, dict):
        raise WireError("item-done payload is not a dict")
    message = dict(rest)
    message["item_id"] = item_id
    return message


def _pack_generic_body(message: Dict[str, Any]) -> bytes:
    rest = {k: v for k, v in message.items() if k != "type"}
    out = bytearray()
    _kpack_value(out, rest)
    return bytes(out)


def _unpack_generic_body(body: bytes) -> Dict[str, Any]:
    rest = kunpack(body)
    if not isinstance(rest, dict):
        raise WireError("frame body is not a message dict")
    for key in rest:
        if not isinstance(key, str):
            raise WireError("message field name %r is not a string"
                            % (key,))
    return dict(rest)


_BODY_CODECS: Dict[str, Tuple[Callable[[Dict[str, Any]], bytes],
                              Callable[[bytes], Dict[str, Any]]]] = {
    PING: (_pack_seq_body, _unpack_seq_body),
    PONG: (_pack_seq_body, _unpack_seq_body),
    RESULT: (_pack_result_body, _unpack_result_body),
    ITEM_DONE: (_pack_item_done_body, _unpack_item_done_body),
}


def encode_frame(message: Dict[str, Any]) -> bytes:
    """One message dict -> header + body bytes (not length-prefixed;
    the session layer frames and encrypts).  :class:`WireError` when
    the message carries an unknown type or unencodable values."""
    kind = message.get("type")
    if not isinstance(kind, str) or kind not in _TYPE_CODES:
        raise WireError("unknown frame type %r" % (kind,))
    pack, _unpack = _BODY_CODECS.get(
        kind, (_pack_generic_body, _unpack_generic_body))
    try:
        body = pack(message)
    except RecursionError:
        raise WireError("message too deep to encode")
    return FRAME_HEADER.pack(WIRE_VERSION, _TYPE_CODES[kind], 0,
                             len(body)) + body


def decode_frame(data: bytes) -> Dict[str, Any]:
    """Header + body bytes -> message dict (with its ``type`` key).

    Raises :class:`WireError` on any malformation, including a header
    claiming a different protocol version — the caller turns that into
    a clear version-mismatch rejection.
    """
    if len(data) < FRAME_HEADER.size:
        raise WireError("frame of %d bytes is shorter than the %d-byte "
                        "header" % (len(data), FRAME_HEADER.size))
    version, code, _flags, body_len = FRAME_HEADER.unpack_from(data, 0)
    if version != WIRE_VERSION:
        raise WireError(
            "peer sent protocol v%d frames; this side speaks v%d "
            "(upgrade both ends of the fabric)" % (version, WIRE_VERSION))
    body = data[FRAME_HEADER.size:]
    if body_len != len(body):
        raise WireError("header claims %d body bytes, frame carries %d"
                        % (body_len, len(body)))
    kind = _TYPE_NAMES.get(code)
    if kind is None:
        raise WireError("unknown frame type code %d" % code)
    _pack, unpack = _BODY_CODECS.get(
        kind, (_pack_generic_body, _unpack_generic_body))
    try:
        message = unpack(bytes(body))
    except WireError:
        raise
    except RecursionError:
        raise WireError("frame body too deep to decode")
    except Exception as exc:  # never leak a raw struct/unicode error
        raise WireError("undecodable %s body: %s: %s"
                        % (kind, type(exc).__name__, exc))
    message["type"] = kind
    return message
