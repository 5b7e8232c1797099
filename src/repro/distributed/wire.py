"""Protocol v4: the compact binary wire encoding ("kpack").

Protocol v2 shipped every frame as a pickle, which has two costs the
fabric can no longer afford:

* **security** — ``pickle.loads`` on network bytes is arbitrary code
  execution; the HMAC handshake authenticated peers but one leaked
  secret (or an open worker) handed an attacker the process;
* **size/speed** — pickle frames carry class descriptors and memo
  machinery per frame; heartbeats were ~60 bytes of pickle for one
  integer.

Since v3 a purpose-built codec replaces pickle on the data plane.

Frame layout
------------

A frame is one version byte followed by the kpack of its message dict,
``type`` key included::

    frame  =  u8 WIRE_VERSION (4)  ||  kpack(message)

There is no frame header beyond that byte: the session layer already
puts a ``!I`` length before every frame inside a sealed record
(:func:`~repro.distributed.protocol.pack_batch`).  :func:`decode_frame`
checks the version byte (any other version, v3's 8-byte-header frames
included, is refused with an explicit "upgrade both ends" error), then
that the rest is exactly one kpack dict with str keys whose ``type``
is one of the nine :data:`FRAME_TYPES`.  A ``ping`` is 22 bytes.

kpack values
------------

A tagged, length-prefixed binary tree over exactly the types the fabric
ships: ``None``/bool/int/float/str/bytes/list/tuple/dict plus a
**closed registry** of repro classes (specs in, results + traces +
analysis reports + cache deltas out).  Registered instances encode as
``registry id + state dict`` and decode through ``object.__new__`` on
the registered class — the wire can only ever name classes in
:data:`REGISTRY`, so untrusted bytes choose *data shapes*, never code.
Each tag is tied to the kind of class it may name: the object tag
``0x0C`` names a registered dataclass, whose state may carry only that
dataclass's fields and must carry every field without a default (the
others take their defaults); the enum tag ``0x0D`` names a registered
``Enum``.  Anything else is a :class:`WireError`, so a decoded object
always has every attribute its class declares.
Integers are zigzag LEB128 varints (a heartbeat seq is 1-2 bytes), and
collection counts are validated against the remaining buffer before
anything is allocated, so a corrupt count cannot balloon memory.  Sets
are not wire values: encoding one is a :class:`WireError`, and tags
``0x0A``/``0x0B`` (v3's set and frozenset) are unknown tags.

Every malformed input — truncated buffer, unknown tag, bad UTF-8, an
unregistered class id, trailing garbage, absurd counts — decodes to
:class:`WireError` (a :class:`~repro.errors.ReproError`), never a raw
``struct.error``/``UnicodeDecodeError``; the session layer treats it
as a protocol violation and drops the peer.
"""

from __future__ import annotations

import dataclasses
import enum
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError

#: bump when the frame layout, vocabulary or kpack tags change
#: incompatibly (4: version byte + kpack message; 3: 8-byte header and
#: per-type bodies, encrypted sessions; 2: pickled frames behind an
#: HMAC handshake; 1: bare pickled frames)
WIRE_VERSION = 4

_F64 = struct.Struct("!d")


class WireError(ReproError):
    """Malformed or unencodable wire data."""


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

#: the whole frame vocabulary
FRAME_TYPES = (HELLO, READY, ITEM, RESULT, ITEM_DONE, ERROR, PING, PONG,
               SHUTDOWN)


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
# 0x0A and 0x0B stay unassigned: a set is not a wire value
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
#: per registered dataclass: field name -> its default's maker, or
#: None for a field every decoded state must carry
_fields_by_class: Dict[type, Dict[str, Optional[Callable[[], Any]]]] = {}


def _default_maker(spec: "dataclasses.Field[Any]",
                   ) -> Optional[Callable[[], Any]]:
    if spec.default is not dataclasses.MISSING:
        return lambda value=spec.default: value
    if spec.default_factory is not dataclasses.MISSING:
        return spec.default_factory
    return None


def _load_registry() -> None:
    import importlib

    if _classes_by_id:
        return
    for class_id, (module_name, qualname) in enumerate(REGISTRY):
        module = importlib.import_module(module_name)
        cls = getattr(module, qualname)
        if not issubclass(cls, enum.Enum):
            _fields_by_class[cls] = {spec.name: _default_maker(spec)
                                     for spec in dataclasses.fields(cls)}
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
    else:
        class_id = _registered_id(type(value))
        if class_id is None:
            raise WireError(
                "%s is not wire-encodable (not a plain value and "
                "%s.%s is not in the wire registry)"
                % (type(value).__name__, type(value).__module__,
                   type(value).__qualname__))
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
    if tag in (_T_LIST, _T_TUPLE):
        count, pos = _unpack_varint(buf, pos)
        _guard_count(count, buf, pos, 1)
        items = []
        for _ in range(count):
            item, pos = _kunpack_value(buf, pos, depth + 1)
            items.append(item)
        return (items if tag == _T_LIST else tuple(items)), pos
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
        if not issubclass(cls, enum.Enum):
            raise WireError("enum tag names %s, which is not an enum"
                            % cls.__name__)
        raw, pos = _kunpack_value(buf, pos, depth + 1)
        try:
            return cls(raw), pos
        except (ValueError, TypeError) as exc:
            raise WireError("bad enum value for %s: %s"
                            % (cls.__name__, exc))
    if tag == _T_OBJECT:
        class_id, pos = _unpack_varint(buf, pos)
        cls = _registered_class(class_id)
        if issubclass(cls, enum.Enum):
            raise WireError("object tag names %s, which is an enum"
                            % cls.__name__)
        state, pos = _kunpack_value(buf, pos, depth + 1)
        if not isinstance(state, dict):
            raise WireError("object state for %s is %s, not a dict"
                            % (cls.__name__, type(state).__name__))
        return _restore(cls, state), pos
    raise WireError("unknown kpack tag 0x%02x" % tag)


def _restore(cls: type, state: Dict[Any, Any]) -> Any:
    """An instance of the registered dataclass ``cls`` holding
    ``state``, every field the state omits at its default."""
    fields = _fields_by_class[cls]
    for key in state:
        if key not in fields:
            raise WireError("%s has no field %r" % (cls.__name__, key))
    full = {}
    for name, default in fields.items():
        if name in state:
            full[name] = state[name]
        elif default is None:
            raise WireError("%s state lacks its field %r"
                            % (cls.__name__, name))
        else:
            full[name] = default()
    instance = object.__new__(cls)
    setstate = getattr(instance, "__setstate__", None)
    try:
        if callable(setstate):
            setstate(full)
        else:
            instance.__dict__.update(full)
    except Exception as exc:
        raise WireError("rejected state for %s: %s"
                        % (cls.__name__, exc))
    return instance


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
    except WireError:
        raise
    except RecursionError:
        raise WireError("kpack nesting too deep to decode")
    except Exception as exc:  # never leak a raw codec error
        raise WireError("undecodable kpack: %s: %s"
                        % (type(exc).__name__, exc))
    if pos != len(data):
        raise WireError("%d trailing bytes after value" % (len(data) - pos))
    return value


# --------------------------------------------------------------------------
# Frames
# --------------------------------------------------------------------------


def _check_type(kind: Any) -> None:
    if not isinstance(kind, str) or kind not in FRAME_TYPES:
        raise WireError("unknown frame type %r" % (kind,))


def encode_frame(message: Dict[str, Any]) -> bytes:
    """One message dict -> version byte + kpack (not length-prefixed;
    the session layer frames and encrypts).  :class:`WireError` when
    the message carries an unknown type or unencodable values."""
    _check_type(message.get("type"))
    return bytes((WIRE_VERSION,)) + kpack(message)


def decode_frame(data: bytes) -> Dict[str, Any]:
    """Version byte + kpack -> message dict (with its ``type`` key).

    Raises :class:`WireError` on any malformation, including a frame
    of another protocol version — the caller turns that into a clear
    version-mismatch rejection.
    """
    if not data:
        raise WireError("empty frame")
    if data[0] != WIRE_VERSION:
        raise WireError(
            "peer sent protocol v%d frames; this side speaks v%d "
            "(upgrade both ends of the fabric)" % (data[0], WIRE_VERSION))
    message = kunpack(data[1:])
    if type(message) is not dict:
        raise WireError("frame body is %s, not a message dict"
                        % type(message).__name__)
    for key in message:
        if type(key) is not str:
            raise WireError("message field name %r is not a string"
                            % (key,))
    _check_type(message.get("type"))
    return message
