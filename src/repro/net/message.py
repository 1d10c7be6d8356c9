"""Compact deterministic marshalling.

Bandwidth simulation needs an honest byte count for every message, so
instead of pickling we encode a small set of value types into a compact
tagged binary format.  The encoding is:

* deterministic — the same value always encodes to the same bytes
  (dict entries are written in insertion order, which our protocols
  keep stable), and
* self-describing — ``unmarshal(marshal(x)) == x`` including the
  list/tuple distinction.

Supported types: ``None``, ``bool``, ``int`` (arbitrary precision),
``float``, ``str``, ``bytes``, ``list``, ``tuple``, ``dict``.

Decode path (repro.speed)
-------------------------

The decoder runs over any buffer — :func:`unmarshal` accepts ``bytes``,
``bytearray``, or ``memoryview`` — and :func:`unseal` hands back a
zero-copy ``memoryview`` of the frame body, so a received frame is
copied exactly once: when a ``bytes``/``str`` payload is materialized
into its final decoded position.  No ``memoryview`` ever appears in a
decoded value.  Dict keys are interned against the small fixed protocol
vocabulary (:data:`_PROTOCOL_KEYS`) so the thousands of envelopes in a
drain share one ``"status"`` string and dict lookups compare by
pointer.  :func:`marshalled_size` computes sizes arithmetically without
building the encoding.
"""

from __future__ import annotations

import struct
import sys
import zlib
from typing import Any

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"i"
_TAG_FLOAT = b"f"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_LIST = b"l"
_TAG_TUPLE = b"t"
_TAG_DICT = b"d"

# Integer tag values for the decoder's dispatch: indexing a buffer
# yields an int, and comparing ints avoids the one-byte slice per value
# the old decoder allocated.
_T_NONE = _TAG_NONE[0]
_T_TRUE = _TAG_TRUE[0]
_T_FALSE = _TAG_FALSE[0]
_T_INT = _TAG_INT[0]
_T_FLOAT = _TAG_FLOAT[0]
_T_STR = _TAG_STR[0]
_T_BYTES = _TAG_BYTES[0]
_T_LIST = _TAG_LIST[0]
_T_TUPLE = _TAG_TUPLE[0]
_T_DICT = _TAG_DICT[0]

_UNPACK_FLOAT = struct.Struct(">d").unpack_from

#: The protocol's fixed dict-key vocabulary.  Decoded dict keys found
#: here are replaced by the shared interned instance: envelopes carry
#: the same dozen keys thousands of times per drain, and pointer-equal
#: keys make both the allocation and the subsequent dict lookups cheap.
#: Missing entries are harmless (the decoded string is used as-is).
_PROTOCOL_KEYS: dict[str, str] = {
    key: sys.intern(key)
    for key in (
        "ack",
        "args",
        "base_version",
        "body",
        "client",
        "clients",
        "data",
        "defs",
        "epoch",
        "error",
        "from",
        "host",
        "id",
        "index",
        "inflight",
        "kind",
        "kwargs",
        "link",
        "method",
        "name",
        "ok",
        "op",
        "primary",
        "queued",
        "records",
        "reply_to",
        "reports",
        "req",
        "request",
        "result",
        "seq",
        "service",
        "status",
        "subject",
        "time",
        "urn",
        "urns",
        "value",
        "version",
        "wire",
    )
}


class _CodecStats:
    """Process-wide codec counters (attribute mutation keeps the module
    free of ``global`` rebinding, which the effect lint flags)."""

    __slots__ = ("marshal_size_fast_total",)

    def __init__(self) -> None:
        self.marshal_size_fast_total = 0


#: Counters proving the fast paths are taken — ``marshal_size_fast_total``
#: counts :func:`marshalled_size` calls answered from a cached
#: ``Premarshalled.raw`` length without re-encoding.
codec_stats = _CodecStats()


class MarshalError(Exception):
    """Raised for unsupported values or corrupt encodings."""


class Premarshalled(dict):
    """A dict that remembers its own encoding.

    The QRPC path marshals each request body up to three times — for
    size accounting at submit, again when batching, and again at
    transmit.  Wrapping the body in ``Premarshalled`` marshals it once:
    :func:`marshal`/:func:`marshalled_size` splice the cached ``raw``
    bytes instead of re-encoding, while the object still behaves as a
    plain dict for every reader (``body["urn"]``, ``.get`` etc.).

    The cache is computed eagerly at construction, so the wrapped dict
    must not be mutated afterwards — mutate-then-send would transmit
    the stale bytes.  Unmarshalling the cached bytes yields a plain
    dict, exactly as if the body had been encoded directly.
    """

    __slots__ = ("raw",)

    def __init__(self, value: dict) -> None:
        super().__init__(value)
        out = bytearray()
        _encode(dict(value), out)
        self.raw = bytes(out)


#: Maximum container nesting; beyond this the encoding is rejected
#: rather than risking interpreter recursion limits on hostile input.
MAX_DEPTH = 64


def _write_uvarint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise MarshalError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 1000:
            raise MarshalError("varint too long")


def _zigzag(value: int) -> int:
    return value * 2 if value >= 0 else -value * 2 - 1


def _encode(value: Any, out: bytearray, depth: int = 0) -> None:
    if depth > MAX_DEPTH:
        raise MarshalError(f"nesting deeper than {MAX_DEPTH} levels")
    if isinstance(value, Premarshalled):
        out += value.raw
    elif value is None:
        out += _TAG_NONE
    elif value is True:
        out += _TAG_TRUE
    elif value is False:
        out += _TAG_FALSE
    elif isinstance(value, int):
        out += _TAG_INT
        _write_uvarint(out, _zigzag(value))
    elif isinstance(value, float):
        out += _TAG_FLOAT
        out += struct.pack(">d", value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += _TAG_STR
        _write_uvarint(out, len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray)):
        out += _TAG_BYTES
        _write_uvarint(out, len(value))
        out += bytes(value)
    elif isinstance(value, list):
        out += _TAG_LIST
        _write_uvarint(out, len(value))
        for item in value:
            _encode(item, out, depth + 1)
    elif isinstance(value, tuple):
        out += _TAG_TUPLE
        _write_uvarint(out, len(value))
        for item in value:
            _encode(item, out, depth + 1)
    elif isinstance(value, dict):
        out += _TAG_DICT
        _write_uvarint(out, len(value))
        for key, item in value.items():
            _encode(key, out, depth + 1)
            _encode(item, out, depth + 1)
    else:
        raise MarshalError(f"cannot marshal {type(value).__name__}: {value!r}")


def _decode(data: Any, pos: int, depth: int = 0) -> tuple[Any, int]:
    """Decode one value starting at ``pos`` over any buffer.

    ``data`` may be ``bytes``, ``bytearray``, or a ``memoryview`` —
    indexing yields ints either way, so the hot loop never allocates
    one-byte slices.  Payload slices are materialized (``bytes``/
    ``str``) at their final position; no view escapes into the result.
    """
    if depth > MAX_DEPTH:
        raise MarshalError(f"nesting deeper than {MAX_DEPTH} levels")
    size = len(data)
    if pos >= size:
        raise MarshalError("truncated message")
    tag = data[pos]
    pos += 1
    if tag == _T_STR:
        length, pos = _read_uvarint(data, pos)
        end = pos + length
        if end > size:
            raise MarshalError("truncated string")
        try:
            text = str(data[pos:end], "utf-8")
        except UnicodeDecodeError as exc:
            raise MarshalError(f"invalid utf-8 in string: {exc}") from None
        return text, end
    if tag == _T_INT:
        raw, pos = _read_uvarint(data, pos)
        return (raw >> 1) ^ -(raw & 1), pos
    if tag == _T_DICT:
        count, pos = _read_uvarint(data, pos)
        interned = _PROTOCOL_KEYS
        result: dict[Any, Any] = {}
        for _ in range(count):
            key, pos = _decode(data, pos, depth + 1)
            if type(key) is str:
                key = interned.get(key, key)
            value, pos = _decode(data, pos, depth + 1)
            try:
                result[key] = value
            except TypeError:  # a corrupt frame decoded a list/dict key
                raise MarshalError(f"unhashable {type(key).__name__} dict key") from None
        return result, pos
    if tag == _T_BYTES:
        length, pos = _read_uvarint(data, pos)
        end = pos + length
        if end > size:
            raise MarshalError("truncated bytes")
        return bytes(data[pos:end]), end
    if tag == _T_LIST or tag == _T_TUPLE:
        count, pos = _read_uvarint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode(data, pos, depth + 1)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), pos
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_FLOAT:
        if pos + 8 > size:
            raise MarshalError("truncated float")
        return _UNPACK_FLOAT(data, pos)[0], pos + 8
    raise MarshalError(f"unknown tag {bytes(data[pos - 1 : pos])!r} at offset {pos - 1}")


def marshal(value: Any) -> bytes:
    """Encode ``value`` to bytes."""
    if isinstance(value, Premarshalled):
        return value.raw
    out = bytearray()
    _encode(value, out)
    return bytes(out)


def unmarshal(data: Any) -> Any:
    """Decode a buffer produced by :func:`marshal`.

    Accepts ``bytes``, ``bytearray``, or ``memoryview`` (the transport
    hands the :func:`unseal` view straight in).  Raises
    :class:`MarshalError` on trailing garbage or corruption.
    """
    value, pos = _decode(data, 0)
    if pos != len(data):
        raise MarshalError(f"{len(data) - pos} trailing bytes after value")
    return value


def _size(value: Any, depth: int) -> int:
    """Encoded size of ``value`` computed without building the encoding."""
    if depth > MAX_DEPTH:
        raise MarshalError(f"nesting deeper than {MAX_DEPTH} levels")
    if isinstance(value, Premarshalled):
        return len(value.raw)
    if value is None or value is True or value is False:
        return 1
    if isinstance(value, int):
        zigzag = value * 2 if value >= 0 else -value * 2 - 1
        return 1 + max(1, (zigzag.bit_length() + 6) // 7)
    if isinstance(value, float):
        return 9
    if isinstance(value, str):
        # ASCII (the protocol's common case) encodes 1:1, so the UTF-8
        # byte length is known without running the encoder.
        length = len(value) if value.isascii() else len(value.encode("utf-8"))
        return 1 + _uvarint_len(length) + length
    if isinstance(value, (bytes, bytearray)):
        length = len(value)
        return 1 + _uvarint_len(length) + length
    if isinstance(value, (list, tuple)):
        total = 1 + _uvarint_len(len(value))
        for item in value:
            total += _size(item, depth + 1)
        return total
    if isinstance(value, dict):
        total = 1 + _uvarint_len(len(value))
        for key, item in value.items():
            total += _size(key, depth + 1)
            total += _size(item, depth + 1)
        return total
    raise MarshalError(f"cannot marshal {type(value).__name__}: {value!r}")


def _uvarint_len(value: int) -> int:
    return max(1, (value.bit_length() + 6) // 7)


def marshalled_size(value: Any) -> int:
    """Size in bytes of the encoded value (what a link would carry).

    Never builds the encoding: a :class:`Premarshalled` answers from
    its cached length (counted in ``codec_stats.marshal_size_fast_total``)
    and everything else is sized arithmetically.
    """
    if isinstance(value, Premarshalled):
        codec_stats.marshal_size_fast_total += 1
        return len(value.raw)
    return _size(value, 0)


_SEAL_HEADER = struct.Struct(">I")  # CRC32 of the sealed body


def seal(data: bytes) -> bytes:
    """Prefix ``data`` with a CRC32 so in-flight corruption is detectable.

    The wire envelope carries the seal; :func:`unseal` verifies it
    before any unmarshalling happens, so a flipped byte surfaces as a
    :class:`MarshalError` instead of a silently wrong value.
    """
    return _SEAL_HEADER.pack(zlib.crc32(data)) + data


def unseal(data: bytes) -> memoryview:
    """Verify and strip the CRC32 prefix added by :func:`seal`.

    Returns a zero-copy ``memoryview`` of the body — the decoder
    consumes buffers directly, so the received frame is never copied
    just to drop its four-byte header.  (``memoryview`` compares equal
    to ``bytes``; call ``.tobytes()`` if an owned copy is needed.)

    Raises :class:`MarshalError` when the frame is too short to carry
    its checksum or the checksum does not match the body.
    """
    if len(data) < _SEAL_HEADER.size:
        raise MarshalError("sealed frame shorter than its checksum")
    (crc,) = _SEAL_HEADER.unpack_from(data)
    body = memoryview(data)[_SEAL_HEADER.size:]
    if zlib.crc32(body) != crc:
        raise MarshalError("sealed frame failed its CRC32 check")
    return body
