"""Binary wire codec for Pequod RPC.

A compact, self-describing, from-scratch serialization for the value
shapes RPC needs: ``None``, booleans, integers, floats, strings, bytes,
lists, and string-keyed dictionaries.  Integers use unsigned LEB128
varints with zigzag signing, so the small ids and lengths that dominate
cache traffic stay at one byte.

Wire grammar (one tag byte, then payload)::

    N                       -> None
    T / F                   -> True / False
    i <zigzag varint>       -> int
    d <8-byte IEEE754 BE>   -> float
    s <varint len> <utf8>   -> str
    b <varint len> <raw>    -> bytes
    l <varint count> items  -> list
    m <varint count> pairs  -> dict (string keys)
    P <varint count> keys   -> prefix-compressed string list

The ``P`` form carries each string as ``<varint shared> <varint len>
<utf8 suffix>`` where ``shared`` bytes are reused from the previous
string.  Batched writes ship sorted key runs (``p|bob|0001``,
``p|bob|0002``, …) whose long common prefixes make this the dominant
wire saving for write-heavy traffic; encoders opt in by wrapping a
string list in :class:`KeyList`, decoders return a plain list.

The same bytes are RPC frame bodies, WAL records and CDC journal
records, and every message passes through here once per hop, so both
directions are written as a single pass over the value or the buffer:
dispatch on ``type()`` with strings and lists first, one-byte varints
(every length and id below 128) handled inline, and string items of a
list decoded without a recursive call.  Subclasses of the supported
types take a slower ``isinstance`` path that emits the same bytes.

The codec is strict: unknown tags, trailing bytes, truncated input,
invalid UTF-8 and nesting deeper than :data:`MAX_DEPTH` raise
:class:`CodecError` rather than guessing.
"""

from __future__ import annotations

import struct
from typing import Any, Tuple


class CodecError(ValueError):
    """Raised on malformed wire data or unencodable values."""


class KeyList(list):
    """A list of strings encoded with shared-prefix compression.

    Behaves exactly like a list; the type only tells :func:`encode` to
    use the ``P`` wire form.  Decoding yields a plain list (the
    compression is a transport detail, not a value shape).
    """


#: Deepest list/dict nesting either direction accepts.  Real messages
#: nest three or four levels; the cap keeps a small hostile frame
#: (``l\x01`` repeated) from exhausting the interpreter stack.
MAX_DEPTH = 100

_pack_double = struct.Struct(">d").pack
_unpack_double = struct.Struct(">d").unpack_from

# Tag bytes.
_NONE, _TRUE, _FALSE = 0x4E, 0x54, 0x46  # N T F
_INT, _FLOAT, _STR, _BYTES = 0x69, 0x64, 0x73, 0x62  # i d s b
_LIST, _MAP, _KEYS = 0x6C, 0x6D, 0x50  # l m P

#: ``bytes((n,))`` for every byte value: a one-byte varint.
_BYTE = tuple(bytes((n,)) for n in range(256))
#: Tag plus one-byte length/count/zigzag value, for values below 128.
_STR_HEAD = tuple(bytes((_STR, n)) for n in range(128))
_LIST_HEAD = tuple(bytes((_LIST, n)) for n in range(128))
_INT_HEAD = tuple(bytes((_INT, n)) for n in range(128))


# ----------------------------------------------------------------------
# Varints
# ----------------------------------------------------------------------
def encode_varint(value: int) -> bytes:
    """Unsigned LEB128."""
    if value < 0:
        raise CodecError("varints are unsigned")
    if value < 0x80:
        return _BYTE[value]
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int) -> Tuple[int, int]:
    """Returns ``(value, next_offset)``."""
    try:
        first = data[offset]
        if first < 0x80:
            return first, offset + 1
        return _varint_rest(data, offset + 1, first)
    except IndexError:
        raise CodecError("truncated varint") from None


def _varint_rest(data: bytes, pos: int, first: int) -> Tuple[int, int]:
    """Finish a varint whose first byte ``first`` (continuation bit
    set) sat just before ``pos``.  Raises IndexError when truncated."""
    result = first & 0x7F
    shift = 7
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 1024:  # Python ints are unbounded; cap for sanity
            raise CodecError("varint too long")


def zigzag(value: int) -> int:
    """Map signed to unsigned: 0,-1,1,-2 -> 0,1,2,3 (unbounded ints)."""
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _head(tag: int, n: int) -> bytes:
    return _BYTE[tag] + encode_varint(n)


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def encode(value: Any) -> bytes:
    out = bytearray()
    _encode_into(value, out, 0)
    return bytes(out)


def _encode_into(value: Any, out: bytearray, depth: int) -> None:
    t = type(value)
    if t is str:
        raw = value.encode()
        n = len(raw)
        out += _STR_HEAD[n] if n < 0x80 else _head(_STR, n)
        out += raw
    elif t is list or t is tuple:
        if depth >= MAX_DEPTH:
            raise CodecError(f"nesting deeper than {MAX_DEPTH}")
        n = len(value)
        out += _LIST_HEAD[n] if n < 0x80 else _head(_LIST, n)
        depth += 1
        for item in value:
            if type(item) is str:
                raw = item.encode()
                n = len(raw)
                out += _STR_HEAD[n] if n < 0x80 else _head(_STR, n)
                out += raw
            else:
                _encode_into(item, out, depth)
    elif t is int:
        z = value << 1 if value >= 0 else ~(value << 1)
        out += _INT_HEAD[z] if z < 0x80 else _head(_INT, z)
    elif value is None:
        out.append(_NONE)
    elif value is True:
        out.append(_TRUE)
    elif value is False:
        out.append(_FALSE)
    elif t is dict:
        _encode_map(value, out, depth)
    elif t is KeyList:
        _encode_keys(value, out)
    elif t is float:
        out.append(_FLOAT)
        out += _pack_double(value)
    elif t is bytes or t is bytearray:
        out += _head(_BYTES, len(value))
        out += value
    else:
        _encode_subclass(value, out, depth)


def _encode_map(value: dict, out: bytearray, depth: int) -> None:
    if depth >= MAX_DEPTH:
        raise CodecError(f"nesting deeper than {MAX_DEPTH}")
    out += _head(_MAP, len(value))
    depth += 1
    for key, item in value.items():
        if not isinstance(key, str):
            raise CodecError(f"dict keys must be strings, got {key!r}")
        raw = key.encode()
        n = len(raw)
        out += _STR_HEAD[n] if n < 0x80 else _head(_STR, n)
        out += raw
        _encode_into(item, out, depth)


def _encode_keys(keys: list, out: bytearray) -> None:
    out += _head(_KEYS, len(keys))
    prev = b""
    for item in keys:
        if not isinstance(item, str):
            raise CodecError("KeyList items must be strings")
        raw = item.encode()
        # Common prefix length without a per-byte loop: the first
        # differing byte holds the highest set bit of the XOR.
        limit = min(len(prev), len(raw))
        diff = int.from_bytes(prev[:limit], "big") ^ int.from_bytes(
            raw[:limit], "big"
        )
        shared = limit - ((diff.bit_length() + 7) >> 3)
        rest = len(raw) - shared
        out += _BYTE[shared] if shared < 0x80 else encode_varint(shared)
        out += _BYTE[rest] if rest < 0x80 else encode_varint(rest)
        out += raw[shared:]
        prev = raw


def _encode_subclass(value: Any, out: bytearray, depth: int) -> None:
    """Subclasses of the supported types (IntEnum, named tuples,
    OrderedDict, ...): the same bytes as their base type."""
    if isinstance(value, int):
        out += _head(_INT, zigzag(value))
    elif isinstance(value, float):
        out.append(_FLOAT)
        out += _pack_double(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += _head(_STR, len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray)):
        out += _head(_BYTES, len(value))
        out += value
    elif isinstance(value, KeyList):
        _encode_keys(value, out)
    elif isinstance(value, (list, tuple)):
        _encode_into(list(value), out, depth)
    elif isinstance(value, dict):
        _encode_map(value, out, depth)
    else:
        raise CodecError(f"cannot encode {type(value).__name__}")


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def decode(data: bytes) -> Any:
    """Decode exactly one value; trailing bytes are an error."""
    value, offset = decode_prefix(data, 0)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes")
    return value


def decode_prefix(data: bytes, offset: int) -> Tuple[Any, int]:
    """Decode one value starting at ``offset``; returns
    ``(value, next_offset)``."""
    try:
        return _decode(data, offset, 0)
    except IndexError:
        # Every read past the end lands here: single-byte reads index
        # the buffer directly instead of checking its length first.
        raise CodecError("truncated value") from None
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid utf-8 in string: {exc.reason}") from None


def _decode(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    tag = data[pos]
    pos += 1
    if tag == _STR:
        n = data[pos]
        pos += 1
        if n & 0x80:
            n, pos = _varint_rest(data, pos, n)
        end = pos + n
        if end > len(data):
            raise CodecError("truncated string")
        return data[pos:end].decode(), end
    if tag == _LIST:
        if depth >= MAX_DEPTH:
            raise CodecError(f"nesting deeper than {MAX_DEPTH}")
        n = data[pos]
        pos += 1
        if n & 0x80:
            n, pos = _varint_rest(data, pos, n)
        depth += 1
        size = len(data)
        items = []
        append = items.append
        for _ in range(n):
            t = data[pos]
            if t == _STR:
                length = data[pos + 1]
                if length < 0x80:
                    start = pos + 2
                    pos = start + length
                    if pos > size:
                        raise CodecError("truncated string")
                    append(data[start:pos].decode())
                    continue
            elif t == _INT:
                z = data[pos + 1]
                if z < 0x80:
                    append((z >> 1) ^ -(z & 1))
                    pos += 2
                    continue
            item, pos = _decode(data, pos, depth)
            append(item)
        return items, pos
    if tag == _INT:
        z = data[pos]
        pos += 1
        if z & 0x80:
            z, pos = _varint_rest(data, pos, z)
        return (z >> 1) ^ -(z & 1), pos
    if tag == _NONE:
        return None, pos
    if tag == _TRUE:
        return True, pos
    if tag == _FALSE:
        return False, pos
    if tag == _MAP:
        if depth >= MAX_DEPTH:
            raise CodecError(f"nesting deeper than {MAX_DEPTH}")
        n = data[pos]
        pos += 1
        if n & 0x80:
            n, pos = _varint_rest(data, pos, n)
        depth += 1
        out = {}
        for _ in range(n):
            if data[pos] != _STR:
                raise CodecError("dict keys must be strings")
            key, pos = _decode(data, pos, depth)
            out[key], pos = _decode(data, pos, depth)
        return out, pos
    if tag == _KEYS:
        return _decode_keys(data, pos)
    if tag == _FLOAT:
        if pos + 8 > len(data):
            raise CodecError("truncated float")
        return _unpack_double(data, pos)[0], pos + 8
    if tag == _BYTES:
        n = data[pos]
        pos += 1
        if n & 0x80:
            n, pos = _varint_rest(data, pos, n)
        end = pos + n
        if end > len(data):
            raise CodecError("truncated bytes")
        return bytes(data[pos:end]), end
    raise CodecError(f"unknown tag {tag:#x}")


def _decode_keys(data: bytes, pos: int) -> Tuple[list, int]:
    n = data[pos]
    pos += 1
    if n & 0x80:
        n, pos = _varint_rest(data, pos, n)
    size = len(data)
    strings = []
    prev = b""
    for _ in range(n):
        shared = data[pos]
        pos += 1
        if shared & 0x80:
            shared, pos = _varint_rest(data, pos, shared)
        if shared > len(prev):
            raise CodecError(f"bad shared prefix {shared} > {len(prev)}")
        length = data[pos]
        pos += 1
        if length & 0x80:
            length, pos = _varint_rest(data, pos, length)
        end = pos + length
        if end > size:
            raise CodecError("truncated key suffix")
        raw = prev[:shared] + data[pos:end]
        pos = end
        strings.append(raw.decode())
        prev = raw
    return strings, pos
