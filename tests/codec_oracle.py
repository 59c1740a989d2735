"""Reference implementation of the wire codec, kept as a test oracle.

This is the straightforward, recursive, ``isinstance``-chain codec that
``repro.net.codec`` used before it was rewritten as a single-pass
encoder/decoder.  The tests compare the two byte for byte: the wire
format is shared by RPC frames, the WAL and the CDC journal, so the
fast codec must emit exactly what this one emits.  It is deliberately
simple and slow; nothing outside ``tests/`` imports it.
"""

from __future__ import annotations

import struct
from typing import Any, Tuple

from repro.net.codec import CodecError, KeyList


def encode_varint(value: int) -> bytes:
    """Unsigned LEB128."""
    if value < 0:
        raise CodecError("varints are unsigned")
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
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CodecError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 1024:
            raise CodecError("varint too long")


def zigzag(value: int) -> int:
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def encode(value: Any) -> bytes:
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def _encode_into(value: Any, out: bytearray) -> None:
    if value is None:
        out.append(ord("N"))
    elif value is True:
        out.append(ord("T"))
    elif value is False:
        out.append(ord("F"))
    elif isinstance(value, int):
        out.append(ord("i"))
        out.extend(encode_varint(zigzag(value)))
    elif isinstance(value, float):
        out.append(ord("d"))
        out.extend(struct.pack(">d", value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(ord("s"))
        out.extend(encode_varint(len(raw)))
        out.extend(raw)
    elif isinstance(value, (bytes, bytearray)):
        out.append(ord("b"))
        out.extend(encode_varint(len(value)))
        out.extend(value)
    elif isinstance(value, KeyList):
        out.append(ord("P"))
        out.extend(encode_varint(len(value)))
        prev = b""
        for item in value:
            if not isinstance(item, str):
                raise CodecError("KeyList items must be strings")
            raw = item.encode("utf-8")
            shared = 0
            limit = min(len(prev), len(raw))
            while shared < limit and prev[shared] == raw[shared]:
                shared += 1
            suffix = raw[shared:]
            out.extend(encode_varint(shared))
            out.extend(encode_varint(len(suffix)))
            out.extend(suffix)
            prev = raw
    elif isinstance(value, (list, tuple)):
        out.append(ord("l"))
        out.extend(encode_varint(len(value)))
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, dict):
        out.append(ord("m"))
        out.extend(encode_varint(len(value)))
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(f"dict keys must be strings, got {key!r}")
            _encode_into(key, out)
            _encode_into(item, out)
    else:
        raise CodecError(f"cannot encode {type(value).__name__}")


def decode(data: bytes) -> Any:
    value, offset = decode_prefix(data, 0)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes")
    return value


def decode_prefix(data: bytes, offset: int) -> Tuple[Any, int]:
    if offset >= len(data):
        raise CodecError("truncated value")
    tag = data[offset]
    offset += 1
    if tag == ord("N"):
        return None, offset
    if tag == ord("T"):
        return True, offset
    if tag == ord("F"):
        return False, offset
    if tag == ord("i"):
        raw, offset = decode_varint(data, offset)
        return unzigzag(raw), offset
    if tag == ord("d"):
        if offset + 8 > len(data):
            raise CodecError("truncated float")
        return struct.unpack(">d", data[offset : offset + 8])[0], offset + 8
    if tag == ord("s"):
        length, offset = decode_varint(data, offset)
        if offset + length > len(data):
            raise CodecError("truncated string")
        return data[offset : offset + length].decode("utf-8"), offset + length
    if tag == ord("b"):
        length, offset = decode_varint(data, offset)
        if offset + length > len(data):
            raise CodecError("truncated bytes")
        return bytes(data[offset : offset + length]), offset + length
    if tag == ord("l"):
        count, offset = decode_varint(data, offset)
        items = []
        for _ in range(count):
            item, offset = decode_prefix(data, offset)
            items.append(item)
        return items, offset
    if tag == ord("P"):
        count, offset = decode_varint(data, offset)
        strings = []
        prev = b""
        for _ in range(count):
            shared, offset = decode_varint(data, offset)
            if shared > len(prev):
                raise CodecError(f"bad shared prefix {shared} > {len(prev)}")
            length, offset = decode_varint(data, offset)
            if offset + length > len(data):
                raise CodecError("truncated key suffix")
            raw = prev[:shared] + data[offset : offset + length]
            offset += length
            strings.append(raw.decode("utf-8"))
            prev = raw
        return strings, offset
    if tag == ord("m"):
        count, offset = decode_varint(data, offset)
        out = {}
        for _ in range(count):
            key, offset = decode_prefix(data, offset)
            if not isinstance(key, str):
                raise CodecError("dict keys must be strings")
            value, offset = decode_prefix(data, offset)
            out[key] = value
        return out, offset
    raise CodecError(f"unknown tag {tag:#x}")
