"""Tests for the binary wire codec."""

import math

import codec_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.codec import (
    MAX_DEPTH,
    CodecError,
    KeyList,
    decode,
    decode_varint,
    encode,
    encode_varint,
    unzigzag,
    zigzag,
)
from repro.net.protocol import FrameBuffer, ProtocolError, decode_message


class TestVarints:
    def test_small_values_one_byte(self):
        assert encode_varint(0) == b"\x00"
        assert encode_varint(127) == b"\x7f"

    def test_multibyte(self):
        assert encode_varint(128) == b"\x80\x01"
        assert encode_varint(300) == b"\xac\x02"

    def test_roundtrip(self):
        for value in [0, 1, 127, 128, 255, 2**14, 2**35, 2**64]:
            data = encode_varint(value)
            got, offset = decode_varint(data, 0)
            assert got == value
            assert offset == len(data)

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            encode_varint(-1)

    def test_truncated(self):
        with pytest.raises(CodecError):
            decode_varint(b"\x80", 0)

    def test_zigzag_roundtrip(self):
        for value in [0, -1, 1, -2, 2, 2**40, -(2**40), 2**70, -(2**70)]:
            assert unzigzag(zigzag(value)) == value


class TestScalars:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, 1, -1, 2**62, -(2**62), 3.14, -0.0, "hello",
         "", "ünïcødé |}", b"", b"\x00\xff", [], {}],
    )
    def test_roundtrip(self, value):
        assert decode(encode(value)) == value

    def test_float_nan(self):
        assert math.isnan(decode(encode(float("nan"))))

    def test_large_int(self):
        big = 12345678901234567890123456789
        assert decode(encode(big)) == big


class TestContainers:
    def test_nested_structures(self):
        value = {
            "rows": [["t|ann|0100|bob", "hello"], ["t|ann|0120|liz", "hi"]],
            "count": 2,
            "meta": {"server": "pequod", "ok": True, "ratio": 0.5},
            "none": None,
        }
        assert decode(encode(value)) == value

    def test_tuple_encodes_as_list(self):
        assert decode(encode((1, 2))) == [1, 2]

    def test_deeply_nested(self):
        value = [[[[["deep"]]]]]
        assert decode(encode(value)) == value

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(CodecError):
            encode({1: "x"})

    def test_unencodable_type_rejected(self):
        with pytest.raises(CodecError):
            encode(object())


class TestMalformedInput:
    def test_trailing_bytes(self):
        with pytest.raises(CodecError):
            decode(encode(1) + b"x")

    def test_empty_input(self):
        with pytest.raises(CodecError):
            decode(b"")

    def test_unknown_tag(self):
        with pytest.raises(CodecError):
            decode(b"Z")

    def test_truncated_string(self):
        data = encode("hello")[:-2]
        with pytest.raises(CodecError):
            decode(data)

    def test_truncated_float(self):
        with pytest.raises(CodecError):
            decode(b"d\x00\x00")

    def test_truncated_list(self):
        data = encode([1, 2, 3])[:-1]
        with pytest.raises(CodecError):
            decode(data)


class TestCompactness:
    def test_small_ints_are_compact(self):
        assert len(encode(5)) == 2  # tag + one varint byte

    def test_string_overhead_is_small(self):
        assert len(encode("abc")) == 5  # tag + len + 3 bytes


class TestTypedDecodeErrors:
    """Malformed input raises CodecError, never a raw Python error."""

    def test_invalid_utf8_string(self):
        with pytest.raises(CodecError):
            decode(b"s\x01\xff")

    def test_invalid_utf8_key_list(self):
        # One key: shared 0, suffix length 1, suffix 0xff.
        with pytest.raises(CodecError):
            decode(b"P\x01\x00\x01\xff")

    def test_deep_nesting_is_rejected_not_recursed(self):
        with pytest.raises(CodecError):
            decode(b"l\x01" * 5000 + b"N")
        with pytest.raises(CodecError):
            decode(b"m\x01s\x01k" * 5000 + b"N")

    def test_nesting_cap_is_the_same_both_ways(self):
        value = None
        for _ in range(MAX_DEPTH):
            value = [value]
        assert decode(encode(value)) == value
        with pytest.raises(CodecError):
            encode([value])
        with pytest.raises(CodecError):
            decode(b"l\x01" + encode(value))

    def test_truncated_multibyte_varint(self):
        with pytest.raises(CodecError):
            decode(b"i\x80\x80")
        with pytest.raises(CodecError):
            decode(b"s\x80")

    def test_protocol_maps_codec_errors(self):
        for payload in (b"s\x01\xff", b"l\x01" * 5000 + b"N"):
            with pytest.raises(ProtocolError):
                decode_message(payload)


# ----------------------------------------------------------------------
# The single-pass codec against the reference implementation
# ----------------------------------------------------------------------
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-300, max_value=300)
    | st.floats()
    | st.text()
    | st.binary()
)
_values = st.recursive(
    _scalars,
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(st.text(), children)
        | st.lists(st.text()).map(KeyList)
        | st.lists(st.sampled_from(["", "p|bob|", "p|bob|0001", "p|bób|0002"]))
        .map(sorted)
        .map(KeyList)
    ),
    max_leaves=25,
)


def _plain(value):
    """What decoding yields: tuples and KeyLists become lists."""
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


class TestAgainstOracle:
    @settings(max_examples=200)
    @given(_values)
    def test_same_bytes_as_the_reference(self, value):
        assert encode(value) == codec_oracle.encode(value)

    @settings(max_examples=200)
    @given(_values)
    def test_round_trip(self, value):
        data = encode(value)
        # Compare encodings, not values: NaN != NaN.
        assert encode(decode(data)) == encode(_plain(value))
        assert encode(decode(data)) == encode(codec_oracle.decode(data))

    def test_subclasses_encode_as_their_base_type(self):
        import collections
        import enum

        class Level(enum.IntEnum):
            HIGH = 300

        Pair = collections.namedtuple("Pair", "a b")
        value = collections.OrderedDict(
            level=Level.HIGH, pair=Pair("x", 2.5), keys=[KeyList(["a|1", "a|2"])]
        )
        assert encode(value) == codec_oracle.encode(value)

    def test_real_messages(self):
        messages = [
            [7, "scan", "t|ann|0000000100", "t|ann}"],
            [7, "ok", [["t|ann|0000000101|bob", "hello " * 30]] * 3],
            [9, "batch", KeyList(["p|bob|0001", "p|bob|0002"]), ["a", None]],
            [-3, "push", [[12, "t|ann|1", None, "v", "insert"]]],
            [2, "err", ["bad_request", "x" * 500]],
        ]
        for message in messages:
            assert encode(message) == codec_oracle.encode(message)
            assert decode(encode(message)) == _plain(message)


# ----------------------------------------------------------------------
# Fuzz: bytes from the wire or disk raise only the typed errors
# ----------------------------------------------------------------------
def _decode_or_codec_error(data: bytes) -> None:
    try:
        decode(data)
    except CodecError:
        pass


class TestFuzz:
    @settings(max_examples=200)
    @given(st.binary(max_size=200))
    def test_decode_random_bytes(self, data):
        _decode_or_codec_error(data)

    @settings(max_examples=200)
    @given(_values, st.data())
    def test_decode_mutated_encodings(self, value, data):
        raw = bytearray(encode(value))
        for _ in range(data.draw(st.integers(1, 4))):
            if not raw:
                break
            pos = data.draw(st.integers(0, len(raw) - 1))
            raw[pos] = data.draw(st.integers(0, 255))
        cut = data.draw(st.integers(0, len(raw)))
        _decode_or_codec_error(bytes(raw[:cut]))
        _decode_or_codec_error(bytes(raw))

    @settings(max_examples=200)
    @given(st.lists(st.binary(max_size=64), max_size=8))
    def test_frame_buffer_and_decode_message(self, chunks):
        buffer = FrameBuffer()
        for chunk in chunks:
            try:
                payloads = buffer.feed(chunk)
            except ProtocolError:
                return
            for payload in payloads:
                try:
                    decode_message(payload)
                except ProtocolError:
                    pass

    @settings(max_examples=200)
    @given(st.binary(max_size=200))
    def test_decode_message_random_payload(self, payload):
        try:
            decode_message(payload)
        except ProtocolError:
            pass
