import pytest
from hypothesis import given, strategies as st

from wasmwarden.leb import read_sleb, read_uleb, write_sleb, write_uleb
from wasmwarden.ir import MalformedBinary


def test_uleb_known_encodings():
    assert write_uleb(0) == b"\x00"
    assert write_uleb(127) == b"\x7f"
    assert write_uleb(128) == b"\x80\x01"
    assert write_uleb(624485) == b"\xe5\x8e\x26"


def test_sleb_known_encodings():
    assert write_sleb(0, 32) == b"\x00"
    assert write_sleb(-1, 32) == b"\x7f"
    assert write_sleb(63, 32) == b"\x3f"
    assert write_sleb(64, 32) == b"\xc0\x00"
    assert write_sleb(-64, 32) == b"\x40"
    assert write_sleb(-123456, 32) == b"\xc0\xbb\x78"


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_uleb_roundtrip(v):
    buf = write_uleb(v)
    got, pos = read_uleb(buf, 0, 32)
    assert got == v and pos == len(buf)


@given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
def test_sleb32_roundtrip(v):
    buf = write_sleb(v, 32)
    got, pos = read_sleb(buf, 0, 32)
    assert got == v and pos == len(buf)


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
def test_sleb64_roundtrip(v):
    buf = write_sleb(v, 64)
    got, pos = read_sleb(buf, 0, 64)
    assert got == v and pos == len(buf)


def test_uleb_rejects_overwide():
    with pytest.raises(MalformedBinary):
        read_uleb(b"\x80\x80\x80\x80\x80\x80\x01", 0, 32)


@pytest.mark.parametrize("read,buf,bits", [
    (read_uleb, b"\x80" * 5 + b"\x00", 32),
    (read_sleb, b"\x80" * 5 + b"\x00", 32),
    (read_sleb, b"\x80" * 10 + b"\x00", 64),
])
def test_leb_longer_than_ceil_n_over_7_bytes_rejected(read, buf, bits):
    # a uN or sN takes at most ceil(N / 7) bytes, even with padding
    with pytest.raises(MalformedBinary) as e:
        read(buf, 0, bits)
    assert (e.value.offset, e.value.reason) == (0, "LEB128 integer too long")


@pytest.mark.parametrize("read,buf,bits,value", [
    (read_uleb, b"\x80" * 4 + b"\x00", 32, 0),
    (read_uleb, b"\xff" * 4 + b"\x0f", 32, 2**32 - 1),
    (read_sleb, b"\x80" * 4 + b"\x78", 32, -(2**31)),
    (read_sleb, b"\xff" * 9 + b"\x7f", 64, -1),
    (read_sleb, b"\x80" * 9 + b"\x00", 64, 0),
])
def test_leb_of_the_longest_allowed_length_accepted(read, buf, bits, value):
    assert read(buf, 0, bits) == (value, len(buf))


def test_leb_error_offset_counts_from_base():
    with pytest.raises(MalformedBinary) as e:
        read_sleb(b"\x00\x80", 1, 32, base=100)
    assert e.value.offset == 101


def test_uleb_rejects_truncated():
    with pytest.raises(MalformedBinary):
        read_uleb(b"\x80", 0, 32)
