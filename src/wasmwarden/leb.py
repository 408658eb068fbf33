"""LEB128 encoding/decoding helpers shared by the parser and encoder."""

from __future__ import annotations

from .ir import EncodingOverflow, MalformedBinary


def read_uleb(buf: bytes, pos: int, bits: int = 32) -> tuple[int, int]:
    result = 0
    shift = 0
    start = pos
    while True:
        if pos >= len(buf):
            raise MalformedBinary(start, "truncated LEB128 integer")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            break
        shift += 7
        if shift >= bits + 7:
            raise MalformedBinary(start, "LEB128 integer too long")
    if result >= 1 << bits:
        raise MalformedBinary(start, f"LEB128 integer exceeds u{bits}")
    return result, pos


def read_sleb(buf: bytes, pos: int, bits: int) -> tuple[int, int]:
    result = 0
    shift = 0
    start = pos
    while True:
        if pos >= len(buf):
            raise MalformedBinary(start, "truncated LEB128 integer")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            if byte & 0x40 and shift < bits + 7:
                result |= -(1 << shift)
            break
        if shift >= bits + 7:
            raise MalformedBinary(start, "LEB128 integer too long")
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if not lo <= result <= hi:
        raise MalformedBinary(start, f"LEB128 integer exceeds s{bits}")
    return result, pos


def write_uleb(value: int, bits: int = 32) -> bytes:
    if value < 0 or value >= 1 << bits:
        raise EncodingOverflow(f"{value} does not fit in u{bits} LEB128")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def write_sleb(value: int, bits: int) -> bytes:
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if not lo <= value <= hi:
        raise EncodingOverflow(f"{value} does not fit in s{bits} LEB128")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        done = (value == 0 and not byte & 0x40) or (value == -1 and byte & 0x40)
        if done:
            out.append(byte)
            return bytes(out)
        out.append(byte | 0x80)
