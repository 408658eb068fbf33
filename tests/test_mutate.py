import random

import pytest
from hypothesis import given, strategies as st

from wasmwarden.fuzz import mutate as mut


def test_bitflip_enumerates_every_bit():
    data = b"\x00\x00"
    outs = {
        mut.mutate(data, None, "bitflip", index=i)
        for i in range(mut.stage_size(data, "bitflip"))
    }
    assert len(outs) == 16
    assert all(sum(bin(b).count("1") for b in o) == 1 for o in outs)


def test_byteflip_inverts_one_byte():
    out = mut.mutate(b"\x00\xff\x00", None, "byteflip", index=1)
    assert out == b"\x00\x00\x00"


def test_arith8_covers_plus_minus_35():
    data = b"\x10"
    outs = {
        mut.mutate(data, None, "arith8", index=i)[0]
        for i in range(mut.stage_size(data, "arith8"))
    }
    expected = {(0x10 + d) & 0xFF
                for d in range(-mut.ARITH_MAX, mut.ARITH_MAX + 1) if d}
    assert outs == expected


def test_arith16_touches_both_endiannesses():
    data = b"\x00\x01"
    outs = {
        mut.mutate(data, None, "arith16", index=i)
        for i in range(mut.stage_size(data, "arith16"))
    }
    assert b"\x01\x01" in outs  # little-endian +1
    assert b"\x00\x02" in outs  # big-endian +1


def test_interesting_values_include_known_magic():
    data = b"\x00" * 4
    outs = {
        mut.mutate(data, None, "interesting", index=i)
        for i in range(mut.stage_size(data, "interesting"))
    }
    assert b"\xff\xff\xff\xff" in outs  # -1 as 32-bit
    assert b"\x80\x00\x00\x00" in outs  # INT_MIN big-endian
    assert b"\x7f\x00\x00\x00" in outs  # 127 as a single byte


def test_deterministic_stages_preserve_length():
    data = b"abcdefgh"
    for stage in mut.DETERMINISTIC_STAGES:
        for i in range(mut.stage_size(data, stage)):
            assert len(mut.mutate(data, None, stage, index=i)) == len(data)


def _reference_variants(data: bytes, stage: str) -> list[bytes]:
    """Every variant of a deterministic stage, written as nested loops:
    position, then byte order (little before big), then value."""
    out = []

    def put(pos, width, word, order):
        buf = bytearray(data)
        buf[pos: pos + width] = (word % (1 << 8 * width)).to_bytes(width,
                                                                    order)
        out.append(bytes(buf))

    deltas = [d for k in range(1, mut.ARITH_MAX + 1) for d in (k, -k)]
    if stage == "bitflip":
        parts = [(1, [1 << b for b in range(8)], lambda old, v: old ^ v)]
    elif stage == "byteflip":
        parts = [(1, [0xFF], lambda old, v: old ^ v)]
    elif stage == "interesting":
        parts = [(w, vals, lambda old, v: v) for w, vals in (
            (1, mut.INTERESTING_8), (2, mut.INTERESTING_16),
            (4, mut.INTERESTING_32))]
    else:
        parts = [(int(stage[5:]) // 8, deltas, lambda old, v: old + v)]
    for width, values, op in parts:
        orders = ("little",) if width == 1 else ("little", "big")
        for pos in range(len(data) - width + 1):
            for order in orders:
                old = int.from_bytes(data[pos: pos + width], order)
                for v in values:
                    put(pos, width, op(old, v), order)
    return out


@pytest.mark.parametrize("stage", mut.DETERMINISTIC_STAGES)
@pytest.mark.parametrize("n", [*range(10), 16])
def test_deterministic_stage_enumerates_in_reference_order(stage, n):
    data = bytes((37 * i + 11) & 0xFF for i in range(n))
    expected = _reference_variants(data, stage)
    assert mut.stage_size(data, stage) == len(expected)
    got = [mut.mutate(data, None, stage, index=i)
           for i in range(len(expected))]
    assert got == expected


def test_stage_sizes_for_short_inputs():
    assert mut.stage_size(b"ab", "arith32") == 0
    assert mut.stage_size(b"a", "arith16") == 0
    assert mut.stage_size(b"", "bitflip") == 0
    assert mut.stage_size(b"abc", "havoc") == 0  # rng-driven


def test_havoc_is_deterministic_for_a_seeded_rng():
    a = mut.mutate(b"hello world", random.Random(5), "havoc")
    b = mut.mutate(b"hello world", random.Random(5), "havoc")
    c = mut.mutate(b"hello world", random.Random(6), "havoc")
    assert a == b
    assert a != c or len(a) != len(c)


def test_havoc_respects_max_len():
    rng = random.Random(0)
    data = b"x" * (mut.MAX_INPUT_LEN - 20)
    for _ in range(20):
        assert len(mut.mutate(data, rng, "havoc")) <= mut.MAX_INPUT_LEN
        out = mut.mutate(data, rng, "splice", other=data)
        assert len(out) <= mut.MAX_INPUT_LEN


def test_havoc_on_empty_input_produces_something():
    out = mut.mutate(b"", random.Random(1), "havoc")
    assert isinstance(out, bytes)


def test_splice_mixes_both_parents():
    rng = random.Random(3)
    out = mut.mutate(b"A" * 20, rng, "splice", other=b"B" * 20)
    assert isinstance(out, bytes) and out


def test_unknown_stage_rejected():
    with pytest.raises(ValueError):
        mut.mutate(b"x", random.Random(0), "quantum")


@given(st.binary(min_size=1, max_size=32), st.integers(0, 10_000))
def test_deterministic_stages_are_pure(data, seed):
    rng_unused = random.Random(seed)
    for stage in ("bitflip", "arith8"):
        n = mut.stage_size(data, stage)
        i = seed % n
        assert (mut.mutate(data, rng_unused, stage, index=i)
                == mut.mutate(data, None, stage, index=i))
