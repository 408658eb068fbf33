"""AFL-style input mutators: deterministic stages enumerated by index,
plus rng-driven havoc and splice."""

from __future__ import annotations

import operator
import random

MAX_INPUT_LEN = 1 << 20
ARITH_MAX = 35

INTERESTING_8 = [-128, -1, 0, 1, 16, 32, 64, 100, 127]
INTERESTING_16 = INTERESTING_8 + [-32768, -129, 128, 255, 256, 512, 1000,
                                  1024, 4096, 32767]
INTERESTING_32 = INTERESTING_16 + [-2147483648, -100663046, -32769, 32768,
                                   65535, 65536, 100663045, 2147483647]

DETERMINISTIC_STAGES = ("bitflip", "byteflip", "arith8", "arith16",
                        "arith32", "interesting")
RANDOM_STAGES = ("havoc", "splice")
STAGES = DETERMINISTIC_STAGES + RANDOM_STAGES

_ARITH = tuple(d for k in range(1, ARITH_MAX + 1) for d in (k, -k))


def _set(old: int, value: int) -> int:
    return value


# Each deterministic stage as its parts, in enumeration order. A part
# (width, orders, values, op) writes op(old word, value) at every position
# in little-endian, then (orders == 2) big-endian byte order; its index is
# ((pos * orders) + order) * len(values) + k, and a stage's parts follow
# one another.
_PARTS = {
    "bitflip": ((1, 1, tuple(1 << b for b in range(8)), operator.xor),),
    "byteflip": ((1, 1, (0xFF,), operator.xor),),
    "arith8": ((1, 1, _ARITH, operator.add),),
    "arith16": ((2, 2, _ARITH, operator.add),),
    "arith32": ((4, 2, _ARITH, operator.add),),
    "interesting": ((1, 1, INTERESTING_8, _set),
                    (2, 2, INTERESTING_16, _set),
                    (4, 2, INTERESTING_32, _set)),
}


def _part_size(n: int, width: int, orders: int, values) -> int:
    return max(n - width + 1, 0) * orders * len(values)


def stage_size(data: bytes, stage: str) -> int:
    """Number of enumerable variants for a deterministic stage."""
    return sum(_part_size(len(data), w, o, v)
               for w, o, v, _ in _PARTS.get(stage, ()))  # 0 for havoc/splice


def _word(value: int, width: int, order: str) -> bytes:
    return (value & ((1 << (8 * width)) - 1)).to_bytes(width, order)


def _variant(data: bytes, stage: str, index: int) -> bytes:
    n = len(data)
    for width, orders, values, op in _PARTS[stage]:
        size = _part_size(n, width, orders, values)
        if 0 <= index < size:
            break
        index -= size
    else:
        raise IndexError(f"{stage} has no variant at this index")
    rest, k = divmod(index, len(values))
    pos, big = divmod(rest, orders)
    order = "big" if big else "little"
    end = pos + width
    word = op(int.from_bytes(data[pos: end], order), values[k])
    return data[:pos] + _word(word, width, order) + data[end:]


def _havoc(data: bytes, rng: random.Random) -> bytes:
    buf = bytearray(data)
    for _ in range(1 << rng.randint(1, 6)):
        if not buf:
            buf.extend(rng.randbytes(rng.randint(1, 8)))
            continue
        op = rng.randrange(9)
        if op == 0:  # flip one bit
            pos = rng.randrange(len(buf))
            buf[pos] ^= 1 << rng.randrange(8)
        elif op == 1:  # random byte
            buf[rng.randrange(len(buf))] = rng.randrange(256)
        elif op == 2:  # interesting byte
            buf[rng.randrange(len(buf))] = rng.choice(INTERESTING_8) & 0xFF
        elif op == 3:  # add/sub byte
            pos = rng.randrange(len(buf))
            buf[pos] = (buf[pos] + rng.randint(-ARITH_MAX, ARITH_MAX)) & 0xFF
        elif op == 4 and len(buf) >= 4:  # interesting dword
            pos = rng.randrange(len(buf) - 3)
            value = rng.choice(INTERESTING_32)
            order = "big" if rng.random() < 0.5 else "little"
            buf[pos: pos + 4] = _word(value, 4, order)
        elif op == 5 and len(buf) > 1:  # delete block
            start = rng.randrange(len(buf))
            size = rng.randint(1, min(len(buf) - start, max(len(buf) // 4, 1)))
            del buf[start: start + size]
        elif op == 6:  # duplicate or insert block
            if len(buf) >= MAX_INPUT_LEN:
                continue
            start = rng.randrange(len(buf))
            size = rng.randint(1, min(len(buf) - start, 64))
            chunk = (buf[start: start + size] if rng.random() < 0.75
                     else rng.randbytes(size))
            at = rng.randrange(len(buf) + 1)
            buf[at:at] = chunk
        elif op == 7:  # overwrite block with a copy
            start = rng.randrange(len(buf))
            size = rng.randint(1, min(len(buf) - start, 64))
            src = rng.randrange(len(buf))
            chunk = bytes(buf[src: src + size])
            buf[start: start + len(chunk)] = chunk
        else:  # xor byte
            pos = rng.randrange(len(buf))
            buf[pos] ^= rng.randrange(1, 256)
    return bytes(buf[:MAX_INPUT_LEN])


def _splice(data: bytes, other: bytes, rng: random.Random) -> bytes:
    if not data or not other:
        combined = data + other
    else:
        a = rng.randint(1, len(data))
        b = rng.randrange(len(other))
        combined = data[:a] + other[b:]
    return _havoc(combined[:MAX_INPUT_LEN], rng)


def mutate(
    data: bytes,
    rng: random.Random,
    stage: str,
    index: int | None = None,
    other: bytes | None = None,
) -> bytes:
    """One mutated copy of ``data``.

    Deterministic stages take ``index`` in ``range(stage_size(data,
    stage))``; havoc/splice draw from ``rng`` (splice also needs
    ``other``)."""
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    if stage == "havoc":
        return _havoc(data, rng)
    if stage == "splice":
        return _splice(data, other or b"", rng)
    assert index is not None, f"stage {stage} needs an index"
    return _variant(data, stage, index)
