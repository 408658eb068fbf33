"""Hit-count bucketing and novelty detection over the 64 KiB trace map.

A trace is nearly all zeros, so both steps view the map as 8-byte words
and touch only the nonzero ones: their cost follows the number of words
hit, not the map size (AFL walks its map the same way).
"""

from __future__ import annotations

import numpy as np

from ..passes.coverage import MAP_SIZE

# counter value -> one-hot bucket bit: 0, 1, 2, 3, 4-7, 8-15, 16-31,
# 32-127, 128-255
_LUT = np.zeros(256, dtype=np.uint8)
_LUT[1] = 1
_LUT[2] = 2
_LUT[3] = 4
_LUT[4:8] = 8
_LUT[8:16] = 16
_LUT[16:32] = 32
_LUT[32:128] = 64
_LUT[128:256] = 128

NO_NEW = 0
NEW_BUCKET = 1
NEW_EDGE = 2


def classify_counts(trace: bytes) -> np.ndarray:
    """Map each raw counter to its one-hot bucket bit."""
    if len(trace) % 8:
        raise ValueError(
            f"trace length {len(trace)} is not a multiple of 8"
        )
    raw = np.frombuffer(trace, dtype=np.uint64)
    hit = (raw != 0).nonzero()[0]
    out = np.zeros(len(raw), dtype=np.uint64)
    out[hit] = _LUT[raw[hit].view(np.uint8)].view(np.uint64)
    return out.view(np.uint8)


def bucket_for_count(count: int) -> int:
    """Scalar version of the bucket table (for reports and debugging)."""
    return int(_LUT[count])


class VirginMap:
    """Accumulator of bucket bits seen so far (queue or crash map)."""

    def __init__(self):
        self.seen = np.zeros(MAP_SIZE, dtype=np.uint8)
        self._seen_words = self.seen.view(np.uint64)

    def has_new_bits(self, bucketed: np.ndarray) -> int:
        """NEW_EDGE if an index lights up for the first time, NEW_BUCKET if
        a known index gains a new bucket, else NO_NEW. Updates the
        accumulator."""
        if len(bucketed) != MAP_SIZE:
            raise ValueError(
                f"bucketed map has {len(bucketed)} entries, "
                f"expected {MAP_SIZE}"
            )
        cur = np.ascontiguousarray(bucketed, dtype=np.uint8).view(np.uint64)
        hit = (cur != 0).nonzero()[0]
        words = cur[hit]
        old = self._seen_words[hit]
        if not (words & ~old).any():
            return NO_NEW
        new_edge = ((old.view(np.uint8) == 0)
                    & (words.view(np.uint8) != 0)).any()
        self._seen_words[hit] = old | words
        return NEW_EDGE if new_edge else NEW_BUCKET

    def bit_count(self) -> int:
        return int(np.unpackbits(self.seen).sum())

    def edge_count(self) -> int:
        return int((self.seen != 0).sum())
