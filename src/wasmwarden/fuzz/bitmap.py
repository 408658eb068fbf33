"""Hit-count bucketing and novelty detection over the 64 KiB trace map.

A trace is nearly all zeros. ``classify_counts`` views it as 8-byte words
in place and finds the nonzero ones in the exec's only full scan (8192
words); it buckets just those and returns them sparse, as word indices
and bucketed words. ``VirginMap.has_new_bits`` then gathers, compares
and merges its own words at those indices only. Beyond the one scan, the
cost follows the number of words hit, not the map size (AFL walks its
map the same way).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..passes.coverage import COUNT_BUCKET, MAP_SIZE

_LUT = np.array(COUNT_BUCKET, dtype=np.uint8)

NO_NEW = 0
NEW_BUCKET = 1
NEW_EDGE = 2


class Bucketed(NamedTuple):
    """A bucketed trace, sparse: the map's nonzero 8-byte words only."""

    index: np.ndarray  # word indices, ascending
    words: np.ndarray  # uint64: each word's bytes mapped to bucket bits
    size: int  # length of the whole map in bytes


def classify_counts(trace: bytes | memoryview) -> Bucketed:
    """Map each raw counter in ``trace`` (any bytes-like object, read in
    place) to its one-hot bucket bit."""
    if len(trace) % 8:
        raise ValueError(
            f"trace length {len(trace)} is not a multiple of 8"
        )
    raw = np.frombuffer(trace, dtype=np.uint64)
    # a bool mask's nonzero() is ~5x faster than a uint64 array's
    hit = (raw != 0).nonzero()[0]
    words = _LUT.take(raw[hit].view(np.uint8)).view(np.uint64)
    return Bucketed(hit, words, len(trace))


def bucket_for_count(count: int) -> int:
    """Scalar version of the bucket table (for reports and debugging)."""
    return COUNT_BUCKET[count]


class VirginMap:
    """Accumulator of bucket bits seen so far (queue or crash map)."""

    def __init__(self):
        self.seen = np.zeros(MAP_SIZE, dtype=np.uint8)
        self._seen_words = self.seen.view(np.uint64)

    def has_new_bits(self, bucketed: Bucketed) -> int:
        """NEW_EDGE if an index lights up for the first time, NEW_BUCKET if
        a known index gains a new bucket, else NO_NEW. Updates the
        accumulator."""
        if bucketed.size != MAP_SIZE:
            raise ValueError(
                f"bucketed map covers {bucketed.size} bytes, "
                f"expected {MAP_SIZE}"
            )
        hit, words = bucketed.index, bucketed.words
        old = self._seen_words[hit]
        if not np.count_nonzero(words & ~old):
            return NO_NEW
        new_edge = ((old.view(np.uint8) == 0)
                    & (words.view(np.uint8) != 0)).any()
        self._seen_words[hit] = old | words
        return NEW_EDGE if new_edge else NEW_BUCKET

    def bit_count(self) -> int:
        return int(np.unpackbits(self.seen).sum())

    def edge_count(self) -> int:
        return int((self.seen != 0).sum())
