import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wasmwarden.fuzz.bitmap import (
    MAP_SIZE,
    NEW_BUCKET,
    NEW_EDGE,
    NO_NEW,
    VirginMap,
    bucket_for_count,
    classify_counts,
)


def scalar_bucket(count: int) -> int:
    """Independent statement of the bucket table."""
    if count == 0:
        return 0
    if count == 1:
        return 1
    if count == 2:
        return 2
    if count == 3:
        return 4
    if count < 8:
        return 8
    if count < 16:
        return 16
    if count < 32:
        return 32
    if count < 128:
        return 64
    return 128


def test_bucket_table_on_all_counter_values():
    for count in range(256):
        assert bucket_for_count(count) == scalar_bucket(count), count


def test_classify_counts_vectorised_matches_scalar():
    trace = bytes(range(256)) * 4
    got = classify_counts(trace)
    assert list(got) == [scalar_bucket(c) for c in trace]


def _trace(**at):
    buf = bytearray(MAP_SIZE)
    for idx, count in at.items():
        buf[int(idx[1:])] = count
    return classify_counts(bytes(buf))


def test_first_observation_is_a_new_edge():
    vm = VirginMap()
    assert vm.has_new_bits(_trace(i5=1)) == NEW_EDGE


def test_same_bucket_again_is_not_new():
    vm = VirginMap()
    vm.has_new_bits(_trace(i5=1))
    assert vm.has_new_bits(_trace(i5=1)) == NO_NEW


def test_higher_bucket_on_known_edge_is_new_bucket():
    vm = VirginMap()
    vm.has_new_bits(_trace(i5=1))
    assert vm.has_new_bits(_trace(i5=4)) == NEW_BUCKET


def test_new_edge_beats_new_bucket():
    vm = VirginMap()
    vm.has_new_bits(_trace(i5=1))
    assert vm.has_new_bits(_trace(i5=4, i9=1)) == NEW_EDGE


def test_counts_within_one_bucket_are_equivalent():
    vm = VirginMap()
    vm.has_new_bits(_trace(i7=4))
    for c in (5, 6, 7):
        assert vm.has_new_bits(_trace(i7=c)) == NO_NEW


def test_edge_and_bit_counts():
    vm = VirginMap()
    vm.has_new_bits(_trace(i1=1, i2=3))
    assert vm.edge_count() == 2
    assert vm.bit_count() == 2
    vm.has_new_bits(_trace(i1=2))
    assert vm.edge_count() == 2
    assert vm.bit_count() == 3


@given(st.lists(st.tuples(st.integers(0, MAP_SIZE - 1),
                          st.integers(1, 255)), max_size=30))
def test_accumulation_is_monotonic(observations):
    """Replaying any already-seen trace reports nothing new."""
    vm = VirginMap()
    traces = []
    for idx, count in observations:
        buf = bytearray(MAP_SIZE)
        buf[idx] = count
        traces.append(classify_counts(bytes(buf)))
        vm.has_new_bits(traces[-1])
    for t in traces:
        assert vm.has_new_bits(t) == NO_NEW


def test_classify_counts_rejects_partial_words():
    for size in (1, 7, 255, MAP_SIZE + 1):
        with pytest.raises(ValueError):
            classify_counts(bytes(size))


def test_has_new_bits_rejects_wrong_map_size():
    vm = VirginMap()
    for size in (0, 1024, MAP_SIZE - 8, MAP_SIZE + 8):
        with pytest.raises(ValueError):
            vm.has_new_bits(np.zeros(size, dtype=np.uint8))


# every count on either side of a bucket boundary
BUCKET_EDGES = (1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 127, 128, 255)

counts = st.sampled_from(BUCKET_EDGES) | st.integers(1, 255)
indices = st.sampled_from((0, 7, 8, MAP_SIZE - 1)) | st.integers(0, MAP_SIZE - 1)


@st.composite
def word_hits(draw):
    """Several counters inside one 8-byte word."""
    base = 8 * draw(st.sampled_from((0, 1, MAP_SIZE // 8 - 1))
                    | st.integers(0, MAP_SIZE // 8 - 1))
    return [(base + off, count) for off, count in
            draw(st.lists(st.tuples(st.integers(0, 7), counts), max_size=8))]


traces = st.lists(
    st.lists(st.tuples(indices, counts), max_size=6).map(lambda hits: [hits])
    | st.lists(word_hits(), min_size=1, max_size=3),
    min_size=1, max_size=8,
)


@settings(deadline=None)
@given(traces)
def test_word_skipping_matches_dense_reference(steps):
    """classify_counts + has_new_bits against a byte-by-byte reference
    that walks a per-index seen list."""
    vm = VirginMap()
    seen = [0] * MAP_SIZE
    touched = set()
    for groups in steps:
        buf = bytearray(MAP_SIZE)
        for hits in groups:
            for idx, count in hits:
                buf[idx] = count
        hit = {i: scalar_bucket(buf[i]) for hits in groups for i, _ in hits}

        bucketed = classify_counts(bytes(buf))
        assert bucketed.dtype == np.uint8 and len(bucketed) == MAP_SIZE
        assert {int(i): int(bucketed[i])
                for i in np.flatnonzero(bucketed)} == hit

        expect = NO_NEW
        for i, b in hit.items():
            if b & ~seen[i]:
                expect = max(expect, NEW_EDGE if seen[i] == 0 else NEW_BUCKET)
        for i, b in hit.items():
            seen[i] |= b
        touched.update(hit)

        assert vm.has_new_bits(bucketed) == expect
        assert vm.edge_count() == sum(1 for i in touched if seen[i])
        assert vm.bit_count() == sum(bin(seen[i]).count("1") for i in touched)
