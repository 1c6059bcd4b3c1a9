"""The numpy-free kernels reproduce the numpy formulas they replaced.

Payload bytes feed every read-back check and golden digest, and the mean
feeds every placement efficiency, so each must match numpy bit for bit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cpu import mean
from repro.storage.datamodel import CorruptPayload, PatternPayload

np = pytest.importorskip("numpy")


def numpy_pattern(seed, start, length):
    idx = np.arange(start, start + length, dtype=np.uint64)
    vals = (idx * np.uint64(2654435761)
            + np.uint64(seed * 40503)
            + (idx >> np.uint64(8)))
    return (vals & np.uint64(0xFF)).astype(np.uint8).tobytes()


def numpy_corrupt(token, start, length):
    idx = np.arange(start, start + length, dtype=np.uint64)
    vals = (idx * np.uint64(2246822519)
            + np.uint64(token * 65599) + np.uint64(0xB17F))
    return (vals & np.uint64(0xFF)).astype(np.uint8).tobytes()


#: Offsets at and around the row (256) and period (65 536) boundaries.
EDGES = [0, 1, 255, 256, 257, 511, 65_535, 65_536, 65_537, 131_071,
         131_072, 3 * 65_536 + 200]
LENGTHS = [0, 1, 2, 255, 256, 257, 65_535, 65_536, 65_537, 200_000]

seeds = st.integers(0, 2 ** 32)
starts = st.one_of(st.sampled_from(EDGES), st.integers(0, 2 ** 40))
lengths = st.one_of(st.sampled_from(LENGTHS), st.integers(0, 70_000))


@pytest.mark.parametrize("start", EDGES)
@pytest.mark.parametrize("length", LENGTHS)
def test_pattern_and_corrupt_at_boundaries(start, length):
    for seed in (0, 1, 7, 12_345):
        assert (PatternPayload(seed).materialize(start, length)
                == numpy_pattern(seed, start, length))
        assert (CorruptPayload(seed).materialize(start, length)
                == numpy_corrupt(seed, start, length))


@settings(max_examples=300, deadline=None)
@given(seeds, starts, lengths)
def test_pattern_matches_numpy(seed, start, length):
    assert (PatternPayload(seed).materialize(start, length)
            == numpy_pattern(seed, start, length))


@settings(max_examples=300, deadline=None)
@given(seeds, starts, lengths)
def test_corrupt_matches_numpy(token, start, length):
    assert (CorruptPayload(token).materialize(start, length)
            == numpy_corrupt(token, start, length))


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(0, 2 ** 20), st.integers(0, 5_000))
def test_integral_float_offsets(seed, start, length):
    """``LogFile`` capacities are floats; ``np.arange`` accepted them."""
    want = numpy_pattern(seed, start, length)
    assert PatternPayload(seed).materialize(float(start),
                                            float(length)) == want
    assert (CorruptPayload(seed).materialize(float(start), float(length))
            == numpy_corrupt(seed, start, length))


def test_negative_offset_rejected():
    with pytest.raises(IndexError):
        PatternPayload(1).materialize(-1, 4)
    with pytest.raises(IndexError):
        CorruptPayload(1).materialize(-1, 4)


floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(floats, min_size=1, max_size=300))
def test_mean_matches_numpy(xs):
    assert mean(xs) == float(np.mean(xs))


def test_mean_matches_numpy_every_length():
    """Every length through 600 (all three summation regimes and their
    seams), plus a few long ones that split several times."""
    rng = np.random.default_rng(0)
    for n in [*range(1, 601), 1_025, 1_031, 2_048, 4_099, 10_007]:
        for xs in (rng.random(n).tolist(),
                   (1.0 / rng.integers(1, 70, n)).tolist(),
                   (rng.standard_normal(n) * 10.0 ** rng.integers(-6, 6, n))
                   .tolist()):
            assert mean(xs) == float(np.mean(xs)), n
