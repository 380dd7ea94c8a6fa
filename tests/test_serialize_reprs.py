# tests/test_serialize_reprs.py
"""``serialize._reprs`` against ``float.__repr__`` on every value, on both of
its branches: over 64 values with two of the first 64 real parts equal (each
distinct bit pattern formatted once), and the rest (every value formatted)."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dpsmap.serialize import _reprs  # noqa: E402

# +-0.0, +-inf, NaNs with distinct payloads and both sign bits, subnormals
SPECIAL_BITS = [int(x) for x in np.array(
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -2.2250738585072e-308],
    dtype=np.float64).view(np.int64)] + [
    0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF,
    -0x8000000000000, -0x7FFFFFFFFFFFF, -1]
BITS = st.one_of(st.sampled_from(SPECIAL_BITS),
                 st.integers(-(1 << 63), (1 << 63) - 1))


def as_float(bits: int) -> float:
    return float(np.int64(bits).view(np.float64))


# 64 patterns from at most 4, the first two equal and not NaN: the sample repeats
REPEATING = st.tuples(BITS.filter(lambda b: as_float(b) == as_float(b)),
                      st.lists(BITS, max_size=3)).flatmap(
    lambda t: st.lists(st.sampled_from([t[0], *t[1]]), min_size=62, max_size=62)
    .map(lambda rest: [t[0], t[0], *rest]))
# no two equal as floats (0.0 == -0.0; a NaN equals nothing)
DISTINCT = st.lists(BITS, unique_by=as_float, max_size=80)


def plain(x):
    return list(map(float.__repr__, x.ravel().tolist()))


def complex_of(re_bits, im_bits):
    """The complex array whose parts hold exactly these bit patterns."""
    parts = np.array([re_bits, im_bits], dtype=np.int64).view(np.float64)
    return np.ascontiguousarray(parts.T).view(complex)[:, 0]


def assert_plain(z):
    assert _reprs(z) == (plain(z.real), plain(z.imag))


@settings(max_examples=30, deadline=None)
@given(repeating_head=st.booleans(), data=st.data())
def test_reprs_is_float_repr_of_every_value(repeating_head, data):
    """Real parts: a repeating first 64 with an all-distinct tail, and the
    reverse; imaginary parts: anything."""
    if repeating_head:
        re = data.draw(REPEATING) + data.draw(DISTINCT.filter(len))
    else:
        re = data.draw(st.lists(BITS, unique_by=as_float, min_size=64, max_size=64))
        re += data.draw(REPEATING)[:data.draw(st.integers(0, 64))]
    im = data.draw(st.lists(BITS, min_size=len(re), max_size=len(re)))
    z = complex_of(re, im)
    assert_plain(z)
    # non-contiguous views: strided, and a transposed 2-D block
    padded = np.zeros(2 * len(z), dtype=complex)
    padded[::2] = z
    assert_plain(padded[::2])
    assert_plain(z[:len(z) // 4 * 4].reshape(4, -1).T)


@settings(max_examples=40, deadline=None)
@given(re=st.lists(BITS, max_size=70), data=st.data())
def test_reprs_of_short_and_mixed_arrays(re, data):
    im = data.draw(st.lists(BITS, min_size=len(re), max_size=len(re)))
    assert_plain(complex_of(re, im))


@pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
def test_reprs_of_empty_arrays(shape):
    assert _reprs(np.zeros(shape, dtype=complex)) == ([], [])
