import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from equifair.floatrepr import _CHUNK, float_reprs

from oracles import float_reprs_oracle

EXP_MASK = 0x7FF << 52


def from_bits(patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


def assert_exact(values):
    values = np.asarray(values, dtype=np.float64)
    got, want = float_reprs(values), float_reprs_oracle(values)
    assert len(got) == len(want)
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, (len(bad), bad[:5])


finite_bits = st.integers(0, 2**64 - 1).filter(lambda b: b & EXP_MASK != EXP_MASK)


@given(st.lists(finite_bits, min_size=1, max_size=64))
def test_random_bit_patterns(patterns):
    assert_exact(from_bits(patterns))


@given(st.integers(0, 2**32 - 1), st.integers(_CHUNK - 8, 2 * _CHUNK + 8))
def test_random_bit_patterns_across_the_chunk_boundary(seed, n):
    bits = np.random.default_rng(seed).integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
    bits[bits & EXP_MASK == EXP_MASK] ^= 1 << 62  # a NaN or infinity becomes a finite value near 1
    assert_exact(from_bits(bits))


def test_every_small_subnormal():
    # significands below 21 round to one digit, which Java's Schubfach never gives
    assert_exact(from_bits(np.arange(1, 1 << 16, dtype=np.uint64)))
    assert_exact(-from_bits(np.arange(1, 1 << 16, dtype=np.uint64)))


def test_powers_of_two_and_ten_and_their_neighbours():
    powers = [math.ldexp(1.0, e) for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]
    bits = np.array(powers).view(np.uint64).astype(np.int64)
    near = np.concatenate([bits + d for d in range(-3, 4)]).astype(np.uint64).view(np.float64)
    near = near[np.isfinite(near) & (near > 0)]
    assert len(near) > 19_000
    assert_exact(near)
    assert_exact(-near)


@pytest.mark.parametrize("value, text", [
    (0.0, "0.0"), (-0.0, "-0.0"), (5e-324, "5e-324"), (1e-323, "1e-323"), (1.5e-323, "1.5e-323"),
    (5e-323, "5e-323"), (1e16, "1e+16"), (9999999999999998.0, "9999999999999998.0"), (1e-4, "0.0001"),
    (1e-5, "1e-05"), (2.2250738585072014e-308, "2.2250738585072014e-308"),
    (1.7976931348623157e308, "1.7976931348623157e+308"), (-0.1, "-0.1"), (123.0, "123.0"),
])
def test_edge_values(value, text):
    assert float_reprs(np.array([value])) == [text] == float_reprs_oracle([value])


def test_shapes_and_strides():
    values = np.arange(24, dtype=np.float64).reshape(4, 6) / 7
    assert float_reprs(values) == float_reprs_oracle(values)
    assert float_reprs(values[:, ::2]) == float_reprs_oracle(values[:, ::2])
    assert float_reprs(np.empty(0)) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_value_is_refused(bad):
    with pytest.raises(ValueError, match="non-finite"):
        float_reprs(np.array([0.5] * _CHUNK + [bad]))


def test_wraparound_warns_nothing():
    # zeros take the interval's lower end below 0; large significands
    # overflow the 32-bit partial products' sums
    values = np.concatenate((from_bits([0, 1 << 63, 1, EXP_MASK - 1, 2**64 - 2**52 - 1]), np.linspace(-1e300, 1e300, 99)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_exact(values)
