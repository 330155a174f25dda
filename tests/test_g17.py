"""The numpy ``%.17g`` formatter against Python's own ``b"%.17g" % v``.

:class:`netalloc._g17.G17` must give every value exactly Python's bytes,
as the ``.tolist()`` of the NUL-padded ``S24`` array it returns: values in
fixed notation through its numpy path, every other value through Python.
Uniformly random bit patterns mostly reach Python (their exponents span all
2048 exponent fields), so half the random draws aim at the numpy path.
"""

from fractions import Fraction

import numpy as np
import pytest

from netalloc import _g17
from netalloc._g17 import G17
from conftest import SUITE_SEED


def python_bytes(values):
    return [b"%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


def mismatches(values, block=4096):
    """The values whose bytes differ from Python's, formatting ``block`` at a time."""
    values = np.asarray(values, dtype=np.float64)
    digits = G17()
    bad = []
    for r0 in range(0, len(values), block):
        chunk = values[r0 : r0 + block]
        got, want = digits(chunk).tolist(), python_bytes(chunk)
        bad += [(w, g) for g, w in zip(got, want) if g != w]
    return bad


def random_bits(rng, count):
    return rng.integers(0, 2**64, count, dtype=np.uint64, endpoint=False).view(np.float64)


def in_range(rng, count):
    """Random signs and significands with binary exponents from 2**-15 to 2**57,
    which cover decimal exponents -5 to 17: every fixed-notation value and the
    exponential ones next to it."""
    significand = rng.integers(0, 2**52, count, dtype=np.uint64)
    exponent = rng.integers(1023 - 15, 1023 + 58, count).astype(np.uint64)
    sign = rng.integers(0, 2, count).astype(np.uint64)
    return (significand | exponent << np.uint64(52) | sign << np.uint64(63)).view(np.float64)


def near_powers_of_ten():
    """10**e for e in -5 .. 17, the two doubles next to it, and their negatives."""
    out = []
    for e in range(-5, 18):
        p = float(f"1e{e}")
        out += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    return out + [-v for v in out]


EDGES = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    1e-310,
    2.2250738585072009e-308,
    2.2250738585072014e-308,
    -2.2250738585072014e-308,  # 24 bytes, as long as a %.17g result gets
    1.7976931348623157e308,
    -1.7976931348623157e308,
    float("inf"),
    float("-inf"),
    float("nan"),
    -float("nan"),
    2.0**53 - 1,
    2.0**53,
    2.0**53 + 2,
    2.0**54 + 4,
    1 + 2**-17,  # 17 digits then an exact 5: ties go to the even digit
    1 + 3 * 2**-17,
    -(1 + 2**-17),
    0.5,
    2.5,
    1e16 + 2,
    1e17 - 16,
    0.1,
    1 / 3,
    -2 / 3,
    123456789.0,
    100.0,
    -5000.0,
    1.5e-3,
]


def test_a_million_random_bit_patterns():
    # half uniformly random, half with a fixed-notation exponent
    rng = np.random.default_rng([SUITE_SEED, 17])
    assert mismatches(random_bits(rng, 2**19)) == []
    assert mismatches(in_range(rng, 2**19)) == []


@pytest.mark.parametrize("values", [EDGES, near_powers_of_ten()], ids=["edges", "powers-of-ten"])
def test_edge_values(values):
    assert mismatches(values) == []
    assert mismatches(values, block=1) == []


def test_block_of_fast_and_fallback_cells_gives_each_cells_bytes():
    # numpy-path cells around Python-path ones, in one block, and then a
    # smaller and a larger block through the same scratch arrays
    rng = np.random.default_rng([SUITE_SEED, 19])
    values = in_range(rng, 600)
    values[::7] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-5, -3e-300, 1e17, -2e200], 86)
    digits = G17()
    for chunk in (values, values[:5], values[::-1], np.concatenate([values, values])):
        cells, want = digits(chunk), python_bytes(chunk)
        assert cells.dtype == np.dtype("S24") and cells.shape == chunk.shape
        assert cells.tolist() == want
        # each cell's bytes, then NULs to 24 bytes, which the CSV writer drops
        assert cells.tobytes() == b"".join(b.ljust(24, b"\0") for b in want)


def test_non_contiguous_input():
    values = np.array([1.25, -7.0, 0.0, 3e-5, 42.0, 1e300]).reshape(3, 2)
    assert G17()(values[:, 1]).tolist() == python_bytes(values[:, 1])


def test_thresholds_are_the_smallest_doubles_at_or_above_each_power_of_ten():
    for e, t in zip(range(_g17._LO, _g17._HI + 2), [_g17._MIN, *_g17._NEXT.tolist()]):
        assert Fraction(t) >= Fraction(10) ** e
        assert Fraction(float(np.nextafter(t, 0.0))) < Fraction(10) ** e


def test_scales_are_exact_and_split_exactly():
    for e, s, hi, lo in zip(range(_g17._LO, _g17._HI + 1), _g17._SCALE, _g17._SCALE_HI, _g17._SCALE_LO):
        assert Fraction(float(s)) == Fraction(10) ** (16 - e)
        assert Fraction(float(hi)) + Fraction(float(lo)) == Fraction(float(s))


def test_exponent_guess_is_the_exponent_or_one_less():
    def clipped(e):
        return min(max(e, _g17._LO), _g17._HI)

    # the guess for binary exponent u covers [2**u, 2**(u + 1))
    for u in range(-20, 60):
        guess = int(_g17._GUESS[u + 1023]) + _g17._LO
        for x in (Fraction(2) ** u, Fraction(2) ** (u + 1) - Fraction(1, 10**30)):
            exponent = max(e for e in range(-10, 25) if Fraction(10) ** e <= x)
            assert guess in (clipped(exponent), clipped(exponent - 1))
