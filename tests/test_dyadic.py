"""Certified direction of the rational power bounds."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ramsmooth.dyadic import floor_nth_root, pow_bounds, pow_lower, pow_upper


@given(st.integers(min_value=0, max_value=10 ** 24),
       st.integers(min_value=1, max_value=12))
def test_floor_nth_root(n, k):
    r = floor_nth_root(n, k)
    assert r ** k <= n
    assert (r + 1) ** k > n


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 4),
       st.integers(min_value=0, max_value=2 ** 64),
       st.integers(min_value=0, max_value=64))
def test_floor_nth_root_large_k(k, top, bits):
    # n of up to 64 k + 64 bits: r spans 0 to about 2**65 for every k
    n = top << (bits * k)
    r = floor_nth_root(n, k)
    assert r ** k <= n < (r + 1) ** k


@pytest.mark.parametrize("k", [2, 16, 97, 997, 3001, 10 ** 4])
def test_floor_nth_root_near_powers(k):
    n = 1 << (64 * k)
    assert floor_nth_root(n, k) == 1 << 64
    assert floor_nth_root(n - 1, k) == (1 << 64) - 1
    r = floor_nth_root(3 * n, k)
    assert r ** k <= 3 * n < (r + 1) ** k


@given(st.integers(min_value=2, max_value=10 ** 6),
       st.fractions(min_value=Fraction(1, 16), max_value=4, max_denominator=16))
def test_positive_exponent_direction(base, exponent):
    lo, hi = pow_bounds(base, exponent)
    u, v = exponent.numerator, exponent.denominator
    # lo <= base**(u/v) <= hi, checked exactly by raising to the v-th power
    assert lo >= 0
    assert lo ** v <= Fraction(base) ** u
    assert hi ** v >= Fraction(base) ** u


@given(st.integers(min_value=2, max_value=10 ** 6),
       st.fractions(min_value=Fraction(1, 16), max_value=2, max_denominator=16))
def test_negative_exponent_direction(base, exponent):
    lo, hi = pow_bounds(base, -exponent)
    u, v = exponent.numerator, exponent.denominator
    assert 0 <= lo <= hi
    # lo <= base**(-u/v)  <=>  lo**v * base**u <= 1
    assert lo ** v * Fraction(base) ** u <= 1
    assert hi ** v * Fraction(base) ** u >= 1


def test_integer_exponents_exact():
    lo, hi = pow_bounds(Fraction(3, 2), -3)
    assert lo == hi == Fraction(8, 27)
    lo, hi = pow_bounds(7, 0)
    assert lo == hi == 1


def test_exact_roots_are_tight():
    lo = pow_lower(1024, Fraction(-1, 2))
    hi = pow_upper(1024, Fraction(-1, 2))
    assert lo <= Fraction(1, 32) <= hi
    assert hi - lo <= Fraction(1, 2 ** 60)


def test_bounds_bracket_tightly():
    lo, hi = pow_bounds(2, Fraction(-1, 2))
    assert hi - lo < Fraction(1, 2 ** 60)
    # 2**(-1/2) = 0.7071...: both sides on the right side of the true value
    assert lo ** 2 * 2 <= 1 <= hi ** 2 * 2
