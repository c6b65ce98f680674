"""Certified rational bounds for real powers of rationals.

Everything downstream that bounds a series tail needs rational numbers r
with a one-sided guarantee r >= b**e (or r <= b**e) for a positive rational
base b and a rational exponent e.  We get them from integer nth roots of
scaled integers, so the direction of every rounding is provable.  A float
only seeds the integer Newton iteration of floor_nth_root; the root it
returns is exact, so no float reaches a bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import log2

DEFAULT_PRECISION_BITS = 64


def floor_nth_root(n: int, k: int) -> int:
    """Largest r with r**k <= n, for n >= 0, k >= 1.

    Integer Newton steps r -> ((k-1) r + n // r**(k-1)) // k, seeded by a
    float 2**(log2(n) / k).  A step from any r >= 1 lands at or above the
    floor root (AM-GM), and from there every step descends strictly until
    it stops at the floor root, so one unconditional step makes the result
    exact whatever the seed's error.  A seed within a float's precision of
    the root needs a few steps for any k (a bit-length seed, up to twice
    the root, would shrink r only by a factor 1 - 1/k per step).
    """
    if n < 0:
        raise ValueError("floor_nth_root needs n >= 0")
    if k < 1:
        raise ValueError("floor_nth_root needs k >= 1")
    if n in (0, 1) or k == 1:
        return n
    # 2**e0 * 2**(e - e0) with 2**(e - e0) < 2**53 stays inside a float
    e = log2(n) / k
    e0 = max(int(e) - 52, 0)
    r = int(2.0 ** (e - e0)) + 1 << e0
    r = ((k - 1) * r + n // r ** (k - 1)) // k
    while True:
        nxt = ((k - 1) * r + n // r ** (k - 1)) // k
        if nxt >= r:
            return r
        r = nxt


def _root_bounds(x: Fraction, k: int, bits: int) -> tuple[Fraction, Fraction]:
    """(lo, hi) rationals with lo <= x**(1/k) <= hi, for x > 0."""
    scale = 1 << (bits * k)
    num = x.numerator * scale
    den = x.denominator
    lo_int = floor_nth_root(num // den, k)
    hi_int = floor_nth_root(-(-num // den), k) + 1
    shift = 1 << bits
    return Fraction(lo_int, shift), Fraction(hi_int, shift)


def pow_bounds(
    base: Fraction | int,
    exponent: Fraction | int,
    bits: int = DEFAULT_PRECISION_BITS,
) -> tuple[Fraction, Fraction]:
    """(lo, hi) rationals with lo <= base**exponent <= hi.

    base must be a positive rational; exponent any rational.  Integer
    exponents are exact (lo == hi).
    """
    b = Fraction(base)
    e = Fraction(exponent)
    if b <= 0:
        raise ValueError("pow_bounds needs a positive base")
    if e.denominator == 1:
        exact = b ** int(e)
        return exact, exact
    if e < 0:
        lo, hi = pow_bounds(1 / b, -e, bits)
        return lo, hi
    # e = u/v with u, v > 0: bound the v-th root of b**u.
    u, v = e.numerator, e.denominator
    return _root_bounds(b ** u, v, bits)


def pow_upper(base, exponent, bits: int = DEFAULT_PRECISION_BITS) -> Fraction:
    """Rational r >= base**exponent."""
    return pow_bounds(base, exponent, bits)[1]


def pow_lower(base, exponent, bits: int = DEFAULT_PRECISION_BITS) -> Fraction:
    """Rational r <= base**exponent."""
    return pow_bounds(base, exponent, bits)[0]
