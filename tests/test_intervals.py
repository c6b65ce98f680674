"""Enclosure is preserved by every BoundedValue operation."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ramsmooth import BoundedValue, interval_sum

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)
radii = st.fractions(min_value=0, max_value=10, max_denominator=40)


def covered(bv: BoundedValue, true_value: Fraction) -> bool:
    return bv.contains(true_value)


@given(rationals, radii, rationals, radii, st.data())
def test_add_sub_preserve_enclosure(c1, r1, c2, r2, data):
    # pick true values anywhere inside each interval
    t1 = c1 + data.draw(st.fractions(min_value=-r1, max_value=r1,
                                     max_denominator=64)) if r1 else c1
    t2 = c2 + data.draw(st.fractions(min_value=-r2, max_value=r2,
                                     max_denominator=64)) if r2 else c2
    a, b = BoundedValue(c1, r1), BoundedValue(c2, r2)
    assert covered(a + b, t1 + t2)
    assert covered(a - b, t1 - t2)
    assert covered(-a, -t1)


@given(rationals, radii, rationals)
def test_scale_preserves_enclosure(center, radius, k):
    bv = BoundedValue(center, radius)
    for endpoint in (bv.lower, bv.upper, center):
        assert covered(bv.scale(k), endpoint * k)


@given(rationals, radii)
def test_bounds_and_abs(center, radius):
    bv = BoundedValue(center, radius)
    assert bv.lower <= bv.center <= bv.upper
    assert bv.abs_upper >= abs(bv.lower)
    assert bv.abs_upper >= abs(bv.upper)
    assert bv.is_exact == (radius == 0)


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        BoundedValue(Fraction(0), Fraction(-1))


def test_overlap_and_sum():
    a = BoundedValue(Fraction(1), Fraction(1, 2))
    b = BoundedValue(Fraction(2), Fraction(1, 2))
    c = BoundedValue(Fraction(3), Fraction(1, 4))
    assert a.overlaps(b) and not a.overlaps(c)
    total = interval_sum([a, b, c])
    assert total.center == 6 and total.radius == Fraction(5, 4)
