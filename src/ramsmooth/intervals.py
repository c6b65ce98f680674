"""Exact center + rigorous radius intervals for truncated series.

A BoundedValue asserts the represented real lies in
[center - radius, center + radius]; radius 0 means the value is exact.
Radii only ever grow under arithmetic, so enclosure is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class BoundedValue:
    center: Fraction
    radius: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "center", Fraction(self.center))
        object.__setattr__(self, "radius", Fraction(self.radius))
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")

    @classmethod
    def exact(cls, value) -> "BoundedValue":
        return cls(Fraction(value), Fraction(0))

    @property
    def is_exact(self) -> bool:
        return self.radius == 0

    @property
    def lower(self) -> Fraction:
        return self.center - self.radius

    @property
    def upper(self) -> Fraction:
        return self.center + self.radius

    @property
    def abs_upper(self) -> Fraction:
        """Upper bound on the absolute value of the represented real."""
        return abs(self.center) + self.radius

    def contains(self, value) -> bool:
        return self.lower <= Fraction(value) <= self.upper

    def excludes(self, value) -> bool:
        return not self.contains(value)

    def overlaps(self, other: "BoundedValue") -> bool:
        return self.lower <= other.upper and other.lower <= self.upper

    def __add__(self, other: "BoundedValue") -> "BoundedValue":
        return BoundedValue(self.center + other.center, self.radius + other.radius)

    def __sub__(self, other: "BoundedValue") -> "BoundedValue":
        return BoundedValue(self.center - other.center, self.radius + other.radius)

    def __neg__(self) -> "BoundedValue":
        return BoundedValue(-self.center, self.radius)

    def scale(self, k) -> "BoundedValue":
        k = Fraction(k)
        return BoundedValue(self.center * k, self.radius * abs(k))


def interval_sum(items) -> BoundedValue:
    """Sum of BoundedValues (deterministic left fold)."""
    total = BoundedValue.exact(0)
    for it in items:
        total = total + it
    return total
