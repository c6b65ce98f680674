"""Smooth-twisted orthogonality: exact evaluator vs certified series."""

import contextlib
import io
from fractions import Fraction

import pytest

from ramsmooth import (
    SmoothContext,
    SmoothSeries,
    euler_phi,
    orthogonality_exact,
    orthogonality_truncated,
    orthogonality_truncated_auto,
    pair_series_exact,
    pair_series_partial,
    ramanujan_sum,
    smooth_up_to,
)
from ramsmooth import arith
from ramsmooth.cli import main
from ramsmooth.orthogonality import AUTO_X_START, tail_radius


def expected(q, ell):
    return Fraction(euler_phi(ell)) if q == ell else Fraction(0)


class TestExactEvaluator:
    def test_examples(self):
        assert orthogonality_exact(1, 1) == 1
        assert orthogonality_exact(2, 2) == 1
        assert orthogonality_exact(2, 3) == 0
        assert orthogonality_exact(3, 3) == 2

    def test_collapses_on_grid(self):
        for q in range(1, 31):
            for ell in range(1, 31):
                assert orthogonality_exact(q, ell) == expected(q, ell)

    def test_factorize_count(self, tmp_path, monkeypatch):
        """`orthogonality --Q 7 --max 30` factorizes at most 6,000
        integers (it makes 4,994): each cell takes the Mobius values on
        the divisors of ell once, not once per divisor of q (10,305)."""
        calls = []
        real = arith.factorize

        def counting(n):
            calls.append(n)
            return real(n)
        monkeypatch.setattr(arith, "factorize", counting)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["orthogonality", "--Q", "7", "--max", "30",
                         "--out", str(tmp_path)]) == 0
        assert len(calls) <= 6_000

    def test_symmetric_on_grid(self):
        for q in range(1, 25):
            for ell in range(1, 25):
                assert orthogonality_exact(q, ell) == \
                    orthogonality_exact(ell, q)


class TestSeries:
    def test_full_series_euler_product(self):
        # the exact resummation times the totient product is the collapse
        for Q in (2, 3, 5):
            ctx = SmoothContext(Q)
            for q in smooth_up_to(ctx, 20):
                for ell in smooth_up_to(ctx, 20):
                    got = ctx.totient_product * pair_series_exact(ctx, q, ell)
                    assert got == expected(q, ell), (Q, q, ell)

    def test_full_series_handles_nonsmooth_indices(self):
        # only smooth divisor pairs contribute; q = 3 against Q = 2 sums
        # c_3 over powers of two: mu(3) * harmonic = -2
        ctx = SmoothContext(2)
        assert pair_series_exact(ctx, 3, 1) == -2

    def test_partial_matches_direct_sum(self):
        ctx = SmoothContext(3)
        series = SmoothSeries(ctx, 3000)
        # includes indices with non-smooth factors: only their smooth
        # divisors can meet a smooth t, which the rearrangement must honor
        for q, ell in ((1, 1), (2, 2), (2, 3), (4, 6), (9, 9),
                       (5, 3), (7, 7), (10, 6), (15, 4)):
            direct = sum(
                Fraction(ramanujan_sum(q, t) * ramanujan_sum(ell, t), t)
                for t in series.values)
            assert pair_series_partial(series, q, ell) == direct

    def test_truncated_contains_exact(self):
        for Q in (2, 3):
            ctx = SmoothContext(Q)
            X = 1 << 13
            series = SmoothSeries(ctx, X)
            for q in smooth_up_to(ctx, 12):
                for ell in smooth_up_to(ctx, 12):
                    got = orthogonality_truncated(ctx, q, ell, X, series)
                    assert got.contains(expected(q, ell)), (Q, q, ell)

    def test_power_of_two_diagonal(self):
        ctx = SmoothContext(2)
        got = orthogonality_truncated(ctx, 2, 2, 1 << 10)
        assert got.contains(1)
        assert abs(got.center - 1) < Fraction(1, 500)

    def test_unit_indices(self):
        ctx = SmoothContext(2)
        got = orthogonality_truncated(ctx, 1, 1, 64)
        assert got.contains(1)

    def test_rejects_nonsmooth_indices(self):
        ctx = SmoothContext(2)
        with pytest.raises(ValueError):
            orthogonality_truncated(ctx, 3, 1, 64)

    def test_auto_meets_target(self):
        ctx = SmoothContext(5)
        target = Fraction(1, 10 ** 4)
        X = AUTO_X_START
        while tail_radius(ctx, 6, 6, X)[0] > target:
            X *= 2
        got = orthogonality_truncated_auto(ctx, 6, 6, target)
        assert X > AUTO_X_START and got.radius <= target
        assert got == orthogonality_truncated(ctx, 6, 6, X)
        assert got.contains(euler_phi(6))
        # no cutoff up to the cap of 10**16 reaches a radius of 10**-40
        with pytest.raises(ArithmeticError):
            orthogonality_truncated_auto(ctx, 6, 6, Fraction(1, 10 ** 40))


def test_denominator_identity():
    for Q in (2, 3, 5, 7, 11):
        ctx = SmoothContext(Q)
        assert ctx.smooth_harmonic * ctx.totient_product == 1
