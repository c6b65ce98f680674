"""Smooth/sifted machinery: enumeration, counting, Euler products, tails."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ramsmooth import (
    SmoothContext,
    SmoothSeries,
    best_tail_params,
    euler_product_upper,
    refine_cutoff,
    sifted_count,
    smooth_power_series,
    smooth_tail_bound,
    smooth_up_to,
)
from ramsmooth.arith import factorize


def brute_smooth(Q: int, X: int) -> list[int]:
    return [n for n in range(1, X + 1)
            if all(p <= Q for p, _ in factorize(n).factors)]


class TestContext:
    def test_products(self):
        ctx = SmoothContext(3)
        assert ctx.primes == (2, 3)
        assert ctx.primorial == 6
        assert ctx.totient_product == Fraction(1, 3)
        assert ctx.smooth_harmonic == 3
        assert ctx.totient_product * ctx.smooth_harmonic == 1

    def test_bound_validated(self):
        with pytest.raises(ValueError):
            SmoothContext(1)

    def test_non_prime_bound(self):
        # the smooth set only depends on the primes up to the bound
        assert SmoothContext(4).primes == SmoothContext(3).primes == (2, 3)

    def test_totient_product_range(self):
        for Q in range(2, 30):
            assert 0 < SmoothContext(Q).totient_product <= Fraction(1, 2)


class TestMembership:
    def test_examples(self):
        assert SmoothContext(2).is_smooth(1)
        assert SmoothContext(2).is_smooth(16)
        assert not SmoothContext(3).is_smooth(10)
        assert SmoothContext(5).is_sifted(1)
        assert SmoothContext(5).is_sifted(49)
        assert not SmoothContext(3).is_sifted(6)

    def test_sets_meet_only_at_one(self):
        ctx = SmoothContext(7)
        assert ctx.is_smooth(1) and ctx.is_sifted(1)
        for n in range(2, 10_000):
            assert not (ctx.is_smooth(n) and ctx.is_sifted(n))

    def test_smooth_and_sifted_are_coprime(self):
        from math import gcd
        ctx = SmoothContext(5)
        smooth = [n for n in range(1, 301) if ctx.is_smooth(n)]
        sifted = [m for m in range(1, 301) if ctx.is_sifted(m)]
        for n in smooth:
            for m in sifted:
                assert gcd(n, m) == 1

    def test_unique_smooth_sifted_factorization(self):
        ctx = SmoothContext(5)
        # sieve smoothness flags once, then count decompositions directly
        X = 10_000
        smooth_flag = [False] * (X + 1)
        for t in smooth_up_to(ctx, X):
            smooth_flag[t] = True
        for a in range(1, X + 1):
            t = ctx.smooth_part(a)
            assert smooth_flag[t] and ctx.is_sifted(a // t)
        for a in range(1, 1500):
            count = sum(1 for t in range(1, a + 1)
                        if a % t == 0 and smooth_flag[t]
                        and ctx.is_sifted(a // t))
            assert count == 1


class TestEnumeration:
    def test_examples(self):
        assert smooth_up_to(SmoothContext(2), 16) == [1, 2, 4, 8, 16]
        assert smooth_up_to(SmoothContext(3), 12) == [1, 2, 3, 4, 6, 8, 9, 12]
        assert smooth_up_to(SmoothContext(11), 1) == [1]

    @pytest.mark.parametrize("Q", [2, 3, 5, 7, 11, 13])
    def test_against_brute_filter(self, Q):
        assert smooth_up_to(SmoothContext(Q), 10_000) == brute_smooth(Q, 10_000)

    def test_series_prefix_sums(self):
        series = SmoothSeries(SmoothContext(3), 200)
        acc = Fraction(0)
        for t in series.values:
            acc += Fraction(1, t)
            assert series.harmonic_up_to(t) == acc
        assert series.harmonic_up_to(0) == 0


class TestSiftedCount:
    def test_examples(self):
        assert sifted_count(SmoothContext(2), 10) == (5, Fraction(5))
        count, main = sifted_count(SmoothContext(3), 6)
        assert count == 2 and main == 2
        assert sifted_count(SmoothContext(11), 1)[0] == 1

    @pytest.mark.parametrize("Q", [2, 3, 5, 7, 11, 13])
    def test_error_bound(self, Q):
        ctx = SmoothContext(Q)
        for X in (1, 7, 100, 999, 12_345, 100_000):
            count, main = sifted_count(ctx, X)
            brute = sum(1 for n in range(1, min(X, 2000) + 1)
                        if ctx.is_sifted(n))
            if X <= 2000:
                assert count == brute
            assert abs(count - main) <= 2 ** ctx.prime_count


class TestEulerProducts:
    def test_examples(self):
        assert smooth_power_series(SmoothContext(2), -1) == 2
        assert smooth_power_series(SmoothContext(3), -1) == 3
        assert smooth_power_series(SmoothContext(3), -2) == Fraction(3, 2)

    def test_rejections(self):
        ctx = SmoothContext(3)
        with pytest.raises(ValueError):
            smooth_power_series(ctx, 0)
        with pytest.raises(ValueError):
            smooth_power_series(ctx, Fraction(-1, 2))

    def test_matches_partial_sums(self):
        ctx = SmoothContext(5)
        total = smooth_power_series(ctx, -2)
        partial = sum(Fraction(1, t * t) for t in smooth_up_to(ctx, 20_000))
        assert 0 < total - partial < Fraction(1, 10_000)

    def test_upper_bound_dominates(self):
        ctx = SmoothContext(5)
        for s in (Fraction(-1, 2), Fraction(-3, 4), Fraction(-7, 8)):
            ub = euler_product_upper(ctx, s)
            partial = sum(float(t) ** float(s) for t in smooth_up_to(ctx, 50_000))
            assert float(ub) > partial


class TestRankinTail:
    def test_validation(self):
        ctx = SmoothContext(3)
        smooth_tail_bound(ctx, Fraction(0), Fraction(1, 2), 10)
        smooth_tail_bound(ctx, Fraction(1, 4), Fraction(1, 2), 1)
        with pytest.raises(ValueError):
            smooth_tail_bound(ctx, Fraction(1, 2), Fraction(1, 2), 10)
        with pytest.raises(ValueError):
            smooth_tail_bound(ctx, Fraction(0), Fraction(0), 10)
        with pytest.raises(ValueError):
            smooth_tail_bound(ctx, Fraction(0), Fraction(1, 2), 0)

    def test_best_params_reject_epsilon_near_one(self):
        # the delta grid is {1/16, ..., 15/16}: no delta is admissible
        # once epsilon + 1/16 reaches 1
        ctx = SmoothContext(3)
        best_tail_params(ctx, Fraction(7, 8), 10)
        with pytest.raises(ValueError):
            best_tail_params(ctx, Fraction(15, 16), 10)

    def test_bound_exceeds_partial_tail(self):
        # oracle: a partial sum of actual tail terms stays under the bound
        ctx = SmoothContext(3)
        eps = Fraction(1, 4)
        B = smooth_tail_bound(ctx, eps, Fraction(1, 2), 1)
        tail_terms = [float(t) ** (float(eps) - 1)
                      for t in smooth_up_to(ctx, 100_000)[1:]]
        assert float(B) > sum(tail_terms)

    def test_closed_form_power_of_two(self):
        # Q=2, eps=0, delta=1/2, X=1024: the bound is
        # 1024**(-1/2) / (1 - 2**(-1/2)) up to dyadic rounding
        from ramsmooth.dyadic import pow_lower
        ctx = SmoothContext(2)
        B = smooth_tail_bound(ctx, Fraction(0), Fraction(1, 2), 1024)
        closed = (1 / 32) / (1 - 2 ** -0.5)
        assert abs(float(B) - closed) < 1e-12
        # rounding is always in the safe direction: B >= (1/32)/(1 - r)
        # for any rational r <= 2**(-1/2), checked exactly
        r = pow_lower(2, Fraction(-1, 2))
        assert B * (1 - r) >= Fraction(1, 32)

    def test_quadrupling_scales_by_power_of_delta(self):
        # B(4X)/B(X) = 4**(-delta), here 1/2 for delta = 1/2
        ctx = SmoothContext(3)
        delta = Fraction(1, 2)
        b1 = smooth_tail_bound(ctx, Fraction(0), delta, 256)
        b4 = smooth_tail_bound(ctx, Fraction(0), delta, 1024)
        assert abs(float(b4 / b1) - 0.5) < 1e-12

    def test_monotone_in_cutoff(self):
        ctx = SmoothContext(5)
        bounds = [smooth_tail_bound(ctx, Fraction(1, 8), Fraction(1, 2), X)
                  for X in (1, 2, 10, 100, 10 ** 4, 10 ** 8)]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))

    def test_bound_consistency_across_cutoffs(self):
        # partial(X) + tail(X) must dominate partial(X') for any larger X'
        ctx = SmoothContext(3)
        series = SmoothSeries(ctx, 10 ** 6)
        for X in (10, 1000, 10 ** 5):
            delta, _ = best_tail_params(ctx, Fraction(0), X)
            upper = series.harmonic_up_to(X) + \
                smooth_tail_bound(ctx, Fraction(0), delta, X)
            assert upper >= series.harmonic_up_to(10 ** 6)

    def test_best_params_on_grid(self):
        ctx = SmoothContext(5)
        delta, bound = best_tail_params(ctx, Fraction(0), 4096)
        assert delta.denominator in (1, 2, 4, 8, 16)
        b_best = smooth_tail_bound(ctx, Fraction(0), delta, 4096)
        assert bound == b_best
        for k in range(1, 16):
            other = Fraction(k, 16)
            assert b_best <= smooth_tail_bound(ctx, Fraction(0), other, 4096)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=200),
           st.integers(min_value=1, max_value=128).flatmap(
               lambda b: st.fractions(0, 1, max_denominator=b)),
           st.one_of(st.just(1),
                     st.integers(0, 46).map(lambda k: 10 ** 4 << k),
                     st.just(10 ** 400)))
    def test_screened_delta_is_the_full_grids(self, Q, eps, X):
        # oracle: price every admissible grid delta exactly and keep the
        # first strict minimum; 10**400 overflows the float X**delta
        ctx = SmoothContext(Q)
        full = None
        for k in range(1, 16):
            d = Fraction(k, 16)
            if eps + d >= 1:
                break
            b = smooth_tail_bound(ctx, eps, d, X)
            if full is None or b < full[1]:
                full = (d, b)
        if full is None:
            with pytest.raises(ValueError):
                best_tail_params(SmoothContext(Q), eps, X)
        else:
            assert best_tail_params(SmoothContext(Q), eps, X) == full

    def test_shared_context_matches_fresh_ones(self):
        # a context keeps the X-free part of the estimates per epsilon
        # across cutoffs; each result is still a fresh context's
        ctx = SmoothContext(7)
        for eps in (Fraction(0), Fraction(1, 2)):
            for X in (1, 37, 10 ** 4, 10 ** 9, 10 ** 400):
                assert best_tail_params(ctx, eps, X) == \
                    best_tail_params(SmoothContext(7), eps, X)

    @settings(max_examples=25)
    @given(st.integers(min_value=2, max_value=13),
           st.integers(min_value=1, max_value=10 ** 6))
    def test_always_nonnegative(self, Q, X):
        ctx = SmoothContext(Q)
        delta, _ = best_tail_params(ctx, Fraction(0), X)
        assert smooth_tail_bound(ctx, Fraction(0), delta, X) > 0


class TestRefineCutoff:
    @pytest.mark.parametrize("x_start, x_cap, target, schedule, met", [
        (3, 20, Fraction(1, 10), [3, 6, 12], True),
        (3, 20, Fraction(1, 100), [3, 6, 12, 20], False),  # clamped, capped
        (7, 7, Fraction(1, 7), [7], True),
        (7, 7, Fraction(1, 8), [7], False),
    ])
    def test_doubling_schedule(self, x_start, x_cap, target, schedule, met):
        seen = []

        def evaluate(X):
            seen.append(X)
            return f"value@{X}", Fraction(1, X)

        got = refine_cutoff(evaluate, target, x_start, x_cap)
        assert seen == schedule
        assert got == (f"value@{schedule[-1]}", schedule[-1], met)

    @pytest.mark.parametrize("target, x_start, x_cap", [
        (0, 1, 8), (-1, 1, 8), (Fraction(1, 2), 0, 8), (Fraction(1, 2), 9, 8),
    ])
    def test_rejected_inputs(self, target, x_start, x_cap):
        def evaluate(X):
            raise AssertionError("evaluated despite invalid inputs")

        with pytest.raises(ValueError):
            refine_cutoff(evaluate, target, x_start, x_cap)
