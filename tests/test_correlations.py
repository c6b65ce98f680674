"""Correlation tables: decomposition, coefficients, smooth restriction."""

import random
from fractions import Fraction
from math import lcm

import pytest

from ramsmooth import (
    BasicHypothesisError,
    BoundedValue,
    CorrelationTable,
    SmoothContext,
    build_range_q,
    constant_one,
    correlation,
    euler_phi,
    expansion_tail_term,
    interval_sum,
    mobius,
    mobius_switch_rhs,
    point_mass,
    ramanujan_modulus,
    ramanujan_sum,
    range_q_constant_one,
    range_q_ramanujan,
    smooth_restrict,
    smooth_up_to,
    spec_from_table,
    tail_split_identity,
)
from ramsmooth.smooth import best_tail_params
from conftest import make_random_table


def big_mu_table(table):
    """f = 2**62 * mu against the g and N of table: the values of f fit
    int64, their sums over a residue class do not."""
    f = spec_from_table("big-mu", "direct", {n: 2 ** 62 * mobius(n)
                                             for n in range(1, table.N + 1)})
    return CorrelationTable(f, table.g, table.N)


def big_table(f2):
    """C(a) = f2 * c_3(2 + a): a point mass of weight f2 against c_3."""
    f = spec_from_table("big", "direct",
                        {n: Fraction(f2 if n == 2 else 0) for n in range(1, 11)})
    return CorrelationTable(f, range_q_ramanujan(3, 5), 10)


class TestCorrelation:
    def test_point_mass_reads_off_g(self):
        g = range_q_ramanujan(3, 5)
        for n0 in (1, 2, 7):
            for a in range(1, 20):
                assert correlation(point_mass(n0), g, 10, a) == g(n0 + a)

    def test_zero_function(self):
        f = spec_from_table("zero", "direct", {n: Fraction(0)
                                               for n in range(1, 21)})
        g = range_q_ramanujan(4, 6)
        assert all(correlation(f, g, 20, a) == 0 for a in range(1, 15))

    def test_all_ones(self):
        g = range_q_constant_one()
        assert correlation(constant_one(), g, 25, 7) == 25

    def test_range_must_fit_length(self):
        with pytest.raises(BasicHypothesisError):
            correlation(constant_one(), range_q_ramanujan(5, 5), 4, 1)
        with pytest.raises(BasicHypothesisError):
            CorrelationTable(constant_one(), range_q_ramanujan(5, 5), 4)


class TestTable:
    def test_periodicity_audited_and_visible(self):
        table = make_random_table(random.Random(7), 0)
        P = table.period
        for a in range(1, P + 1):
            assert table.values[a - 1] == table.values[a + P - 1]
            assert table.value(a) == correlation(table.f_spec, table.g,
                                                 table.N, a)

    def test_values_built_on_first_read(self):
        table = make_random_table(random.Random(3), 0)
        assert not table.decomposition_deviations()
        for ell in range(1, table.g.Q + 2):
            table.carmichael_mean(ell)
        assert [table.value(a) for a in range(1, table.period + 1)]
        assert "values" not in vars(table)
        assert table.values == [table.value(a)
                                for a in range(1, 2 * table.period + 1)]

    def test_decomposition_identity_random(self):
        rng = random.Random(11)
        tables = [make_random_table(rng, tag, max_N=40,
                                    q_choices=(1, 2, 3, 4, 5, 6))
                  for tag in range(6)]
        # inner sums beyond int64 take the exact-integer path
        tables.append(big_mu_table(max(tables, key=lambda t: t.period)))
        for table in tables:
            for a in range(1, table.period + 1):
                assert table.decomposition_rhs(a) == table.value(a)
            for a in (1, table.period, 2 * table.period + 1):
                assert table.value(a) == correlation(table.f_spec, table.g,
                                                     table.N, a)

    def test_decomposition_deviations_match_per_shift(self):
        rng = random.Random(13)
        tables = [make_random_table(rng, tag, max_N=40,
                                    q_choices=(1, 4, 6, 8))
                  for tag in range(4)]
        # residue sums beyond int64, and numerators beyond it
        tables += [big_mu_table(max(tables, key=lambda t: t.period)),
                   big_table(Fraction(2 ** 70, 7))]
        # C(a) = mu(1) g + mu(2) g = 0 for constant g: an all-zero residue
        # sum under a coefficient past int64, and an all-zero window over
        # a denominator past it
        for g1 in (Fraction(2 ** 70), Fraction(1, 2 ** 63)):
            f = spec_from_table("mu", "direct", {1: 1, 2: -1})
            tables.append(CorrelationTable(f, build_range_q(1, [g1]), 2))
        for table in tables:
            assert table.decomposition_deviations() == []
            # a wrong residue sum breaks the identity on its class; the
            # window reports exactly the per-shift deviations
            q = max(q for q in range(1, table.g.Q + 1)
                    if table.g.coefficient(q))
            table._residue_table(q)[1 % q] += 1
            want = [(a, table.decomposition_rhs(a) - table.value(a))
                    for a in range(1, table.period + 1)
                    if table.decomposition_rhs(a) != table.value(a)]
            assert want and table.decomposition_deviations() == want

    def test_decomposition_identity_catalog(self):
        for q0, Q, N in ((3, 5, 20), (4, 6, 12), (6, 6, 30)):
            table = CorrelationTable(point_mass(2), range_q_ramanujan(q0, Q), N)
            for a in range(1, table.period + 1):
                assert table.decomposition_rhs(a) == table.value(a)

    def test_constant_g_decomposition(self):
        table = CorrelationTable(point_mass(3), range_q_constant_one(), 10)
        assert table.period == 1
        assert table.decomposition_rhs(1) == table.value(1) == 1

    def test_transform_window_matches_lazy(self):
        tables = [
            make_random_table(random.Random(3), 1, max_N=30,
                              q_choices=(2, 3, 4)),
            # values fit int64 but sums of their products would overflow it
            big_table(2 ** 60),
            # numerators beyond int64
            big_table(Fraction(2 ** 70, 7)),
        ]
        for table in tables:
            window = table.transform_window(80)
            for d in range(1, 81):
                assert window[d - 1] == table.transform_value(d)


class TestCoefficients:
    def test_beyond_range_vanishes(self):
        table = CorrelationTable(point_mass(2), range_q_ramanujan(3, 5), 10)
        for ell in (6, 7, 50):
            assert table.coefficient(ell) == 0

    def test_counterexample_coefficient(self):
        q0, n0 = 3, 2
        table = CorrelationTable(point_mass(n0), range_q_ramanujan(q0, 5), 10)
        assert table.coefficient(q0) == \
            Fraction(ramanujan_sum(q0, n0), euler_phi(q0))

    def test_three_way_agreement_random(self):
        rng = random.Random(23)
        tables = [make_random_table(rng, tag, max_N=30,
                                    q_choices=(1, 2, 3, 4, 5, 6))
                  for tag in range(5)]
        # Carmichael dot products beyond int64 take the exact-integer path
        tables.append(big_mu_table(max(tables, key=lambda t: t.period)))
        for table in tables:
            for a in (1, table.period + 1):
                assert table.value(a) == correlation(table.f_spec, table.g,
                                                     table.N, a)
            for ell in range(1, table.g.Q + 3):
                formula = table.coefficient(ell)
                assert formula == table.carmichael_mean(ell)
                assert formula == table.transform_side_coefficient(ell)

    def test_transform_side_against_literal_sum(self):
        rng = random.Random(31)
        tables = [make_random_table(rng, tag, max_N=24,
                                    q_choices=(2, 3, 4, 6))
                  for tag in range(3)]
        # C' beyond int64 in the weighted sum: the exact-integer dot product
        tables.append(big_mu_table(tables[0]))
        for table in tables:
            # periods 2, 6, 6 and 2: ell = 4, 5, 7 and 12 divide none
            for ell in (1, 2, 3, 4, 5, 7, 12):
                L = lcm(table.period, ell)
                literal = sum(
                    (table.transform_value(d)
                     * sum(ramanujan_sum(ell, k * d)
                           for k in range(1, L // d + 1))
                     for d in range(1, L + 1)), Fraction(0)) \
                    / (euler_phi(ell) * L)
                got = table.transform_side_coefficient(ell)
                assert got == literal == table.carmichael_mean(ell)

    def test_carmichael_orthogonality_grid(self):
        # mean over a full period of c_l(a) c_q(n+a) collapses to
        # [q == l] c_l(n); exhaustive on l, q <= 12, n <= 24
        for ell in range(1, 13):
            for q in range(1, 13):
                L = lcm(ell, q)
                for n in range(0, 25):
                    total = sum(ramanujan_sum(ell, a) * ramanujan_sum(q, n + a)
                                for a in range(1, L + 1))
                    expected = L * ramanujan_sum(ell, n) if q == ell else 0
                    assert total == expected, (ell, q, n)


class TestSmoothRestriction:
    def test_both_paths_agree(self):
        table = make_random_table(random.Random(5), 2, max_N=30,
                                  q_choices=(2, 3, 4, 5, 6))
        for V in (2, 3, 5):
            ctx = SmoothContext(V)
            for a in range(1, 80):
                assert smooth_restrict(table.function, ctx, a) == \
                    mobius_switch_rhs(table.function, ctx, a)

    def test_first_value_is_transform_at_one(self):
        table = make_random_table(random.Random(9), 3)
        ctx = SmoothContext(3)
        assert smooth_restrict(table.function, ctx, 1) == table.transform_value(1)

    def test_transparent_on_smooth_shifts(self):
        table = CorrelationTable(point_mass(2), range_q_ramanujan(3, 6), 12)
        ctx = SmoothContext(5)
        for a in smooth_up_to(ctx, 60):
            assert smooth_restrict(table.function, ctx, a) == table.value(a)

    def test_sifted_prime_invariance(self):
        table = CorrelationTable(point_mass(2), range_q_ramanujan(3, 6), 12)
        ctx = SmoothContext(3)
        for a in range(1, 40):
            base = smooth_restrict(table.function, ctx, a)
            for p in (5, 7, 11):
                assert smooth_restrict(table.function, ctx, a * p) == base

    def test_smooth_expansion_certified(self):
        # the restricted correlation satisfies its expansion within radii
        q0 = 3
        table = CorrelationTable(point_mass(2), range_q_ramanujan(q0, 5), 10)
        ctx = SmoothContext(2)
        L, X = 1 << 10, 1 << 14
        ells = smooth_up_to(ctx, L)
        for a in smooth_up_to(ctx, 32):
            total_center = Fraction(0)
            total_radius = Fraction(0)
            for ell in ells:
                win = table.smooth_wintner(ctx, ell, X)
                c = ramanujan_sum(ell, a)
                total_center += win.center * c
                total_radius += win.radius * abs(c)
            # index tail over smooth ell > L
            from ramsmooth.smooth import best_tail_params, smooth_tail_bound
            bound = (2 ** ctx.prime_count) * table.max_abs() * ctx.smooth_harmonic
            delta, _ = best_tail_params(ctx, Fraction(0), L)
            total_radius += a * bound * smooth_tail_bound(
                ctx, Fraction(0), delta, L)
            reference = smooth_restrict(table.function, ctx, a)
            assert abs(reference - total_center) <= total_radius


class TestSmoothWintner:
    def test_off_support_term_free(self):
        table = CorrelationTable(point_mass(2), range_q_ramanujan(3, 5), 10)
        got = table.smooth_wintner(SmoothContext(2), 3, 1 << 12)
        assert got.is_exact and got.center == 0

    def test_finite_support_exact(self):
        # f = c_3 against g = c_3 over a full period: C = period * c_3,
        # transform supported on divisors of 3
        table = CorrelationTable(ramanujan_modulus(3), range_q_ramanujan(3, 3), 6)
        ctx = SmoothContext(5)
        got = table.smooth_wintner(ctx, 3, 1 << 10, transform_support=3)
        assert got.is_exact and got.center == 6  # 6 * (c_3)'(3)/3 = 6*3/3... C'(3)=18
        got1 = table.smooth_wintner(ctx, 1, 1 << 10, transform_support=3)
        assert got1.is_exact
        assert got1.center == table.transform_value(1) + \
            table.transform_value(3) / 3

    def test_bad_support_claim_refuted(self):
        table = CorrelationTable(ramanujan_modulus(3), range_q_ramanujan(3, 3), 6)
        with pytest.raises(ArithmeticError):
            table.smooth_wintner(SmoothContext(5), 1, 1 << 10,
                                 transform_support=1)

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_matches_per_index_oracle(self, seed):
        # sum over smooth d <= X with ell | d of C'(d)/d, one transform
        # value at a time, against the one smooth sum
        table = make_random_table(random.Random(seed), seed, max_N=30,
                                  q_choices=(2, 3, 4, 5, 6))
        for V, ell, X in ((2, 1, 1 << 10), (3, 2, 500), (3, 6, 5000),
                          (5, 4, 1 << 12), (5, 15, 300), (5, 7, 300),
                          (3, 9, 5)):
            ctx = SmoothContext(V)
            got = table.smooth_wintner(ctx, ell, X)
            oracle = sum((table.function.transform_value(d) / d
                          for d in smooth_up_to(ctx, X) if d % ell == 0),
                         Fraction(0)) if ctx.is_smooth(ell) else 0
            assert got.center == oracle

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_radius_is_the_table_bound(self, seed):
        # |C'(d)| <= 2**pi(V) max|C| on smooth d, times the Rankin tail of
        # the smooth K > X // ell at the shift best there, over ell; the
        # whole smooth harmonic series over ell when X < ell
        table = make_random_table(random.Random(seed), seed, max_N=30,
                                  q_choices=(2, 3, 4, 5, 6))
        for V, ell, X in ((2, 1, 1 << 10), (3, 2, 500), (3, 6, 5000),
                          (5, 4, 1 << 12), (5, 15, 300), (3, 9, 5),
                          (5, 12, 11), (7, 7, 6)):
            ctx = SmoothContext(V)
            bound = 2 ** ctx.prime_count * table.max_abs()
            tail = best_tail_params(ctx, Fraction(0), X // ell)[1] \
                if X >= ell else ctx.smooth_harmonic
            got = table.smooth_wintner(ctx, ell, X)
            assert got.radius == bound * tail / ell, (V, ell, X)

    @pytest.mark.parametrize("seed, Qs, V, ell, support, message", [
        (None, None, 5, 1, 1, "claimed transform support 1 refuted: "
                              "C'(3) = 18"),
        (None, None, 3, 1, 2, "claimed transform support 2 refuted: "
                              "C'(3) = 18"),
        (7, (4, 6), 3, 2, 4, "claimed transform support 4 refuted: "
                             "C'(6) = -73/18"),
        (7, (4, 6), 5, 3, 5, "claimed transform support 5 refuted: "
                             "C'(6) = -73/18"),
    ])
    def test_support_refutation_names_first_index(self, seed, Qs, V, ell,
                                                  support, message):
        # the first smooth multiple of ell past the claim with C' != 0
        if seed is None:
            table = CorrelationTable(ramanujan_modulus(3),
                                     range_q_ramanujan(3, 3), 6)
        else:
            table = make_random_table(random.Random(seed), 0, max_N=30,
                                      q_choices=Qs)
        with pytest.raises(ArithmeticError) as err:
            table.smooth_wintner(SmoothContext(V), ell, 1 << 12,
                                 transform_support=support)
        assert str(err.value) == message


class TestFullSeriesEstimate:
    def test_tracks_formula_on_counterexample(self):
        table = CorrelationTable(point_mass(2), range_q_ramanujan(3, 5), 10)
        est = table.full_series_estimate(3, 400_000)
        target = table.coefficient(3)
        assert not est.certified
        assert abs(est.value.center - target) <= est.value.radius

    def test_window_validation(self):
        table = CorrelationTable(point_mass(2), range_q_ramanujan(3, 5), 10)
        with pytest.raises(ValueError):
            table.full_series_estimate(3, 10)
        with pytest.raises(OverflowError):
            big_table(2 ** 60).full_series_estimate(3, 1000)


class TestTailSplit:
    def test_zero_function_trivial(self):
        f = spec_from_table("zero", "direct",
                            {n: Fraction(0) for n in range(1, 13)})
        table = CorrelationTable(f, range_q_ramanujan(3, 5), 12)
        rec = tail_split_identity(table, SmoothContext(2), 3, 1 << 10)
        assert rec.smooth_side.center == 0 and rec.formula == 0

    def test_nonsmooth_index_term_free(self):
        table = CorrelationTable(point_mass(2), range_q_ramanujan(3, 5), 10)
        rec = tail_split_identity(table, SmoothContext(2), 3, 1 << 12,
                                  estimate_cutoff=200_000)
        assert rec.smooth_side == rec.lhs
        assert rec.smooth_side.is_exact and rec.smooth_side.center == 0
        assert rec.consistent

    def test_smooth_index_split(self):
        table = CorrelationTable(point_mass(2), range_q_ramanujan(3, 5), 10)
        rec = tail_split_identity(table, SmoothContext(2), 2, 1 << 14,
                                  estimate_cutoff=200_000)
        assert rec.consistent


class TestExpansionTailTerm:
    def test_finite_support_vanishes(self):
        table = CorrelationTable(ramanujan_modulus(3), range_q_ramanujan(3, 3), 6)
        term = expansion_tail_term(table, SmoothContext(5), a=1, L=16,
                                   X=1 << 12, transform_support=3)
        assert term.value.center == 0 and term.value.radius == 0

    def test_reproduces_counterexample_defect(self):
        # the correction term must equal (expansion rhs) - (true value),
        # which at the canonical shift is mu^2/phi - phi
        from ramsmooth import reef_rhs
        q0, n0 = 3, 2
        table = CorrelationTable(point_mass(n0), range_q_ramanujan(q0, q0),
                                 q0 + n0)
        ctx = SmoothContext(q0)
        expected = reef_rhs(table, 1) - table.value(1)
        assert expected == Fraction(1, 2) - 2
        term = expansion_tail_term(table, ctx, a=1, L=1 << 16, X=1 << 19)
        assert term.value.center == expected
        assert term.value.radius < Fraction(1, 4)
        assert term.value.excludes(0)

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_index_tail_is_the_table_bound(self, seed):
        # the ell > L mass: a * 2**pi(V) max|C| smooth_harmonic times the
        # Rankin tail at L with epsilon = 0
        table = make_random_table(random.Random(seed), seed, max_N=30,
                                  q_choices=(2, 3, 4, 5, 6))
        for V, a, L, X in ((2, 1, 8, 1 << 10), (3, 5, 12, 700),
                           (5, 2, 30, 1 << 12)):
            ctx = SmoothContext(V)
            term = expansion_tail_term(table, ctx, a, L, X)
            total = interval_sum(
                (BoundedValue.exact(table.coefficient(ell))
                 - table.smooth_wintner(ctx, ell, X)).scale(
                    ramanujan_sum(ell, a))
                for ell in smooth_up_to(ctx, L))
            index_tail = a * 2 ** ctx.prime_count * table.max_abs() * \
                ctx.smooth_harmonic * best_tail_params(ctx, Fraction(0), L)[1]
            assert term.value == total.widen(index_tail), (V, a, L)

    def test_window_partition(self):
        # remainders at V versus V' differ by the smooth-window mass:
        # nonsmooth_V(ell) - nonsmooth_V'(ell) = smoothwin_V'(ell) - smoothwin_V(ell),
        # checked against a direct enumeration of the window terms
        table = CorrelationTable(point_mass(2), range_q_ramanujan(5, 5), 10)
        ctx2, ctx3 = SmoothContext(2), SmoothContext(3)
        X = 1 << 14
        for ell in (1, 2, 4):
            lo = table.smooth_wintner(ctx2, ell, X)
            hi = table.smooth_wintner(ctx3, ell, X)
            window = hi - lo
            direct = Fraction(0)
            for d in smooth_up_to(ctx3, X):
                if d % ell == 0 and not ctx2.is_smooth(d):
                    direct += table.transform_value(d) / d
            assert window.contains(direct)
