"""Wintner and Carmichael coefficients of smooth restrictions."""

from fractions import Fraction

import pytest

from ramsmooth import (
    ArithmeticFunctionSpec,
    BoundedValue,
    CertificateError,
    GrowthCertificate,
    PeriodicityError,
    SmoothContext,
    carmichael_formula,
    carmichael_periodic_exact,
    catalog_spec,
    coefficient_record,
    constant_one,
    euler_phi,
    expansion_partial,
    mobius_spec,
    point_mass,
    ramanujan_modulus,
    ramanujan_sum,
    smooth_restrict,
    smooth_up_to,
    spec_from_table,
    weighted_decay_check,
    wintner_restricted,
)
from ramsmooth.dyadic import pow_upper
from ramsmooth.smooth import best_tail_params, euler_product_upper, \
    smooth_tail_bound


class TestWintner:
    def test_delta_spec(self):
        ctx = SmoothContext(5)
        spec = constant_one()
        assert wintner_restricted(spec, ctx, 1) == BoundedValue.exact(1)
        for ell in (2, 3, 4, 6, 10):
            assert wintner_restricted(spec, ctx, ell) == BoundedValue.exact(0)

    def test_vanishes_off_smooth_support(self):
        spec = ramanujan_modulus(3)
        got = wintner_restricted(spec, SmoothContext(5), 7)
        assert got.is_exact and got.center == 0

    def test_finite_support_collapses_to_indicator(self):
        # transform of c_{q0} lives on divisors of q0; the smooth Wintner
        # sum telescopes to [ell == q0] when q0 is smooth
        ctx = SmoothContext(7)
        for q0 in (2, 3, 4, 6, 7, 12):
            spec = ramanujan_modulus(q0)
            for ell in smooth_up_to(ctx, 14):
                got = wintner_restricted(spec, ctx, ell)
                assert got.is_exact
                assert got.center == (1 if ell == q0 else 0), (q0, ell)

    def test_point_mass_series_oracle(self):
        # point mass at 1: transform is mu, smooth Wintner series over
        # powers of two collapses to 1 - 1/2 = 1/2 at ell = 1 and
        # mu(2)/2 = -1/2 at ell = 2 (higher powers of 2 have mu = 0)
        ctx = SmoothContext(2)
        spec = point_mass(1)
        for ell, expected in ((1, Fraction(1, 2)), (2, Fraction(-1, 2)),
                              (4, Fraction(0))):
            got = wintner_restricted(spec, ctx, ell, 1 << 12)
            assert got.contains(expected), (ell, got)
            assert not got.is_exact

    def test_divergent_certificate_rejected(self):
        spec = ArithmeticFunctionSpec(
            "identity-function",
            values=lambda n: Fraction(n),
            transform=lambda d: Fraction(euler_phi(d)),
            transform_certificate=GrowthCertificate(1, Fraction(1, 2)),
        )
        with pytest.raises(CertificateError):
            wintner_restricted(spec, SmoothContext(2), 2)

    def test_interval_soundness_under_refinement(self):
        # recomputing with a larger cutoff lands inside the earlier interval
        ctx = SmoothContext(3)
        spec = point_mass(2)
        coarse = wintner_restricted(spec, ctx, 2, 100)
        fine = wintner_restricted(spec, ctx, 2, 100_000)
        assert coarse.contains(fine.center)
        assert fine.radius < coarse.radius


class TestWintnerRadius:
    """The Rankin shift of a Wintner sum is chosen at X // ell, where its
    tail starts."""

    @staticmethod
    def shift_at_cutoff(spec, ctx, ell, X):
        """The radius with the shift that is best at X instead."""
        cert = spec.transform_certificate
        if X // ell >= 1:
            delta, _ = best_tail_params(ctx, cert.exponent, X)
            tail = smooth_tail_bound(ctx, cert.exponent, delta, X // ell)
        else:
            tail = euler_product_upper(ctx, cert.exponent - 1)
        return cert.bound * pow_upper(ell, cert.exponent - 1) * tail

    @pytest.mark.parametrize("name", ["mu", "mu-squared", "phi-over-n",
                                      "indicator:6"])
    @pytest.mark.parametrize("V", [2, 5, 7])
    def test_no_wider_than_the_shift_at_the_cutoff(self, name, V):
        spec, ctx = catalog_spec(name), SmoothContext(V)
        for X in (1, 50, 10_000):
            for ell in smooth_up_to(ctx, 60):
                got = wintner_restricted(spec, ctx, ell, X).radius
                assert got <= self.shift_at_cutoff(spec, ctx, ell, X)

    def test_tighter_at_mu(self):
        spec, ctx = mobius_spec(), SmoothContext(5)
        for ell, old, new in ((2, 13.29, 12.80), (12, 8.49, 7.11)):
            got = wintner_restricted(spec, ctx, ell, 10_000).radius
            assert round(float(got), 2) == new
            assert round(float(self.shift_at_cutoff(spec, ctx, ell,
                                                    10_000)), 2) == old

    @pytest.mark.parametrize("V", [2, 3, 5, 7, 11])
    def test_exact_mu_coefficients_inside(self, V):
        # F' = mu * mu is multiplicative with F'(p) = -2, F'(p**2) = 1 and
        # 0 beyond, so the smooth Wintner sum at smooth ell is the Euler
        # product over p <= V of the local terms with e >= v_p(ell)
        ctx = SmoothContext(V)
        for ell in smooth_up_to(ctx, 60):
            exact = Fraction(1)
            for p in ctx.primes:
                v = 0
                while ell % p ** (v + 1) == 0:
                    v += 1
                local = (1, Fraction(-2, p), Fraction(1, p * p))
                exact *= sum(local[v:], Fraction(0))
            assert wintner_restricted(mobius_spec(), ctx, ell).contains(
                exact), (V, ell)


class TestCarmichaelFormula:
    def test_delta_spec_diagonal(self):
        for V in (2, 3, 5):
            ctx = SmoothContext(V)
            got = carmichael_formula(constant_one(), ctx, 1)
            assert got == BoundedValue.exact(1)

    def test_delta_spec_off_diagonal(self):
        got = carmichael_formula(constant_one(), SmoothContext(2), 2)
        assert got == BoundedValue.exact(0)

    def test_rejects_off_smooth_index(self):
        with pytest.raises(ValueError):
            carmichael_formula(constant_one(), SmoothContext(2), 3)

    def test_matches_wintner_for_ramanujan_catalog(self):
        ctx = SmoothContext(3)
        for q0 in (2, 3, 4, 6, 9, 12):
            spec = ramanujan_modulus(q0)
            for ell in smooth_up_to(ctx, 12):
                car = carmichael_formula(spec, ctx, ell)
                win = wintner_restricted(spec, ctx, ell)
                assert car.is_exact and win.is_exact
                assert car.center == win.center, (q0, ell)

    def test_finite_direct_support_exact(self):
        ctx = SmoothContext(3)
        spec = point_mass(4)
        got = carmichael_formula(spec, ctx, 2)
        expected = ctx.totient_product * ramanujan_sum(2, 4) / (4 * euler_phi(2))
        assert got == BoundedValue.exact(expected)


class TestCarmichaelPeriodicExact:
    def test_diagonal_orthogonality(self):
        for q in (2, 3, 4, 5, 6):
            vals = [Fraction(ramanujan_sum(q, n)) for n in range(1, 2 * q + 1)]
            assert carmichael_periodic_exact(vals, q, q) == 1
            # values fit int64, their dot product with c_q does not
            assert carmichael_periodic_exact([v * 2 ** 62 for v in vals],
                                             q, q) == 2 ** 62

    def test_off_diagonal_vanishes(self):
        vals = [Fraction(ramanujan_sum(3, n)) for n in range(1, 7)]
        for ell in (1, 2, 4, 5, 6, 9):
            assert carmichael_periodic_exact(vals, 3, ell) == 0

    def test_constant_one(self):
        assert carmichael_periodic_exact([Fraction(1)] * 2, 1, 1) == 1

    def test_audit_needs_two_periods(self):
        with pytest.raises(PeriodicityError):
            carmichael_periodic_exact([Fraction(1)], 1, 1)

    def test_audit_rejects_fake_period(self):
        vals = [Fraction(v) for v in (1, 2, 1, 3)]
        with pytest.raises(PeriodicityError, match="at argument 2: 2 != 3"):
            carmichael_periodic_exact(vals, 2, 1)
        with pytest.raises(PeriodicityError, match="at argument 2"):
            carmichael_periodic_exact([v * 2 ** 62 for v in vals], 2, 1)


class TestExpansionPartial:
    def test_delta_spec_everywhere_one(self):
        ctx = SmoothContext(3)
        for a in (1, 2, 7, 30):
            rep = expansion_partial(constant_one(), ctx, a, 1)
            assert rep.partial == BoundedValue.exact(1)
            assert rep.index_tail == 0
            assert rep.reference == 1

    def test_finite_support_reproduces_exactly(self):
        ctx = SmoothContext(5)
        for q0 in (3, 4, 6, 12):
            spec = ramanujan_modulus(q0)
            for a in (1, 2, 3, 5, 8, 12, 35):
                rep = expansion_partial(spec, ctx, a, max(q0, 12))
                assert rep.partial.is_exact and rep.index_tail == 0
                assert rep.partial.center == smooth_restrict(spec, ctx, a)

    def test_certified_residual_covers(self):
        ctx = SmoothContext(2)
        spec = point_mass(2)
        for a in (1, 2, 4, 6):
            rep = expansion_partial(spec, ctx, a, 64, 1 << 14)
            assert rep.consistent

    def test_residual_bound_shrinks_on_doubling(self):
        ctx = SmoothContext(2)
        spec = point_mass(2)
        bounds = []
        for L, X in ((16, 1 << 10), (32, 1 << 12), (64, 1 << 14)):
            rep = expansion_partial(spec, ctx, 4, L, X)
            bounds.append(rep.residual_bound)
        assert bounds[0] > bounds[1] > bounds[2]


class TestWeightedDecay:
    def _records(self, spec, ctx, L):
        return [coefficient_record(spec, ctx, ell) for ell in range(1, L + 1)]

    def test_delta_spec(self):
        ctx = SmoothContext(3)
        spec = constant_one()
        partial, tail = weighted_decay_check(
            self._records(spec, ctx, 8), spec, ctx, 8)
        assert partial == 1 and tail == 0

    def test_partial_monotone_and_consistent(self):
        ctx = SmoothContext(2)
        spec = point_mass(2)
        records = self._records(spec, ctx, 64)
        outs = [weighted_decay_check(records, spec, ctx, L)
                for L in (8, 16, 32, 64)]
        partials = [p for p, _ in outs]
        assert partials == sorted(partials)
        for i, (p, t) in enumerate(outs):
            for p2, _ in outs[i:]:
                assert p + t >= p2

    def test_finite_support_tail_vanishes(self):
        ctx = SmoothContext(3)
        spec = ramanujan_modulus(6)
        records = self._records(spec, ctx, 12)
        partial, tail = weighted_decay_check(records, spec, ctx, 12)
        assert tail == 0
        assert partial == sum(
            2 ** len([p for p in (2, 3) if ell % p == 0]) * abs(r.wintner.center)
            for ell, r in zip(range(1, 13), records))


class TestCoefficientRecord:
    def test_off_support_record(self):
        rec = coefficient_record(ramanujan_modulus(3), SmoothContext(2), 3)
        assert rec.method == "off-smooth-support"
        assert rec.wintner.center == 0 and rec.carmichael.center == 0

    def test_each_side_reads_its_own_certificate(self):
        # the transform has finite support (an exact Wintner side) while the
        # direct side carries |F(n)| <= 3 n^(1/2): its tail takes eps = 1/2
        spec = spec_from_table("eratosthenes", "eratosthenes",
                               {1: Fraction(1), 3: Fraction(-2, 5)},
                               GrowthCertificate(3, Fraction(1, 2)))
        spec.audit()
        ctx = SmoothContext(3)
        for X in (100, 10_000):
            for ell in smooth_up_to(ctx, 13):
                rec = coefficient_record(spec, ctx, ell, X)
                assert rec.wintner == wintner_restricted(spec, ctx, ell, X)
                assert rec.carmichael == carmichael_formula(spec, ctx, ell, X)
                assert rec.consistent, (X, ell)

    def test_consistency_on_catalog(self):
        ctx = SmoothContext(5)
        for spec in (constant_one(), ramanujan_modulus(10), point_mass(3)):
            for ell in range(1, 16):
                rec = coefficient_record(spec, ctx, ell)
                assert rec.consistent, (spec.name, ell)
