"""Function specs, certificates, smooth restriction, range-Q machinery."""

from fractions import Fraction
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramsmooth import (
    ArithmeticFunctionSpec,
    CertificateError,
    FiniteSupport,
    FunctionTable,
    GrowthCertificate,
    build_range_q,
    catalog_spec,
    constant_one,
    divisors,
    eratosthenes_transform,
    euler_phi,
    finite_ramanujan_eval,
    mobius,
    mobius_spec,
    mobius_squared_spec,
    mobius_switch_rhs,
    point_mass,
    ramanujan_modulus,
    ramanujan_sum,
    range_q,
    range_q_ramanujan,
    smooth_restrict,
    spec_from_table,
    totient_ratio_spec,
    SmoothContext,
)
from ramsmooth.arith import exact_dtype
from ramsmooth.dyadic import floor_nth_root
from ramsmooth.functions import AUDIT_LIMIT, MAX_EXPONENT_DENOMINATOR

ALL_CATALOG = [constant_one, lambda: point_mass(2), lambda: point_mass(7),
               lambda: ramanujan_modulus(3), lambda: ramanujan_modulus(6),
               mobius_spec, mobius_squared_spec, totient_ratio_spec]


class TestCatalog:
    def test_evaluate_examples(self):
        assert constant_one().evaluate(17) == 1
        spec = point_mass(2)
        assert spec.evaluate(2) == 1 and spec.evaluate(3) == 0
        assert ramanujan_modulus(3).evaluate(3) == 2

    def test_catalog_ids(self):
        assert catalog_spec("constant-one").evaluate(5) == 1
        assert catalog_spec("indicator:4").evaluate(4) == 1
        assert catalog_spec("ramanujan:6").evaluate(6) == euler_phi(6)
        assert catalog_spec("mu").evaluate(6) == 1
        assert catalog_spec("mu-squared").evaluate(12) == 0
        assert catalog_spec("phi-over-n").evaluate(12) == Fraction(1, 3)
        with pytest.raises(ValueError):
            catalog_spec("nope")

    @pytest.mark.parametrize("make", ALL_CATALOG)
    def test_transform_inverts(self, make):
        spec = make()
        for n in range(1, 121):
            total = sum(spec.transform_value(d) for d in divisors(n))
            assert total == spec.evaluate(n), (spec.name, n)

    @pytest.mark.parametrize("make", ALL_CATALOG)
    def test_audits_pass(self, make):
        make().audit()

    def test_point_mass_transform_form(self):
        spec = point_mass(6)
        for d in range(1, 80):
            expected = mobius(d // 6) if d % 6 == 0 else 0
            assert spec.transform_value(d) == expected


class TestCertificates:
    def test_validation(self):
        with pytest.raises(ValueError):
            GrowthCertificate(0, 0)
        with pytest.raises(ValueError):
            GrowthCertificate(1, 1)

    def test_exponent_denominator_bounded(self):
        GrowthCertificate(1, Fraction(1, MAX_EXPONENT_DENOMINATOR))
        with pytest.raises(ValueError, match="round it up"):
            GrowthCertificate(1, Fraction(1, MAX_EXPONENT_DENOMINATOR + 1))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 2, 3, 16]), st.data())
    def test_first_violation_matches_admits(self, v, data):
        """The window check names the first index where the per-element
        admits fails.  With r = |x| cd and s = d cn for the value x/d at n,
        each |x| is drawn from one region: r <= s, s < r <= n s (near the
        exact threshold) or r > n s.  Denominators near 2**58 put some
        numerators past int64, ones above 2**64 put s and every numerator
        past it."""
        cert = GrowthCertificate(
            Fraction(data.draw(st.integers(1, 40)),
                     data.draw(st.integers(1, 7))),
            Fraction(data.draw(st.integers(0, v - 1)), v))
        u, v = cert.exponent.numerator, cert.exponent.denominator
        cn, cd = cert.bound.numerator, cert.bound.denominator
        scale = data.draw(st.sampled_from([1, 2 ** 58 + 1, 2 ** 64 + 1]))
        lo = data.draw(st.integers(1, 30))
        nums, dens = [], []
        for n in range(lo, lo + data.draw(st.integers(0, 24))):
            den = data.draw(st.integers(1, 12)) * scale
            s = den * cn
            low, high = s // cd, n * s // cd
            region = data.draw(st.sampled_from(["low", "mid", "high"]))
            if region == "mid" and low < high:
                # the largest |x| the claim admits at n, and its neighbours
                top = floor_nth_root(n ** u * s ** v, v) // cd
                x = min(max(top + data.draw(st.integers(-1, 1)), low + 1),
                        high)
            elif region == "high":
                x = high + 1 + data.draw(st.integers(0, 3))
            else:
                x = data.draw(st.integers(0, low))
            nums.append(x * data.draw(st.sampled_from([1, -1])))
            dens.append(den)
        want = next((n for n, x, den in zip(count(lo), nums, dens)
                     if not cert.admits(n, Fraction(x, den))), None)
        dtype = exact_dtype(max(map(abs, nums), default=0))
        assert cert.first_violation(np.array(nums, dtype=dtype), dens,
                                    lo) == want

    def test_first_violation_huge_denominators(self):
        # values x/d whose d, or d times the bound's numerator, or the
        # bound's denominator, is past int64
        cert = GrowthCertificate(1, Fraction(1, 2))
        nums = np.zeros(10, dtype=np.int64)
        nums[4] = 3 * 2 ** 61
        assert cert.first_violation(nums, [2 ** 61] * 10, 1) == 5  # 3 > √5
        assert cert.first_violation(nums, [2 ** 63] * 10, 1) is None
        tiny = GrowthCertificate(Fraction(1, 2 ** 63), 0)
        assert tiny.first_violation(np.zeros(10, dtype=np.int64),
                                    [1] * 10, 1) is None
        nums[4] = 1
        assert tiny.first_violation(nums, [2 ** 62] * 10, 1) == 5

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 40),
           st.lists(st.sampled_from([0, 0, 0, 1, -3, 2 ** 70]), max_size=30))
    def test_support_violation_matches_admits(self, bound, lo, nums):
        support = FiniteSupport(bound)
        want = next((n for n, x in enumerate(nums, lo)
                     if not support.admits(n, Fraction(x))), None)
        dtype = exact_dtype(max(map(abs, nums), default=0))
        assert support.first_violation(np.array(nums, dtype=dtype),
                                       [1] * len(nums), lo) == want

    def test_audit_compares_integers(self, monkeypatch):
        # the audit reads numerators over one denominator; admits is only
        # the per-element oracle
        def refuse(self, n, value):
            raise AssertionError("the audit called admits")
        monkeypatch.setattr(GrowthCertificate, "admits", refuse)
        monkeypatch.setattr(FiniteSupport, "admits", refuse)
        mobius_spec().audit()
        spec_from_table("e", "eratosthenes", {1: 1, 3: Fraction(-2, 5)},
                        GrowthCertificate(Fraction(3, 2),
                                          Fraction(1, 2))).audit()
        point_mass(7).audit()
        totient_ratio_spec().audit()
        with pytest.raises(CertificateError, match=r"F\(6\) = 3 violates"):
            spec_from_table("e", "eratosthenes", {1: 1, 2: 1, 3: 1},
                            GrowthCertificate(2, 0)).audit()

    def test_admits_is_exact(self):
        cert = GrowthCertificate(2, Fraction(1, 2))
        assert cert.admits(4, Fraction(4))       # 4 <= 2 * 2
        assert not cert.admits(4, Fraction(9, 2))
        support = FiniteSupport(3)
        assert support.admits(3, Fraction(5)) and support.admits(4, 0)
        assert not support.admits(4, Fraction(1, 7))

    def test_divergent_transform_claim_rejected(self):
        # a transform growing like phi(d) cannot satisfy any sub-linear
        # growth claim; the sampling audit must catch it
        spec = ArithmeticFunctionSpec(
            "identity-function",
            values=lambda n: Fraction(n),
            transform=lambda d: Fraction(euler_phi(d)),
            transform_certificate=GrowthCertificate(1, Fraction(1, 2)),
        )
        with pytest.raises(CertificateError):
            spec.audit()

    @pytest.mark.parametrize("make, offence", [
        # direct growth, sampled from the values
        (lambda: spec_from_table("w", "direct", {1: 1, 2: -1, 3: 3},
                                 GrowthCertificate(2, 0)),
         "w: F(3) = 3 violates the claimed bound 2 * n^0"),
        # direct growth, sieved from an eratosthenes table: F(6) = 1 + 1 + 1
        (lambda: spec_from_table("e", "eratosthenes", {1: 1, 2: 1, 3: 1},
                                 GrowthCertificate(2, 0)),
         "e: F(6) = 3 violates the claimed bound 2 * n^0"),
        # direct support
        (lambda: ArithmeticFunctionSpec(
            "late", values=lambda n: Fraction(n == 9),
            direct_certificate=FiniteSupport(5)),
         "late: F(9) = 1 violates the claimed support <= 5"),
        # transform growth, sampled from the transform: phi(3) > 3^(1/2)
        (lambda: ArithmeticFunctionSpec(
            "phi", transform=lambda d: Fraction(euler_phi(d)),
            transform_certificate=GrowthCertificate(1, Fraction(1, 2))),
         "phi: F'(3) = 2 violates the claimed bound 1 * n^1/2"),
        # transform growth, sieved from the values: (mu * mu)(2) = -2
        (lambda: ArithmeticFunctionSpec(
            "mu", values=lambda n: Fraction(mobius(n)),
            transform_certificate=GrowthCertificate(1, 0)),
         "mu: F'(2) = -2 violates the claimed bound 1 * n^0"),
        # the last index of each window
        (lambda: spec_from_table("e", "eratosthenes", {AUDIT_LIMIT: 1},
                                 GrowthCertificate(Fraction(1, 2), 0)),
         f"e: F({AUDIT_LIMIT}) = 1 violates the claimed bound 1/2 * n^0"),
        (lambda: ArithmeticFunctionSpec(
            "late", values=lambda n: Fraction(n == 5 + AUDIT_LIMIT),
            direct_certificate=FiniteSupport(5)),
         f"late: F({5 + AUDIT_LIMIT}) = 1 violates the claimed support <= 5"),
        (lambda: ArithmeticFunctionSpec(
            "point", values=lambda n: Fraction(n == AUDIT_LIMIT),
            transform_certificate=GrowthCertificate(Fraction(1, 2), 0)),
         f"point: F'({AUDIT_LIMIT}) = 1 violates the claimed bound 1/2 * n^0"),
    ])
    def test_audit_names_offending_index(self, make, offence):
        with pytest.raises(CertificateError) as err:
            make().audit()
        assert str(err.value) == offence

    def test_audit_window_ends(self):
        # nothing past AUDIT_LIMIT indices per claim, or past the value
        # window, is sampled
        half = GrowthCertificate(Fraction(1, 2), 0)
        spec_from_table("e", "eratosthenes", {AUDIT_LIMIT + 1: 1},
                        half).audit()
        ArithmeticFunctionSpec(
            "late", values=lambda n: Fraction(n == 6 + AUDIT_LIMIT),
            direct_certificate=FiniteSupport(5)).audit()
        ArithmeticFunctionSpec(
            "point", values=lambda n: Fraction(n == AUDIT_LIMIT + 1),
            transform_certificate=half).audit()
        spec_from_table("w", "direct", {1: 1, 5: 0}, FiniteSupport(2)).audit()

    @settings(max_examples=15, deadline=None)
    @given(st.dictionaries(st.integers(1, 40),
                           st.fractions(-4, 4, max_denominator=6),
                           min_size=1, max_size=8),
           st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2)]),
           st.fractions(Fraction(1, 2), Fraction(999, 1000)))
    def test_eratosthenes_audit_fails_at_first_offence(self, entries, eps,
                                                       shrink):
        oracle = spec_from_table("t", "eratosthenes", entries)
        values = [oracle.evaluate(n) for n in range(1, AUDIT_LIMIT + 1)]
        self.check_first_offence(
            values, "F", lambda cert: spec_from_table(
                "t", "eratosthenes", entries, cert), eps, shrink)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.fractions(-4, 4, max_denominator=6),
                    min_size=1, max_size=12),
           st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2)]),
           st.fractions(Fraction(1, 2), Fraction(999, 1000)))
    def test_values_only_audit_fails_at_first_offence(self, period, eps,
                                                      shrink):
        def values(n):
            return period[(n - 1) % len(period)]
        oracle = ArithmeticFunctionSpec("v", values=values)
        transform = [oracle.transform_value(d)
                     for d in range(1, AUDIT_LIMIT + 1)]
        self.check_first_offence(
            transform, "F'", lambda cert: ArithmeticFunctionSpec(
                "v", values=values, transform_certificate=cert), eps, shrink)

    @staticmethod
    def check_first_offence(sample, side, make, eps, shrink):
        """A claim C n^eps with C just below max |sample| over the audit
        window fails exactly at the per-element first offence, and passes
        when there is none."""
        peak = max(map(abs, sample))
        if peak == 0:
            return
        cert = GrowthCertificate(peak * shrink, eps)
        first = next((n for n, v in enumerate(sample, 1)
                      if not cert.admits(n, v)), None)
        spec = make(cert)
        if first is None:
            spec.audit()
            return
        with pytest.raises(CertificateError) as err:
            spec.audit()
        assert str(err.value).startswith(
            f"{spec.name}: {side}({first}) = {sample[first - 1]} violates")

    def test_missing_certificate_reported(self):
        spec = ArithmeticFunctionSpec("bare", values=lambda n: Fraction(1))
        with pytest.raises(CertificateError):
            spec.require_transform_certificate()


class TestSmoothRestrict:
    def test_smooth_argument_is_transparent(self):
        ctx = SmoothContext(3)
        for make in ALL_CATALOG:
            spec = make()
            for n in (1, 2, 4, 6, 9, 12, 16, 24):
                assert smooth_restrict(spec, ctx, n) == spec.evaluate(n)

    def test_constant_one_everywhere(self):
        ctx = SmoothContext(2)
        for n in range(1, 60):
            assert smooth_restrict(constant_one(), ctx, n) == 1

    def test_identity_function_example(self):
        # F(n) = n has transform phi; at Q=2, n=6 the smooth divisors of 6
        # are 1 and 2, so the restriction is phi(1) + phi(2) = 2
        spec = ArithmeticFunctionSpec(
            "identity-function",
            values=lambda n: Fraction(n),
            transform=lambda d: Fraction(euler_phi(d)),
        )
        assert smooth_restrict(spec, SmoothContext(2), 6) == 2

    def test_sifted_multiplier_invariance(self):
        ctx = SmoothContext(3)
        spec = totient_ratio_spec()
        sifted = [k for k in range(1, 51) if ctx.is_sifted(k)]
        for n in range(1, 201):
            base = smooth_restrict(spec, ctx, n)
            for k in sifted:
                assert smooth_restrict(spec, ctx, n * k) == base


class TestMobiusSwitch:
    def test_constant_one_collapses_to_single_term(self):
        for Q in (2, 3, 5):
            ctx = SmoothContext(Q)
            for a in range(1, 200):
                assert mobius_switch_rhs(constant_one(), ctx, a) == 1

    def test_point_mass_unfolds(self):
        ctx = SmoothContext(3)
        spec = point_mass(4)
        for a in range(1, 400):
            expected = 1 if (a % 4 == 0 and ctx.is_sifted(a // 4)) else 0
            assert mobius_switch_rhs(spec, ctx, a) == expected

    @pytest.mark.parametrize("make", ALL_CATALOG)
    @pytest.mark.parametrize("Q", [2, 3, 5, 7])
    def test_switch_identity(self, make, Q):
        ctx = SmoothContext(Q)
        spec = make()
        for a in range(1, 500):
            assert smooth_restrict(spec, ctx, a) == \
                mobius_switch_rhs(spec, ctx, a), (spec.name, Q, a)

    def test_restriction_transform_is_masked_transform(self):
        ctx = SmoothContext(3)
        spec = ramanujan_modulus(6)
        X = 200
        restricted = FunctionTable.from_callable(
            X, lambda n: smooth_restrict(spec, ctx, n))
        masked = eratosthenes_transform(restricted)
        for d in range(1, X + 1):
            expected = spec.transform_value(d) if ctx.is_smooth(d) else 0
            assert masked(d) == expected


class TestRangeQ:
    def test_delta_table(self):
        g = build_range_q(3, {1: 1})
        assert [g(m) for m in range(1, 8)] == [1] * 7
        assert g.ghat == (Fraction(1), Fraction(0), Fraction(0))

    def test_ramanujan_coefficients_collapse(self):
        for q0, Q in ((3, 5), (4, 8), (6, 6)):
            g = range_q_ramanujan(q0, Q)
            for ell in range(1, Q + 1):
                assert g.coefficient(ell) == (1 if ell == q0 else 0)
            for m in range(1, 50):
                assert g(m) == ramanujan_sum(q0, m)

    def test_constant_transform_coefficients(self):
        Q = 6
        g = build_range_q(Q, [1] * Q)
        for q in range(1, Q + 1):
            expected = sum(Fraction(1, q * j) for j in range(1, Q // q + 1))
            assert g.coefficient(q) == expected

    def test_range_validation(self):
        with pytest.raises(ValueError):
            build_range_q(3, [1, 2])
        with pytest.raises(ValueError):
            build_range_q(3, {5: 1})

    def test_range_q_of_a_finite_support_spec(self):
        # g' = F' on the support, so g = F; Q defaults to the support
        erat = spec_from_table("e", "eratosthenes",
                               {1: Fraction(1, 2), 4: -3, 6: Fraction(5, 7)})
        for spec, Q in ((erat, None), (erat, 9), (constant_one(), 5),
                        (ramanujan_modulus(6), None), (ramanujan_modulus(6), 8)):
            g = range_q(spec, Q)
            assert g.Q == (Q or spec.transform_support)
            assert [g(m) for m in range(1, 80)] == \
                [spec.evaluate(m) for m in range(1, 80)]
        assert range_q(constant_one(), 5) == range_q_ramanujan(1, 5)
        for spec in (mobius_spec(), point_mass(3)):
            with pytest.raises(ValueError, match="no finite transform"):
                range_q(spec)
        with pytest.raises(ValueError, match="below the transform support"):
            range_q(erat, 5)

    def test_period_table_matches_pointwise(self):
        g = range_q_ramanujan(4, 6)
        for period in (60, 4):
            nums, den = g.period_table(period)
            table = [Fraction(v, den) for v in nums.tolist()]
            assert len(table) == period
            for m in range(1, period + 1):
                assert table[m - 1] == g(m)

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=12), st.data())
    def test_finite_expansion_equals_divisor_sum(self, Q, data):
        vals = data.draw(st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=8),
            min_size=Q, max_size=Q))
        g = build_range_q(Q, vals)
        for m in list(range(1, 30)) + [97, 128, 200]:
            assert finite_ramanujan_eval(g, m) == g(m)

    def test_finite_expansion_full_window(self):
        import random
        rng = random.Random(17)
        Q = 20
        g = build_range_q(Q, [Fraction(rng.randint(-8, 8), rng.randint(1, 6))
                              for _ in range(Q)])
        nums, den = g.period_table(1000)
        table = [Fraction(v, den) for v in nums.tolist()]
        for m in range(1, 1001):
            assert finite_ramanujan_eval(g, m) == table[m - 1]


class TestTableSpecs:
    def test_direct_mode_windowed(self):
        spec = spec_from_table("w", "direct", {1: Fraction(1), 2: Fraction(-1)})
        assert spec.evaluate(2) == -1
        with pytest.raises(IndexError):
            spec.evaluate(3)

    def test_eratosthenes_mode_is_total(self):
        spec = spec_from_table("d1", "eratosthenes", {1: Fraction(1)})
        for n in (1, 7, 100, 12345):
            assert spec.evaluate(n) == 1
        assert spec.transform_support == 1
