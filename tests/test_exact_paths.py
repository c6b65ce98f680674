"""Integer-vector paths that replace per-entry Fractions: the lowest-terms
formatter, c_q from one factorization, the windowed array forms and the
certificate screen of the audit, and the exact int64 fold.  Each int64
fast path is checked against its exact fallback."""

import tracemalloc
from fractions import Fraction
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ramsmooth import (
    ArithmeticFunctionSpec,
    GrowthCertificate,
    SeriesEstimate,
    catalog_spec,
    divisors,
    format_rational,
    format_rationals,
    mobius,
    ramanujan_sum,
    ramanujan_sums,
    spec_from_table,
)
from ramsmooth import arith, correlations, functions
from ramsmooth.arith import exact_dtype, exact_sum
from ramsmooth.functions import AUDIT_LIMIT
from test_correlations import big_table


def divisor_sum_c(q: int, n: int) -> int:
    """Oracle: c_q(n) = sum over d | gcd(q, n) of d mu(q/d)."""
    return sum(d * mobius(q // d) for d in divisors(gcd(q, n)))


def force_object(monkeypatch):
    """Make every int64 bound check of arith and functions fail, so each
    fast path takes its exact fallback."""
    for module in (arith, functions):
        monkeypatch.setattr(module, "exact_dtype", lambda bound: object)


# -- the formatter ------------------------------------------------------------

int64_values = st.integers(-2 ** 63 + 1, 2 ** 63 - 1)
denominators = st.integers(1, 10 ** 6) | \
    st.sampled_from([1, 2 ** 62, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, 3 ** 50])


class TestFormatRationals:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-50, 50) | int64_values, max_size=30) |
           st.lists(st.integers(-2 ** 80, 2 ** 80), max_size=30),
           denominators, st.booleans())
    @example([0, 0], 1, False)
    @example([-6, 4, 0, 9], 6, True)
    @example([2 ** 63 - 1, -(2 ** 63 - 1)], 2 ** 63, False)
    def test_equals_format_rational(self, nums, den, as_object):
        dtype = object if as_object else \
            exact_dtype(max(map(abs, nums), default=0))
        got = format_rationals(np.array(nums, dtype=dtype), den)
        assert got == [format_rational(Fraction(x, den)) for x in nums]

    def test_int64_minimum_takes_the_exact_path(self):
        # |-2**63| does not fit int64, so np.gcd never sees it
        nums = np.array([-2 ** 63, 6, 0], dtype=np.int64)
        assert format_rationals(nums, 4) == ["-2305843009213693952/1",
                                             "3/2", "0/1"]

    def test_window_of_big_table(self):
        # an object window whose entries fit int64
        table = big_table(2 ** 60)
        nums, den = table.period_window()
        assert nums.dtype == object and exact_dtype(
            arith.magnitude(nums)) is np.int64
        assert format_rationals(nums, den) == \
            [format_rational(table.value(a))
             for a in range(1, table.period + 1)]

    def test_digit_limit_is_a_value_error(self):
        with pytest.raises(ValueError):
            format_rationals(np.array([10 ** 5000], dtype=object), 3)

    def test_rejects_nonpositive_denominator(self):
        with pytest.raises(ValueError):
            format_rationals(np.array([1]), 0)


# -- c_q from one factorization ---------------------------------------------

class TestRamanujanSums:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 5000), st.integers(-10 ** 7, 10 ** 7))
    @example(1, 0)
    @example(4096, -2048)
    @example(2 * 3 * 5 * 7 * 11, 0)
    def test_equals_divisor_sum(self, q, n):
        assert ramanujan_sum(q, n) == divisor_sum_c(q, n)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5000),
           st.lists(st.integers(-10 ** 7, 10 ** 7), max_size=20),
           st.integers(-3000, 3000), st.integers(0, 200))
    def test_vector_equals_divisor_sum(self, q, ns, start, length):
        got = ramanujan_sums(q, ns)
        assert got.dtype == np.int64
        assert got.tolist() == [divisor_sum_c(q, n) for n in ns]
        window = range(start, start + length)
        got = ramanujan_sums(q, window)
        assert got.dtype == np.int64
        assert got.tolist() == [divisor_sum_c(q, n) for n in window]
        assert ramanujan_sums(q, np.array(ns, dtype=np.int64)).tolist() == \
            [divisor_sum_c(q, n) for n in ns]

    def test_entries_past_int64(self):
        ns = [2 ** 70, -(2 ** 70) - 3, 5]
        got = ramanujan_sums(12, ns)
        assert got.dtype == np.int64
        assert got.tolist() == [divisor_sum_c(12, n) for n in ns]
        assert ramanujan_sums(12, range(2 ** 70, 2 ** 70 + 13)).tolist() == \
            [divisor_sum_c(12, n) for n in range(2 ** 70, 2 ** 70 + 13)]

    def test_one_factorization_per_vector(self, monkeypatch):
        calls = []
        factorize = arith.factorize
        monkeypatch.setattr(arith, "factorize",
                            lambda n: calls.append(n) or factorize(n))
        ramanujan_sums(2520, range(-2520, 5040))
        assert calls == [2520]


# -- windowed array forms and the audit --------------------------------------

WINDOW_IDS = ["mu", "mu-squared", "phi-over-n", "constant-one",
              "indicator:1", "indicator:7", "indicator:600",
              "ramanujan:1", "ramanujan:12", "ramanujan:30"]


def table_specs():
    return [spec_from_table("d", "direct", {2: Fraction(1, 3), 9: 4,
                                            40: Fraction(-7, 2)}),
            spec_from_table("e", "eratosthenes", {1: 1, 3: Fraction(-2, 5),
                                                  30: 2 ** 70})]


def check_window(spec, X, lo):
    for array, at in ((spec._values_array, spec.evaluate),
                      (spec._transform_array, spec.transform_value)):
        if array is None:
            continue
        nums, dens = array(X, lo)
        assert len(nums) == X + 1 - lo
        dens = np.broadcast_to(dens, nums.shape).tolist()
        got = [Fraction(x, d) for x, d in zip(nums.tolist(), dens)]
        assert got == [at(n) if n else 0 for n in range(lo, X + 1)]


class TestArrayWindows:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(WINDOW_IDS) |
           st.integers(1, 3000).map(lambda n: f"indicator:{n}"),
           st.integers(0, 1500), st.data())
    def test_catalog_window_equals_callable(self, identifier, X, data):
        lo = data.draw(st.integers(0, X + 1), label="lo")
        check_window(catalog_spec(identifier), X, lo)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 40), st.data())
    def test_table_window_equals_callable(self, X, data):
        # 40 is the direct table's value window
        lo = data.draw(st.integers(0, X + 1), label="lo")
        for spec in table_specs():
            check_window(spec, X, lo)

    def test_point_mass_window_far_out(self):
        n0 = 10 ** 12
        spec = catalog_spec(f"indicator:{n0}")
        for lo in (n0 - 3, n0, n0 + 1):
            check_window(spec, lo + 5, lo)

    def test_huge_indicator_audit_is_windowed(self, monkeypatch):
        def refuse(self, n):
            raise AssertionError("the audit sampled a callable")

        monkeypatch.setattr(ArithmeticFunctionSpec, "evaluate", refuse)
        monkeypatch.setattr(ArithmeticFunctionSpec, "transform_value", refuse)
        spec = catalog_spec("indicator:1000000000000")
        tracemalloc.start()
        try:
            spec.audit()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the two windows of AUDIT_LIMIT int64 entries are 16 KB each
        assert peak < 128 * 1024

    def test_no_catalog_audit_samples_a_callable(self, monkeypatch):
        def refuse(self, n):
            raise AssertionError("the audit sampled a callable")

        monkeypatch.setattr(ArithmeticFunctionSpec, "evaluate", refuse)
        monkeypatch.setattr(ArithmeticFunctionSpec, "transform_value", refuse)
        for identifier in WINDOW_IDS + ["indicator:2000", "indicator:2001"]:
            catalog_spec(identifier).audit()

    def test_violation_past_the_point_is_reported(self):
        # a values form that disagrees with FiniteSupport is caught in the
        # window past n0
        spec = ArithmeticFunctionSpec(
            "bad", values=lambda n: Fraction(n == 5),
            values_array=lambda X, lo=0: (
                (np.arange(lo, X + 1) == 5 + AUDIT_LIMIT // 2).astype(
                    np.int64), 1),
            direct_certificate=functions.FiniteSupport(4))
        with pytest.raises(functions.CertificateError,
                           match=f"F\\({5 + AUDIT_LIMIT // 2}\\) = 1 "):
            spec.audit()


class TestScreen:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=40),
           st.integers(1, 20), st.integers(1, 9), st.sampled_from([1, 2, 3]),
           st.integers(1, 50), st.booleans())
    def test_screen_equals_admits(self, nums, cn, cd, v, lo, each):
        cert = GrowthCertificate(Fraction(cn, cd), Fraction(v - 1, v))
        dens = [1 + i % 7 for i in range(len(nums))] if each else 3
        array = np.array(nums, dtype=np.int64)
        want = next((n for n, x, d in zip(
            range(lo, lo + len(nums)), nums,
            dens if each else [dens] * len(nums))
            if not cert.admits(n, Fraction(x, d))), None)
        assert cert.first_violation(array, dens, lo) == want

    def test_exact_test_only_where_the_screen_fails(self):
        # only n = 4 has r > s, so only its entry is read for the power
        # test, which admits it: 2 <= sqrt(4)
        reads = []

        class Recording(np.ndarray):
            def __getitem__(self, key):
                if isinstance(key, int):
                    reads.append(key)
                return super().__getitem__(key)

        cert = GrowthCertificate(1, Fraction(1, 2))
        nums = np.array([1, -1, 0, 2, 1], dtype=np.int64).view(Recording)
        assert cert.first_violation(nums, 1, 1) is None
        assert reads == [3]
        reads.clear()
        big = np.array([1, -1, 0, 2, 1], dtype=object).view(Recording)
        big[0] = 2 ** 64  # past int64: every index gets the exact test
        assert cert.first_violation(big, 2 ** 64, 1) is None
        assert reads == [0, 1, 2, 3, 4]


# -- the exact fold -----------------------------------------------------------

class TestExactSum:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(int64_values | st.sampled_from(
        [2 ** 62 - 1, -(2 ** 62 - 1), 2 ** 63 - 1, -2 ** 63]), max_size=50))
    def test_equals_object_sum(self, values):
        x = np.array(values, dtype=np.int64)
        assert exact_sum(x) == sum(values)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_extreme_partial_sums(self, sign):
        # partial sums as large as +-(2**62 - 1): the sum passes int64
        # after two of them
        x = np.full(100_000, sign * (2 ** 62 - 1), dtype=np.int64)
        assert exact_sum(x) == int(x.astype(object).sum())
        x[::3] *= -1
        assert exact_sum(x) == int(x.astype(object).sum())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 5000), st.integers(1, 36),
           st.integers(0, 2 ** 24), st.randoms(use_true_random=False))
    def test_from_terms_equals_object_fold(self, ell, extra, den, top, rng):
        X = 4 * ell + extra
        vals = np.array([rng.randint(-top, top) for _ in range(X // ell)],
                        dtype=np.int64)
        got = SeriesEstimate.from_terms(ell, X, vals, den)
        with mock.patch.object(correlations, "exact_sum",
                               lambda x: int(x.astype(object).sum())):
            assert SeriesEstimate.from_terms(ell, X, vals, den) == got


class TestFallbacks:
    def test_every_fast_path_has_an_exact_fallback(self, monkeypatch):
        nums = np.array([-6, 4, 0, 9, 2 ** 40], dtype=np.int64)
        cert = GrowthCertificate(Fraction(3, 2), Fraction(1, 2))
        fold = np.full(300, 2 ** 62 - 1, dtype=np.int64)
        fast = (format_rationals(nums, 6), ramanujan_sums(60, range(-70, 70)),
                cert.first_violation(nums, 5, 1), exact_sum(fold))
        force_object(monkeypatch)
        slow = (format_rationals(nums, 6), ramanujan_sums(60, range(-70, 70)),
                cert.first_violation(nums, 5, 1), exact_sum(fold))
        assert slow[1].dtype == object
        assert slow[0] == fast[0] and slow[2:] == fast[2:]
        assert slow[1].tolist() == fast[1].tolist()
