"""Exact integer vectors: the array forms the audit reads, the smooth
vectors the coefficient sums read, and the per-element Fraction loops
they replace, kept here as oracles."""

import contextlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramsmooth import (
    ArithmeticFunctionSpec,
    BoundedValue,
    GrowthCertificate,
    SmoothContext,
    carmichael_formula,
    catalog_spec,
    coefficient_record,
    euler_phi,
    expansion_partial,
    interval_sum,
    ramanujan_sum,
    ramanujan_sums,
    smooth_restrict,
    smooth_up_to,
    spec_from_table,
    totient_sieve,
    wintner_restricted,
)
from ramsmooth import arith
from ramsmooth.cli import main
from ramsmooth.dyadic import pow_upper
from ramsmooth.functions import AUDIT_LIMIT, FiniteSupport
from ramsmooth.smooth import best_tail_params, euler_product_upper, \
    smooth_tail_bound

CATALOG_IDS = ["mu", "mu-squared", "phi-over-n", "constant-one",
               "indicator:1", "indicator:6", "indicator:2000",
               "indicator:2001", "ramanujan:1", "ramanujan:12"]

catalog_ids = st.sampled_from(CATALOG_IDS) | \
    st.integers(1, 3000).map(lambda n: f"indicator:{n}") | \
    st.integers(1, 60).map(lambda q: f"ramanujan:{q}")

fractions = st.fractions(-7, 7, max_denominator=12) | \
    st.integers(2 ** 62, 2 ** 66).map(Fraction)


def tables(mode):
    return st.dictionaries(st.integers(1, 90), fractions, min_size=1,
                           max_size=12).map(
        lambda entries: spec_from_table(f"t-{mode}", mode, entries))


# -- the per-element oracles: the Fraction loops of the coefficient sums ---

def wintner_oracle(spec, ctx, ell, tp):
    if not ctx.is_smooth(ell):
        return BoundedValue.exact(0)
    support = spec.transform_support
    if support is not None:
        if ell > support:
            return BoundedValue.exact(0)
        return BoundedValue.exact(sum(
            (spec.transform_value(ell * K) / (ell * K)
             for K in smooth_up_to(ctx, support // ell)), Fraction(0)))
    cert = spec.require_transform_certificate()
    X = tp.truncation
    inner = X // ell
    partial = Fraction(0)
    if inner >= 1:
        for K in smooth_up_to(ctx, inner):
            partial += spec.transform_value(ell * K) / (ell * K)
        tail = smooth_tail_bound(ctx, cert.exponent, tp.delta, inner)
    else:
        tail = euler_product_upper(ctx, cert.exponent - 1)
    return BoundedValue(partial, cert.bound *
                        pow_upper(ell, cert.exponent - 1) * tail)


def carmichael_oracle(spec, ctx, ell, tp):
    phi = euler_phi(ell)
    if spec.ramanujan_hint is not None:
        return None  # closed by Euler products, not by a smooth sum
    direct = spec.direct_certificate
    if isinstance(direct, FiniteSupport):
        return BoundedValue.exact(ctx.totient_product * sum(
            (spec.evaluate(t) * ramanujan_sum(ell, t) / t
             for t in smooth_up_to(ctx, direct.bound)), Fraction(0)) / phi)
    partial = sum((spec.evaluate(t) * ramanujan_sum(ell, t) / t
                   for t in smooth_up_to(ctx, tp.truncation)), Fraction(0))
    tail = smooth_tail_bound(ctx, direct.exponent, tp.delta, tp.truncation)
    return BoundedValue(ctx.totient_product * partial / phi,
                        ctx.totient_product * ell * direct.bound * tail / phi)


def expansion_oracle(spec, ctx, a, L, tp):
    partial = interval_sum([wintner_oracle(spec, ctx, ell, tp).scale(
        ramanujan_sum(ell, a)) for ell in smooth_up_to(ctx, L)])
    support = spec.transform_support
    if support is not None:
        index_tail = sum((abs(wintner_oracle(spec, ctx, ell, tp).center) *
                          min(a, ell) for ell in smooth_up_to(ctx, support)
                          if ell > L), Fraction(0))
    else:
        cert = spec.transform_certificate
        index_tail = a * cert.bound * euler_product_upper(
            ctx, cert.exponent - 1) * smooth_tail_bound(
            ctx, cert.exponent, best_tail_params(ctx, cert.exponent, L).delta,
            L)
    return partial, index_tail, smooth_restrict(spec, ctx, a)


# -- array forms -------------------------------------------------------------

class TestWindows:
    @settings(max_examples=25, deadline=None)
    @given(catalog_ids)
    def test_catalog_array_equals_callable(self, identifier):
        spec = catalog_spec(identifier)
        for array, at in ((spec._values_array, spec.evaluate),
                          (spec._transform_array, spec.transform_value)):
            if array is None:
                continue
            nums, dens = array(AUDIT_LIMIT)
            assert len(nums) == AUDIT_LIMIT + 1 and nums[0] == 0
            dens = np.broadcast_to(dens, nums.shape).tolist()
            got = [Fraction(x, d) for x, d in zip(nums.tolist(), dens)]
            assert got[1:] == [at(n) for n in range(1, AUDIT_LIMIT + 1)]

    def test_every_catalog_audit_reads_arrays(self, monkeypatch):
        # no per-index evaluate or transform_value call in any audit of a
        # catalog spec or a table, save the direct side of indicator:n0:
        # its window [n0 + 1, n0 + AUDIT_LIMIT] sits past the one point, so
        # a dense array form would cost O(n0) where the callable costs
        # nothing per index
        def refuse(self, n):
            raise AssertionError("the audit sampled a callable")
        monkeypatch.setattr(ArithmeticFunctionSpec, "transform_value", refuse)
        for identifier in [i for i in CATALOG_IDS if "indicator" in i]:
            catalog_spec(identifier).audit()
        monkeypatch.setattr(ArithmeticFunctionSpec, "evaluate", refuse)
        for identifier in [i for i in CATALOG_IDS if "indicator" not in i]:
            catalog_spec(identifier).audit()
        spec_from_table("e", "eratosthenes", {1: 1, 3: Fraction(-2, 5)},
                        GrowthCertificate(Fraction(3, 2),
                                          Fraction(1, 2))).audit()
        spec_from_table("w", "direct", {1: 1, 2: Fraction(-1, 3)},
                        GrowthCertificate(1, 0)).audit()

    def test_array_form_needs_its_callable(self):
        with pytest.raises(ValueError, match="array form needs"):
            ArithmeticFunctionSpec("x", transform=lambda d: Fraction(d == 1),
                                   values_array=lambda X: None)

    def test_sieves(self):
        X = 3000
        assert totient_sieve(X).tolist() == \
            [0] + [euler_phi(n) for n in range(1, X + 1)]
        for q in range(1, 40):
            assert ramanujan_sums(q, range(2 * q)).tolist() == \
                [ramanujan_sum(q, r) for r in range(2 * q)]

    def test_table_array_past_int64(self):
        # numerators past int64 stay exact Python ints in the array and
        # in the sieve of the derived side
        big = 2 ** 64 + 1
        spec = spec_from_table("e", "eratosthenes",
                               {1: Fraction(big, 3), 2: Fraction(-big)},
                               GrowthCertificate(big, 0))
        spec.audit()  # |F(n)| is big/3 at odd n and 2 big/3 at even n
        nums, dens = spec._transform_array(5)
        assert nums.tolist() == [0, big, -big, 0, 0, 0]
        assert dens.tolist() == [1, 3, 1, 1, 1, 1]


# -- smooth vectors ----------------------------------------------------------

def check_smooth_vector(spec, ctx, X, direct):
    ts, nums, den = spec.smooth_vector(ctx, X, direct)
    at = spec.evaluate if direct else spec.transform_value
    assert ts.tolist() == smooth_up_to(ctx, X)
    assert [Fraction(x, den) for x in nums.tolist()] == \
        [at(t) for t in ts.tolist()]


class TestSmoothVector:
    @settings(max_examples=40, deadline=None)
    @given(catalog_ids, st.sampled_from([2, 3, 5, 7, 11]),
           st.integers(1, 3000), st.booleans())
    def test_catalog(self, identifier, V, X, direct):
        check_smooth_vector(catalog_spec(identifier), SmoothContext(V), X,
                            direct)

    @settings(max_examples=40, deadline=None)
    @given(tables("eratosthenes"), st.sampled_from([2, 3, 5, 7]),
           st.integers(1, 2000), st.booleans())
    def test_eratosthenes_table(self, spec, V, X, direct):
        check_smooth_vector(spec, SmoothContext(V), X, direct)

    @settings(max_examples=40, deadline=None)
    @given(tables("direct"), st.sampled_from([2, 3, 5, 7]), st.data())
    def test_direct_table(self, spec, V, data):
        X = data.draw(st.integers(1, spec.value_window))
        check_smooth_vector(spec, SmoothContext(V), X,
                            data.draw(st.booleans()))

    @settings(max_examples=20, deadline=None)
    @given(tables("eratosthenes"), st.integers(1, 800), st.integers(1, 800))
    def test_memo_serves_a_prefix(self, spec, first, second):
        ctx = SmoothContext(5)
        for X in (first, second):
            for direct in (True, False):
                check_smooth_vector(spec, ctx, X, direct)
        assert spec._smooth_memo[(5, True)][0] == max(first, second)

    def test_value_window_is_respected(self):
        spec = spec_from_table("w", "direct", {1: 1, 4: 2})
        with pytest.raises(IndexError, match="beyond value window 4"):
            spec.smooth_vector(SmoothContext(3), 10, False)

    def test_derived_side_past_int64(self):
        # the zeta pass sums up to len(ts) entries of 2**62
        spec = spec_from_table("e", "eratosthenes",
                               {d: Fraction(2 ** 62) for d in range(1, 49)})
        for direct in (True, False):
            check_smooth_vector(spec, SmoothContext(3), 300, direct)
        _, nums, _ = spec.smooth_vector(SmoothContext(3), 300, True)
        assert nums.dtype == object


# -- coefficient sums against the Fraction oracles -------------------------

TABLES = {
    "e": ({1: 1, 2: Fraction(-1, 2), 6: Fraction(5, 7)}, None),
    "big": ({1: 2 ** 62 + 1, 3: Fraction(-(2 ** 63), 5)}, None),
    "c": ({1: 1, 4: -3}, GrowthCertificate(4, Fraction(1, 2))),
}


def make_spec(name):
    if name in TABLES:
        return spec_from_table(name, "eratosthenes", *TABLES[name])
    return catalog_spec(name)


SPECS = CATALOG_IDS + list(TABLES)


def tail_params(ctx, cert, X):
    eps = cert.exponent if isinstance(cert, GrowthCertificate) else 0
    return best_tail_params(ctx, eps, X)


class TestCoefficientOracles:
    @pytest.mark.parametrize("name", SPECS)
    @pytest.mark.parametrize("V", [2, 3, 7])
    def test_coefficient_record(self, name, V):
        spec, ctx = make_spec(name), SmoothContext(V)
        for ell in smooth_up_to(ctx, 13):
            rec = coefficient_record(spec, ctx, ell)
            assert rec.wintner == wintner_oracle(
                spec, ctx, ell,
                tail_params(ctx, spec.transform_certificate, 10_000))
            car = carmichael_oracle(
                spec, ctx, ell,
                tail_params(ctx, spec.direct_certificate, 10_000))
            assert car is None or rec.carmichael == car

    @pytest.mark.parametrize("name", SPECS)
    @pytest.mark.parametrize("X", [1, 5, 700])
    def test_cutoffs(self, name, X):
        spec, ctx = make_spec(name), SmoothContext(5)
        for ell in smooth_up_to(ctx, 13):
            tp = tail_params(ctx, spec.transform_certificate, X)
            assert wintner_restricted(spec, ctx, ell, tp) == \
                wintner_oracle(spec, ctx, ell, tp)
            tp = tail_params(ctx, spec.direct_certificate, X)
            car = carmichael_oracle(spec, ctx, ell, tp)
            assert car is None or carmichael_formula(spec, ctx, ell, tp) == car

    @pytest.mark.parametrize("name", SPECS)
    def test_expansion_partial(self, name):
        spec, ctx = make_spec(name), SmoothContext(5)
        eps = spec.transform_certificate.exponent if isinstance(
            spec.transform_certificate, GrowthCertificate) else Fraction(0)
        tp = best_tail_params(ctx, eps, 900)
        for a in (1, 6, 45):
            got = expansion_partial(spec, ctx, a, 18, tp)
            partial, index_tail, reference = expansion_oracle(
                spec, ctx, a, 18, tp)
            assert (got.partial, got.index_tail, got.reference) == \
                (partial, index_tail, reference)


# -- counters -----------------------------------------------------------------

def test_coeffs_factorize_count(tmp_path, monkeypatch):
    """`coeffs --function mu --V 7 --ell-max 12` factorizes at most 1,000
    integers: one mobius per smooth index, one ramanujan_sum per divisor
    of each ell, and no per-index audit sample."""
    calls = []
    real = arith.factorize

    def counting(n):
        calls.append(n)
        return real(n)
    monkeypatch.setattr(arith, "factorize", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["coeffs", "--function", "mu", "--V", "7", "--ell-max",
                     "12", "--out", str(tmp_path)]) == 0
    assert len(calls) <= 1_000


def test_huge_numerators_through_coeffs_and_expand(tmp_path):
    """A table whose numerators pass 2**62 gives the oracle's values in
    coeffs.csv and expand.json."""
    entries = {1: 2 ** 62 + 1, 2: -(2 ** 62 + 3), 6: Fraction(2 ** 63, 7)}
    path = tmp_path / "big.tsv"
    path.write_text("#mode=eratosthenes\n" + "".join(
        f"{n}\t{v}\n" for n, v in entries.items()), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["coeffs", "--function", f"@{path}", "--V", "3",
                     "--ell-max", "7", "--out", str(tmp_path)]) == 0
        assert main(["expand", "--function", f"@{path}", "--V", "3",
                     "--a", "1", "12", "--L", "8",
                     "--out", str(tmp_path)]) == 0
    spec, ctx = spec_from_table("big", "eratosthenes", entries), \
        SmoothContext(3)
    tp = best_tail_params(ctx, 0, 10_000)
    rows = (tmp_path / "coeffs.csv").read_text().splitlines()[1:]
    for row in rows:
        ell, win, _, car, car_radius, _ = row.split(",")
        ell = int(ell)
        if not ctx.is_smooth(ell):
            assert win == car == "0/1"
            continue
        assert Fraction(win) == wintner_oracle(spec, ctx, ell, tp).center
        want = carmichael_oracle(spec, ctx, ell, tp)
        assert (Fraction(car), Fraction(car_radius)) == \
            (want.center, want.radius)
    report = json.loads((tmp_path / "expand.json").read_text())
    for point in report["points"]:
        partial, index_tail, reference = expansion_oracle(
            spec, ctx, point["a"], 8, tp)
        assert Fraction(point["partial"]["center"]) == partial.center
        assert Fraction(point["index_tail"]) == index_tail
        assert Fraction(point["reference"]) == reference


def test_carmichael_weights_scale_with_smooth_indices(tmp_path, monkeypatch):
    """`coeffs --V 3 --ell-max 20000` reads c_ell at the smooth t <= 10,000
    only: the weights it computes number at most #smooth(ell-max) *
    #smooth(10,000), not the sum of the smooth ell (268,102)."""
    from ramsmooth import coefficients
    sizes = []
    real = coefficients.ramanujan_sums

    def counting(q, ns):
        sizes.append(len(ns))
        return real(q, ns)
    monkeypatch.setattr(coefficients, "ramanujan_sums", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["coeffs", "--function", "mu", "--V", "3", "--ell-max",
                     "20000", "--out", str(tmp_path)]) == 0
    ctx = SmoothContext(3)
    assert sum(sizes) <= len(smooth_up_to(ctx, 20_000)) * \
        len(smooth_up_to(ctx, 10_000))


@pytest.mark.parametrize("identifier", ["indicator:1000000000",
                                        "ramanujan:100000007"])
def test_audit_cost_is_free_of_the_catalog_parameter(identifier, tmp_path,
                                                     monkeypatch):
    """The audit of indicator:n0 and ramanujan:q0 makes O(AUDIT_LIMIT)
    gcds and no array of n0 or q0 entries, and coeffs runs on them."""
    calls = []
    real = arith.gcd

    def counting(a, b):
        calls.append(a)
        return real(a, b)
    monkeypatch.setattr(arith, "gcd", counting)
    catalog_spec(identifier).audit()
    assert len(calls) <= 2 * AUDIT_LIMIT
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["coeffs", "--function", identifier, "--V", "3",
                     "--out", str(tmp_path)]) == 0
