"""Exact integer vectors: the array forms the audit reads, the smooth
vectors the coefficient sums read, and the per-element Fraction loops
they replace, kept here as oracles."""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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

def wintner_oracle(spec, ctx, ell, X):
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
    inner = X // ell
    partial = Fraction(0)
    if inner >= 1:
        for K in smooth_up_to(ctx, inner):
            partial += spec.transform_value(ell * K) / (ell * K)
        delta, _ = best_tail_params(ctx, cert.exponent, inner)
        tail = smooth_tail_bound(ctx, cert.exponent, delta, inner)
    else:
        tail = euler_product_upper(ctx, cert.exponent - 1)
    return BoundedValue(partial, cert.bound *
                        pow_upper(ell, cert.exponent - 1) * tail)


def carmichael_oracle(spec, ctx, ell, X):
    phi = euler_phi(ell)
    if spec.ramanujan_hint is not None:
        return None  # closed by Euler products, not by a smooth sum
    direct = spec.direct_certificate
    if isinstance(direct, FiniteSupport):
        return BoundedValue.exact(ctx.totient_product * sum(
            (spec.evaluate(t) * ramanujan_sum(ell, t) / t
             for t in smooth_up_to(ctx, direct.bound)), Fraction(0)) / phi)
    partial = sum((spec.evaluate(t) * ramanujan_sum(ell, t) / t
                   for t in smooth_up_to(ctx, X)), Fraction(0))
    delta, _ = best_tail_params(ctx, direct.exponent, X)
    tail = smooth_tail_bound(ctx, direct.exponent, delta, X)
    return BoundedValue(ctx.totient_product * partial / phi,
                        ctx.totient_product * ell * direct.bound * tail / phi)


def expansion_oracle(spec, ctx, a, L, X):
    partial = interval_sum([wintner_oracle(spec, ctx, ell, X).scale(
        ramanujan_sum(ell, a)) for ell in smooth_up_to(ctx, L)])
    support = spec.transform_support
    if support is not None:
        index_tail = sum((abs(wintner_oracle(spec, ctx, ell, X).center) *
                          min(a, ell) for ell in smooth_up_to(ctx, support)
                          if ell > L), Fraction(0))
    else:
        cert = spec.transform_certificate
        index_tail = a * cert.bound * euler_product_upper(
            ctx, cert.exponent - 1) * smooth_tail_bound(
            ctx, cert.exponent, best_tail_params(ctx, cert.exponent, L)[0],
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

    def test_sparse_table_keeps_its_entries(self):
        # an index a direct table omits reads 0 inside its window; the
        # array form places the given entries; the mass sums them
        direct = spec_from_table("d", "direct", {2: Fraction(1, 3), 9: 4})
        assert [direct.evaluate(n) for n in (1, 2, 5, 9)] == \
            [0, Fraction(1, 3), 0, 4]
        with pytest.raises(IndexError):
            direct.evaluate(10)
        nums, dens = direct._values_array(12)
        assert nums.tolist() == [0, 0, 1] + [0] * 6 + [4, 0, 0, 0]
        assert dens.tolist() == [1, 1, 3] + [1] * 10
        erat = spec_from_table("e", "eratosthenes",
                               {1: 1, 300_000: Fraction(-5, 2)})
        assert erat.direct_certificate == GrowthCertificate(Fraction(7, 2), 0)
        assert erat.transform_value(300_000) == Fraction(-5, 2)
        assert erat.transform_value(299_999) == 0

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


class TestCoefficientOracles:
    @pytest.mark.parametrize("name", SPECS)
    @pytest.mark.parametrize("V", [2, 3, 7])
    def test_coefficient_record(self, name, V):
        spec, ctx = make_spec(name), SmoothContext(V)
        for ell in smooth_up_to(ctx, 13):
            rec = coefficient_record(spec, ctx, ell)
            assert rec.wintner == wintner_oracle(spec, ctx, ell, 10_000)
            car = carmichael_oracle(spec, ctx, ell, 10_000)
            assert car is None or rec.carmichael == car

    @pytest.mark.parametrize("name", SPECS)
    @pytest.mark.parametrize("X", [1, 5, 700])
    def test_cutoffs(self, name, X):
        spec, ctx = make_spec(name), SmoothContext(5)
        for ell in smooth_up_to(ctx, 13):
            assert wintner_restricted(spec, ctx, ell, X) == \
                wintner_oracle(spec, ctx, ell, X)
            car = carmichael_oracle(spec, ctx, ell, X)
            assert car is None or carmichael_formula(spec, ctx, ell, X) == car

    @pytest.mark.parametrize("name", SPECS)
    def test_expansion_partial(self, name):
        spec, ctx = make_spec(name), SmoothContext(5)
        for a in (1, 6, 45):
            got = expansion_partial(spec, ctx, a, 18, 900)
            partial, index_tail, reference = expansion_oracle(
                spec, ctx, a, 18, 900)
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
    rows = (tmp_path / "coeffs.csv").read_text().splitlines()[1:]
    for row in rows:
        ell, win, _, car, car_radius, _ = row.split(",")
        ell = int(ell)
        if not ctx.is_smooth(ell):
            assert win == car == "0/1"
            continue
        assert Fraction(win) == wintner_oracle(spec, ctx, ell, 10_000).center
        want = carmichael_oracle(spec, ctx, ell, 10_000)
        assert (Fraction(car), Fraction(car_radius)) == \
            (want.center, want.radius)
    report = json.loads((tmp_path / "expand.json").read_text())
    for point in report["points"]:
        partial, index_tail, reference = expansion_oracle(
            spec, ctx, point["a"], 8, 10_000)
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


# A child that loads a table with tracemalloc on, then runs coeffs and expand
# on it; it prints the load's peak traced bytes and the two exit codes.
_LOAD_AND_RUN = r"""
import contextlib, io, sys, tracemalloc
from ramsmooth.cli import main
from ramsmooth.functions import parse_function_file
path, out = sys.argv[1:]
tracemalloc.start()
parse_function_file(path)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main([*argv, "--out", out]) for argv in (
        ["coeffs", "--function", "@" + path, "--V", "3", "--ell-max", "3"],
        ["expand", "--function", "@" + path, "--V", "3", "--a", "1", "6",
         "--L", "16"])]
print(peak, *codes)
"""


def test_table_cost_is_free_of_its_largest_index(tmp_path):
    """An eratosthenes table with entries at 1 and 10**8 loads in under
    1 MB of traced memory, and coeffs and expand exit 0 on it.  The child
    runs under a 1 GB address-space cap: a table filled out to its largest
    index would need tens of GB, and the cap makes that fail here rather
    than exhaust the machine."""
    path = tmp_path / "sparse.tsv"
    path.write_text("#mode=eratosthenes\n1\t1/1\n100000000\t1/2\n",
                    encoding="utf-8")
    cap = 1 << 30
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(src), os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run(
        [sys.executable, "-c", _LOAD_AND_RUN, str(path), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert child.returncode == 0, child.stderr
    peak, coeffs_code, expand_code = map(int, child.stdout.split())
    assert peak < 1 << 20
    assert coeffs_code == expand_code == 0
