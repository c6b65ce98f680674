"""Elementary arithmetic functions against independent oracles."""

import cmath
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

from ramsmooth import (
    FactoredInteger,
    FunctionTable,
    common_denominator,
    dirichlet_sieve,
    divisors,
    eratosthenes_transform,
    euler_phi,
    factorize,
    inverse_transform,
    lcm_range,
    mobius,
    mobius_sieve,
    omega,
    primes_up_to,
    ramanujan_sum,
    ramanujan_sums,
)
from ramsmooth import arith


def trial_factor(n: int) -> list[int]:
    """Oracle: plain trial division, returning prime factors with multiplicity."""
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def exp_sum_oracle(q: int, n: int) -> complex:
    """Oracle: the exponential sum over residues coprime to q."""
    return sum(cmath.exp(2j * cmath.pi * a * n / q)
               for a in range(1, q + 1) if gcd(a, q) == 1)


class TestMobius:
    def test_examples(self):
        assert mobius(1) == 1
        assert mobius(6) == 1
        assert mobius(12) == 0

    def test_against_factorization_oracle(self):
        for n in range(1, 500):
            fac = trial_factor(n)
            if len(set(fac)) != len(fac):
                assert mobius(n) == 0
            else:
                assert mobius(n) == (-1) ** len(fac)

    def test_divisor_sum_collapses(self):
        # sum_{d|n} mu(d) = [n == 1], accumulated by sieve up to 10^4
        X = 10_000
        acc = [0] * (X + 1)
        for d in range(1, X + 1):
            md = mobius(d)
            if md:
                for n in range(d, X + 1, d):
                    acc[n] += md
        assert acc[1] == 1
        assert all(acc[n] == 0 for n in range(2, X + 1))

    @pytest.mark.parametrize("X", [1, 2, 10_000])
    def test_sieve_matches_pointwise(self, X):
        assert mobius_sieve(X).tolist() == \
            [0] + [mobius(n) for n in range(1, X + 1)]


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(1) == 1
        assert euler_phi(3) == 2
        assert euler_phi(12) == 4

    def test_gcd_count_oracle(self):
        for n in range(1, 300):
            assert euler_phi(n) == sum(1 for k in range(1, n + 1)
                                       if gcd(k, n) == 1)

    def test_divisor_sum_is_identity(self):
        for n in range(1, 200):
            assert sum(euler_phi(d) for d in divisors(n)) == n


class TestOmega:
    def test_examples(self):
        assert omega(1) == 0
        assert omega(12) == 2
        assert omega(30) == 3

    def test_oracle(self):
        for n in range(1, 400):
            assert omega(n) == len(set(trial_factor(n)))


class TestDivisors:
    def test_examples(self):
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(13) == [1, 13]

    @given(st.integers(min_value=1, max_value=5000))
    def test_trial_division_oracle(self, n):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


class TestFactorize:
    @given(st.integers(min_value=1, max_value=10 ** 6))
    def test_reconstructs(self, n):
        fac = factorize(n)
        prod = 1
        for p, k in fac.factors:
            prod *= p ** k
        assert prod == n

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            FactoredInteger(4, ((2, 1),))
        with pytest.raises(ValueError):
            FactoredInteger(6, ((3, 1), (2, 1)))

    def test_primes_up_to(self):
        assert primes_up_to(13) == [2, 3, 5, 7, 11, 13]
        assert primes_up_to(1) == []

    def test_cache_grows_only_for_the_unfactored_rest(self, monkeypatch):
        # n with only prime factors in the cache asks for no extension,
        # however large n is; a hook refuses any request before it runs
        def refuse(limit):
            raise AssertionError(f"prime cache extension to {limit}")
        monkeypatch.setattr(arith, "_extend_primes", refuse)
        assert factorize(2 ** 64).factors == ((2, 64),)
        assert factorize(2 ** 200 * 3 ** 5).factors == ((2, 200), (3, 5))
        assert ramanujan_sums(2 ** 64, range(3)).tolist() == [2 ** 63, 0, 0]

    @pytest.mark.parametrize("n, limits", [
        (13 * 13, []), (13 * 17, []), (2 ** 10 * 1009 * 1013, [1011]),
        (6 * 1_000_003, [1001]), (1_000_003, [1001])],
        ids=["13^2", "13*17", "2^10*1009*1013", "6*1000003", "1000003"])
    def test_cache_extension_from_a_fresh_cache(self, monkeypatch, n, limits):
        # from the initial cache, a rest with no factor up to 13 asks once
        # for the primes up to its own root, not up to sqrt(n)
        asked = []
        real = arith._extend_primes

        def recording(limit):
            asked.append(limit)
            real(limit)
        monkeypatch.setattr(arith, "_PRIME_CACHE", [2, 3, 5, 7, 11, 13])
        monkeypatch.setattr(arith, "_extend_primes", recording)
        assert [p for p, k in factorize(n).factors for _ in range(k)] == \
            trial_factor(n)
        assert asked == limits


class TestRamanujanSum:
    def test_examples(self):
        for n in (0, 1, 5, -3):
            assert ramanujan_sum(1, n) == 1
        assert ramanujan_sum(3, 3) == 2
        assert ramanujan_sum(4, 2) == -2

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            ramanujan_sum(0, 1)

    def test_at_zero_is_totient(self):
        for q in range(1, 60):
            assert ramanujan_sum(q, 0) == euler_phi(q)
            assert ramanujan_sum(q, q) == euler_phi(q)

    def test_exponential_sum_oracle(self):
        for q in range(1, 60):
            for n in range(0, 60):
                z = exp_sum_oracle(q, n)
                assert abs(z.imag) < 1e-9
                assert abs(ramanujan_sum(q, n) - z.real) < 1e-6

    @given(st.integers(min_value=1, max_value=300),
           st.integers(min_value=-300, max_value=300))
    def test_periodic_and_bounded(self, q, n):
        value = ramanujan_sum(q, n)
        assert value == ramanujan_sum(q, n + q)
        r = n % q
        g = q if r == 0 else gcd(q, r)
        assert abs(value) <= g


def rational_tables(max_upper=40, bound=10):
    return st.integers(min_value=1, max_value=max_upper).flatmap(
        lambda X: st.lists(
            st.fractions(min_value=-bound, max_value=bound, max_denominator=12),
            min_size=X, max_size=X,
        ).map(lambda vals: FunctionTable(X, tuple(Fraction(v) for v in vals))))


def sieve_factor(X, sparse, scale):
    """Values at 1..X: at most three nonzero entries when sparse."""
    entry = st.fractions(min_value=-10, max_value=10, max_denominator=12)
    if sparse:
        values = st.dictionaries(st.integers(1, X), entry, max_size=3).map(
            lambda d: [d.get(n, Fraction(0)) for n in range(1, X + 1)])
    else:
        values = st.lists(entry, min_size=X, max_size=X)
    return values.map(lambda vals: [v * scale for v in vals])


def sieve_oracle(a, b, X):
    """[0, out[1], ..., out[X]] by the literal divisor sum, with a and b
    read as zero past their ends and index 0 unused."""
    def at(v, n):
        return int(v[n]) if n < len(v) else 0
    return [0] + [sum(at(a, m) * at(b, d // m) for m in divisors(d))
                  for d in range(1, X + 1)]


class TestDirichletSieve:
    @settings(max_examples=60)
    @given(st.integers(min_value=1, max_value=60), st.sampled_from("ab"),
           st.sampled_from([1, 2 ** 62]), st.data())
    def test_divisor_sum_oracle(self, X, sparse, scale, data):
        # scale 2**62 pushes the products past int64: exact fallback
        a = data.draw(sieve_factor(X, sparse == "a", scale))
        b = data.draw(sieve_factor(X, sparse == "b", 1))
        a_num, a_den = common_denominator([0] + a)
        b_num, b_den = common_denominator([0] + b)
        out = dirichlet_sieve(a_num, b_num, X)
        assert len(out) == X + 1 and out[0] == 0
        for d in range(1, X + 1):
            expected = sum((a[m - 1] * b[d // m - 1] for m in divisors(d)),
                           Fraction(0))
            assert Fraction(int(out[d]), a_den * b_den) == expected

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(st.integers(1, 400),
                     st.integers(2, 20).flatmap(lambda s: st.sampled_from(
                         [s * s - 1, s * s, s * s + s]))),
           st.data())
    def test_hyperbola_split_oracle(self, X, data):
        # factors of any length (zero past the end), supported on all of
        # [1, X], sparsely, only on [1, sqrt X] or only above sqrt X, with
        # a nonzero index 0 the sieve must never read
        s = isqrt(X)
        rnd = data.draw(st.randoms(use_true_random=False))

        def factor():
            length = data.draw(st.one_of(st.just(X + 1), st.integers(1, X + 1)))
            lo, hi = data.draw(st.sampled_from([(1, X), (1, s), (s + 1, X)]))
            density = data.draw(st.sampled_from([1.0, 0.1]))
            vals = [data.draw(st.integers(-10, 10).filter(bool))]
            vals += [rnd.randint(-10, 10)
                     if lo <= n <= hi and rnd.random() < density else 0
                     for n in range(1, length)]
            return np.array(vals, dtype=np.int64)

        a, b = factor(), factor()
        out = dirichlet_sieve(a, b, X)
        assert out.dtype == np.int64 and len(out) == X + 1
        assert out.tolist() == sieve_oracle(a, b, X)

    def test_int64_bound_edge(self):
        # a has two nonzeros, so out[d] sums at most 2 products of
        # magnitude x * y: int64 exactly while 2 x y < 2**63
        X, x = 10, 2 ** 31
        a = np.zeros(X + 1, dtype=np.int64)
        a[1] = a[2] = x
        for y, dtype in ((2 ** 31 - 1, np.int64), (2 ** 31 + 1, object)):
            b = np.full(X + 1, y, dtype=np.int64)
            out = dirichlet_sieve(a, b, X)
            assert out.dtype == dtype
            assert out.tolist() == sieve_oracle(a, b, X)
            assert int(out[2]) == 2 * x * y


class TestTransforms:
    def test_table_window_enforced(self):
        t = FunctionTable.from_callable(5, lambda n: n)
        with pytest.raises(IndexError):
            t(0)
        with pytest.raises(IndexError):
            t(6)

    def test_constant_one_collapses(self):
        t = FunctionTable.from_callable(60, lambda n: 1)
        tp = eratosthenes_transform(t)
        assert tp(1) == 1
        assert all(tp(n) == 0 for n in range(2, 61))

    def test_identity_gives_totient(self):
        t = FunctionTable.from_callable(100, lambda n: n)
        tp = eratosthenes_transform(t)
        for n in range(1, 101):
            assert tp(n) == euler_phi(n)

    def test_ramanujan_transform_closed_form(self):
        for q0 in range(1, 31):
            t = FunctionTable.from_callable(60, lambda n: ramanujan_sum(q0, n))
            tp = eratosthenes_transform(t)
            for d in range(1, 61):
                expected = d * mobius(q0 // d) if q0 % d == 0 else 0
                assert tp(d) == expected

    def test_inverse_examples(self):
        delta = FunctionTable.from_callable(50, lambda n: 1 if n == 1 else 0)
        assert all(v == 1 for v in inverse_transform(delta).values)
        phi_t = FunctionTable.from_callable(50, euler_phi)
        assert inverse_transform(phi_t).values == tuple(
            Fraction(n) for n in range(1, 51))
        mu_t = FunctionTable.from_callable(50, mobius)
        inv = inverse_transform(mu_t)
        assert inv(1) == 1 and all(inv(n) == 0 for n in range(2, 51))

    @settings(max_examples=40)
    @given(st.one_of(rational_tables(), rational_tables(bound=2 ** 70)))
    def test_round_trip(self, table):
        assert inverse_transform(eratosthenes_transform(table)).values \
            == table.values
        assert eratosthenes_transform(inverse_transform(table)).values \
            == table.values


def test_lcm_range():
    assert lcm_range(1) == 1
    assert lcm_range(2) == 2
    assert lcm_range(6) == 60
    assert lcm_range(12) == 27720
