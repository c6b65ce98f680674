"""Exact elementary arithmetic functions on positive integers.

Factorization is plain trial division against a cached, growable prime
list: inputs here are desk scale and determinism matters more than speed.
Table values are Fractions at the interface; the transforms scale a table
to integer numerators over one common denominator and run the single
Dirichlet sieve on them, so identity checks never touch floats.  The
sieve splits the pairs m * k <= X by the Dirichlet hyperbola method at
sqrt(X), so a transform of length X costs about 2 sqrt(X) numpy slice
updates rather than one per nonzero entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

import numpy as np

_PRIME_CACHE: list[int] = [2, 3, 5, 7, 11, 13]


def _extend_primes(limit: int) -> None:
    n = _PRIME_CACHE[-1]
    while _PRIME_CACHE[-1] < limit:
        n += 2
        r = isqrt(n)
        for p in _PRIME_CACHE:
            if p > r:
                _PRIME_CACHE.append(n)
                break
            if n % p == 0:
                break


def primes_up_to(limit: int) -> list[int]:
    """Ascending list of all primes <= limit."""
    if limit >= _PRIME_CACHE[-1]:
        _extend_primes(limit + 1)
    out = []
    for p in _PRIME_CACHE:
        if p > limit:
            break
        out.append(p)
    return out


@dataclass(frozen=True)
class FactoredInteger:
    """n together with its prime factorization, primes ascending."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        last = 1
        for p, k in self.factors:
            if p <= last or k < 1:
                raise ValueError(f"bad factorization for {self.n}")
            last = p
            prod *= p ** k
        if prod != self.n or self.n < 1:
            raise ValueError(f"factorization does not multiply to {self.n}")


def factorize(n: int) -> FactoredInteger:
    """Trial-division factorization of n >= 1."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    return FactoredInteger(n, tuple(_prime_factors(n)))


def _prime_factors(m: int) -> list[tuple[int, int]]:
    """(p, k) with p**k || m, primes ascending, by trial division.

    The prime cache grows only when the division runs past its last prime
    while p * p <= the unfactored rest, so an m with only small prime
    factors costs no primes up to sqrt(m).
    """
    fac: list[tuple[int, int]] = []
    r = isqrt(m)
    for p in _PRIME_CACHE:
        if p > r:
            break
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            fac.append((p, k))
            r = isqrt(m)
    else:
        if r > _PRIME_CACHE[-1]:
            # no prime factor of the rest up to the last cached prime
            _extend_primes(r + 1)
            return fac + _prime_factors(m)
    if m > 1:
        fac.append((m, 1))
    return fac


def mobius(n: int) -> int:
    """Mobius function: 0 on non-squarefree n, else (-1)**omega(n)."""
    if n < 1:
        raise ValueError("mobius needs n >= 1")
    fac = factorize(n).factors
    if any(k > 1 for _, k in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(n: int) -> int:
    """Count of 1 <= k <= n coprime to n."""
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    out = n
    for p, _ in factorize(n).factors:
        out -= out // p
    return out


def omega(n: int) -> int:
    """Number of distinct prime factors (0 for n = 1)."""
    if n < 1:
        raise ValueError("omega needs n >= 1")
    return len(factorize(n).factors)


def divisors(n: int) -> list[int]:
    """All divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError("divisors needs n >= 1")
    out = [1]
    for p, k in factorize(n).factors:
        powers = [p ** j for j in range(1, k + 1)]
        out += [d * q for d in out for q in powers]
    return sorted(out)


def ramanujan_sum(q: int, n: int) -> int:
    """Ramanujan sum c_q(n) = sum over d | gcd(q, n) of d * mobius(q/d).

    n may be any integer; the value only depends on n mod q, and
    c_q(0) = euler_phi(q) (gcd(q, 0) = q).  Always an integer with
    |c_q(n)| <= gcd(q, n mod q or q).  Computed from one factorization
    of q (see _prime_power_sums).
    """
    if q < 1:
        raise ValueError("ramanujan_sum needs q >= 1")
    return _ramanujan_at(_prime_power_sums(q), n)


def _prime_power_sums(q: int) -> list[tuple[int, int, int]]:
    """(p**k, p**(k-1), phi(p**k)) for each p**k || q.

    With g = gcd(q, n), c_q(n) = mu(q/g) phi(q) / phi(q/g): the product
    over p**k || q of c_{p**k}(n), which is phi(p**k) when p**k | n,
    -p**(k-1) when p**(k-1) | n but p**k does not, and 0 otherwise.
    """
    return [(p ** k, p ** (k - 1), p ** (k - 1) * (p - 1))
            for p, k in factorize(q).factors]


def _ramanujan_at(powers: list[tuple[int, int, int]], n: int) -> int:
    """c_q(n) from the _prime_power_sums of q, on Python ints."""
    out = 1
    for pk, pk1, phi in powers:
        r = n % pk
        if r == 0:
            out *= phi
        elif r % pk1 == 0:
            out = -out * pk1
        else:
            return 0
    return out


def ramanujan_sums(q: int, ns) -> np.ndarray:
    """[c_q(n) for n in ns] as an array of exact_dtype(q) (|c_q| <= q),
    from one factorization of q: per p**k || q, one numpy select of the
    three values of c_{p**k} (see _prime_power_sums) multiplied in, when
    q and every n fit int64; else the same product per n on Python ints.
    ns is a range, a sequence or an integer array."""
    if q < 1:
        raise ValueError("ramanujan_sums needs q >= 1")
    powers = _prime_power_sums(q)
    if isinstance(ns, range) and \
            exact_dtype(max(abs(ns.start), abs(ns.stop))) is np.int64:
        ns = np.arange(ns.start, ns.stop, ns.step, dtype=np.int64)
    else:
        ns = np.asarray(ns)
    if exact_dtype(q) is object or ns.dtype != np.int64:
        return np.array([_ramanujan_at(powers, n) for n in ns.tolist()],
                        dtype=exact_dtype(q))
    out = np.ones(len(ns), dtype=np.int64)
    for pk, pk1, phi in powers:
        r = ns % pk
        out *= np.where(r == 0, phi, np.where(r % pk1 == 0, -pk1, 0))
    return out


@dataclass(frozen=True)
class FunctionTable:
    """Exact values of an arithmetic function on the window [1, X]."""

    upper: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if self.upper < 1 or len(self.values) != self.upper:
            raise ValueError("table must cover exactly [1, upper]")

    @classmethod
    def from_callable(cls, upper: int, fn) -> "FunctionTable":
        return cls(upper, tuple(Fraction(fn(n)) for n in range(1, upper + 1)))

    def __call__(self, n: int) -> Fraction:
        if not 1 <= n <= self.upper:
            raise IndexError(f"n={n} outside table window [1, {self.upper}]")
        return self.values[n - 1]


def common_denominator(values) -> tuple[np.ndarray, int]:
    """(nums, den) with values[i] == nums[i] / den exactly and den the lcm
    of the denominators; nums has the exact_dtype of its largest entry."""
    den = lcm(*(v.denominator for v in values))
    nums = [v.numerator * (den // v.denominator) for v in values]
    top = max(map(abs, nums), default=0)
    return np.array(nums, dtype=exact_dtype(top)), den


def exact_dtype(bound: int):
    """int64 for integers of magnitude <= bound when it fits, else object
    (exact Python ints)."""
    return np.int64 if bound < 2 ** 63 else object


def magnitude(x: np.ndarray) -> int:
    """max |x| over an integer array, as a Python int (0 when empty)."""
    return max(int(x.max()), -int(x.min())) if len(x) else 0


def exact_sum(x: np.ndarray) -> int:
    """sum(x) as a Python int, exactly.  An int64 array is summed as its
    halves x = hi * 2**32 + lo, -2**31 <= hi < 2**31 and 0 <= lo < 2**32,
    each in int64 when len(x) * (2**32 - 1) fits, so that no partial sum
    of either half wraps; any other array is summed on Python ints."""
    if x.dtype != np.int64 or exact_dtype(len(x) * (2 ** 32 - 1)) is object:
        return int(x.astype(object).sum())
    return (int((x >> 32).sum()) << 32) + int((x & 0xFFFFFFFF).sum())


def mobius_sieve(X: int) -> np.ndarray:
    """[mu(0), ..., mu(X)] as an int64 array (mu(0) = 0), by a sieve of
    Eratosthenes over the primes p <= sqrt(X).  A squarefree n keeps
    rest[n] > 1 exactly when it has one more prime factor, above sqrt(X)."""
    mu = np.ones(X + 1, dtype=np.int64)
    mu[0] = 0
    rest = np.arange(X + 1, dtype=np.int64)
    for p in primes_up_to(isqrt(X)):
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
        rest[p::p] //= p
    mu[rest > 1] *= -1
    return mu


def totient_sieve(X: int) -> np.ndarray:
    """[phi(0), ..., phi(X)] as an int64 array (phi(0) = 0): starting from
    n, each prime p <= X takes away n/p from its multiples."""
    phi = np.arange(X + 1, dtype=np.int64)
    for p in primes_up_to(X):
        phi[p::p] -= phi[p::p] // p
    return phi


def dirichlet_sieve(a: np.ndarray, b: np.ndarray, X: int) -> np.ndarray:
    """out[d] = sum over m * k = d of a[m] * b[k] for 1 <= d <= X; out[0] = 0.

    a and b are integer arrays indexed by n (index 0 ignored, zero past
    the end); they are swapped first so that a has fewer nonzero entries.
    The pairs are split by the Dirichlet hyperbola method at s = isqrt(X):
    a pair with m <= s comes from one strided slice
    out[m::m] += a[m] * b[1:] per nonzero a[m]; a pair with m > s has
    k <= X // m0, m0 the least nonzero index of a above s, and comes from
    one slice out[k(s+1)::k] += b[k] * a[s+1:] per nonzero b[k]; that
    loop is skipped when a has no nonzero above s.  So the sieve makes
    at most 2 sqrt(X) slice updates.

    out[d] sums at most min(nnz, tau(d)) nonzero products and
    tau(d) <= 2 sqrt(d), so int64 is used when that bound fits, else the
    same code runs on exact Python ints.
    """
    a, b = a[:X + 1], b[:X + 1]
    if np.count_nonzero(b[1:]) < np.count_nonzero(a[1:]):
        a, b = b, a
    loop = np.flatnonzero(a[1:]) + 1
    s = isqrt(X)
    terms = min(len(loop), 2 * s + 1)
    ma, mb = magnitude(a), magnitude(b)
    dtype = exact_dtype(max(ma, mb, ma * mb * terms))
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    out = np.zeros(X + 1, dtype=dtype)
    small = loop[loop <= s]
    ks = loop[:0]
    if len(small) < len(loop):
        ks = np.flatnonzero(b[1:X // int(loop[len(small)]) + 1]) + 1
    # memoryview yields plain ints without building a list of X entries
    for m in memoryview(small):
        seg = b[1:X // m + 1]
        out[m:m * len(seg) + 1:m] += a[m] * seg
    for k in memoryview(ks):
        seg = a[s + 1:X // k + 1]
        out[k * (s + 1):k * (s + len(seg)) + 1:k] += b[k] * seg
    return out


def eratosthenes_transform(table: FunctionTable) -> FunctionTable:
    """Dirichlet convolution with mobius: F'(d) = sum_{t|d} F(t) mu(d/t)."""
    X = table.upper
    nums, den = common_denominator((0,) + table.values)
    out = dirichlet_sieve(nums, mobius_sieve(X), X)
    return FunctionTable(X, tuple(Fraction(v, den) for v in out[1:].tolist()))


def inverse_transform(table: FunctionTable) -> FunctionTable:
    """Divisor-sum inverse: F(n) = sum_{d|n} F'(d)."""
    X = table.upper
    nums, den = common_denominator((0,) + table.values)
    out = dirichlet_sieve(nums, np.ones(X + 1, dtype=np.int64), X)
    return FunctionTable(X, tuple(Fraction(v, den) for v in out[1:].tolist()))


def lcm_range(upper: int) -> int:
    """lcm(2, ..., upper); 1 when upper < 2."""
    return lcm(*range(1, upper + 1))

