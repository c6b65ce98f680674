"""Exact elementary arithmetic functions on positive integers.

Factorization is plain trial division against a cached, growable prime
list: inputs here are desk scale and determinism matters more than speed.
All table values are Fractions; identity checks never touch floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Mapping

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
    m = n
    fac: list[tuple[int, int]] = []
    r = isqrt(m)
    _extend_primes(max(r + 1, 3))
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
    if m > 1:
        fac.append((m, 1))
    return FactoredInteger(n, tuple(fac))


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
    |c_q(n)| <= gcd(q, n mod q or q).
    """
    if q < 1:
        raise ValueError("ramanujan_sum needs q >= 1")
    r = n % q
    g = q if r == 0 else gcd(q, r)
    return sum(d * mobius(q // d) for d in divisors(g))


@dataclass(frozen=True)
class FunctionTable:
    """Exact values of an arithmetic function on the window [1, X]."""

    upper: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if self.upper < 1 or len(self.values) != self.upper:
            raise ValueError("table must cover exactly [1, upper]")

    @classmethod
    def from_mapping(cls, upper: int, mapping: Mapping[int, Fraction | int]) -> "FunctionTable":
        vals = []
        for n in range(1, upper + 1):
            if n not in mapping:
                raise ValueError(f"missing value at n={n}")
            vals.append(Fraction(mapping[n]))
        return cls(upper, tuple(vals))

    @classmethod
    def from_callable(cls, upper: int, fn) -> "FunctionTable":
        return cls(upper, tuple(Fraction(fn(n)) for n in range(1, upper + 1)))

    def __call__(self, n: int) -> Fraction:
        if not 1 <= n <= self.upper:
            raise IndexError(f"n={n} outside table window [1, {self.upper}]")
        return self.values[n - 1]


def eratosthenes_transform(table: FunctionTable) -> FunctionTable:
    """Dirichlet convolution with mobius: F'(d) = sum_{t|d} F(t) mu(d/t)."""
    X = table.upper
    mu = [0] * (X + 1)
    for m in range(1, X + 1):
        mu[m] = mobius(m)
    out = [Fraction(0)] * (X + 1)
    for t in range(1, X + 1):
        ft = table(t)
        if ft == 0:
            continue
        for d in range(t, X + 1, t):
            m = mu[d // t]
            if m:
                out[d] += m * ft
    return FunctionTable(X, tuple(out[1:]))


def inverse_transform(table: FunctionTable) -> FunctionTable:
    """Divisor-sum inverse: F(n) = sum_{d|n} F'(d)."""
    X = table.upper
    out = [Fraction(0)] * (X + 1)
    for d in range(1, X + 1):
        fd = table(d)
        if fd == 0:
            continue
        for n in range(d, X + 1, d):
            out[n] += fd
    return FunctionTable(X, tuple(out[1:]))


def lcm_range(upper: int) -> int:
    """lcm(2, ..., upper); 1 when upper < 2."""
    out = 1
    for k in range(2, upper + 1):
        out = out * k // gcd(out, k)
    return out

