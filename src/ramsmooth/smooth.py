"""Smooth and sifted integers: enumeration, counting, Euler products,
and certified Rankin tail bounds for series restricted to smooth numbers.

A number is Q-smooth when every prime factor is <= Q, Q-sifted when it is
coprime to every prime <= Q.  The two sets intersect only at 1 and every
positive integer splits uniquely into a smooth times a sifted part.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import exp, expm1, gcd, inf, log

from .arith import primes_up_to
from .dyadic import pow_upper


@dataclass(frozen=True)
class SmoothContext:
    """A smoothness bound Q >= 2 with its primes and exact Euler products.

    totient_product = prod_{p<=Q} (1 - 1/p); smooth_harmonic is its exact
    reciprocal, the value of sum over Q-smooth t of 1/t.

    A context also memoizes its Rankin tail bounds: euler_product_upper,
    smooth_tail_bound and best_tail_params store each result under their
    arguments, so an Euler product is computed once per exponent and a
    tail bound once per (epsilon, delta, X), for the life of the context.
    The memo takes no part in equality, hashing or repr: two contexts with
    the same Q are equal whatever they have computed.
    """

    Q: int
    primes: tuple[int, ...] = field(init=False)
    primorial: int = field(init=False)
    totient_product: Fraction = field(init=False)
    smooth_harmonic: Fraction = field(init=False)
    _tail_memo: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False, hash=False)

    def __post_init__(self):
        if self.Q < 2:
            raise ValueError("smoothness bound must be >= 2")
        ps = tuple(primes_up_to(self.Q))
        prod = 1
        tp = Fraction(1)
        for p in ps:
            prod *= p
            tp *= Fraction(p - 1, p)
        object.__setattr__(self, "primes", ps)
        object.__setattr__(self, "primorial", prod)
        object.__setattr__(self, "totient_product", tp)
        object.__setattr__(self, "smooth_harmonic", 1 / tp)

    @property
    def prime_count(self) -> int:
        return len(self.primes)

    def is_smooth(self, n: int) -> bool:
        """True iff n = 1 or every prime factor of n is <= Q."""
        if n < 1:
            raise ValueError("is_smooth needs n >= 1")
        for p in self.primes:
            while n % p == 0:
                n //= p
        return n == 1

    def is_sifted(self, n: int) -> bool:
        """True iff n is coprime to every prime <= Q."""
        if n < 1:
            raise ValueError("is_sifted needs n >= 1")
        return gcd(n, self.primorial) == 1

    def smooth_part(self, n: int) -> int:
        """The largest Q-smooth divisor of n."""
        if n < 1:
            raise ValueError("smooth_part needs n >= 1")
        out = 1
        for p in self.primes:
            while n % p == 0:
                n //= p
                out *= p
        return out


def smooth_up_to(ctx: SmoothContext, X: int) -> list[int]:
    """All Q-smooth integers in [1, X], ascending.

    Builds the set one prime at a time by multiplying in prime powers, so
    the cost is proportional to the output, never to X.
    """
    if X < 1:
        raise ValueError("smooth_up_to needs X >= 1")
    vals = [1]
    for p in ctx.primes:
        if p > X:
            break
        grown = []
        for v in vals:
            w = v
            while w <= X:
                grown.append(w)
                w *= p
        grown.sort()
        vals = grown
    return vals


def sifted_count(ctx: SmoothContext, X: int) -> tuple[int, Fraction]:
    """(exact count of Q-sifted n <= X, main term totient_product * X).

    The count is the inclusion-exclusion sum over squarefree divisors of
    the primorial; the difference from the main term never exceeds
    2**prime_count in absolute value.
    """
    if X < 1:
        raise ValueError("sifted_count needs X >= 1")
    # (d, mu(d)) over the squarefree d | primorial: each prime flips the sign
    divs = [(1, 1)]
    for p in ctx.primes:
        divs += [(d * p, -mu) for d, mu in divs]
    count = sum(mu * (X // d) for d, mu in divs)
    return count, ctx.totient_product * X


def smooth_power_series(ctx: SmoothContext, s: int) -> Fraction:
    """Exact value of sum over Q-smooth m of m**s, for integer s < 0.

    Equals the Euler product prod_{p<=Q} 1/(1 - p**s).  Nonnegative or
    non-integer exponents are rejected: the former diverge, the latter
    are not exactly representable (see euler_product_upper for bounds).
    """
    if isinstance(s, Fraction):
        if s.denominator != 1:
            raise ValueError("smooth_power_series needs an integer exponent")
        s = int(s)
    if s >= 0:
        raise ValueError("series diverges for s >= 0")
    out = Fraction(1)
    for p in ctx.primes:
        out /= 1 - Fraction(p) ** s
    return out


def euler_product_upper(ctx: SmoothContext, s: Fraction) -> Fraction:
    """Certified rational upper bound on prod_{p<=Q} (1 - p**s)**-1, s < 0.

    This bounds the full smooth series sum m**s.  For irrational p**s the
    factor uses a dyadic upper bound of p**s, which only enlarges the
    product.
    """
    s = Fraction(s)
    if s >= 0:
        raise ValueError("need s < 0 for a convergent product")
    key = ("euler", s)
    out = ctx._tail_memo.get(key)
    if out is None:
        out = Fraction(1)
        for p in ctx.primes:
            ub = pow_upper(p, s)
            if ub >= 1:
                raise ArithmeticError(
                    "power bound lost positivity; raise precision")
            out /= 1 - ub
        ctx._tail_memo[key] = out
    return out


def smooth_tail_bound(ctx: SmoothContext, epsilon: Fraction, delta: Fraction,
                      X: int) -> Fraction:
    """Certified B >= sum over Q-smooth t > X of t**(epsilon-1).

    Rankin's trick: each tail term t**(eps-1) <= (t/X)**delta * t**(eps-1),
    so the tail is at most X**(-delta) times the full smooth series with
    exponent eps+delta-1, an Euler product.  All irrational powers are
    replaced by certified rational upper bounds.
    """
    if X < 1:
        raise ValueError("tail bound needs X >= 1")
    epsilon = Fraction(epsilon)
    delta = Fraction(delta)
    if not (0 <= epsilon and 0 < delta and epsilon + delta < 1):
        raise ValueError("need epsilon >= 0, delta > 0, epsilon + delta < 1")
    key = ("tail", epsilon, delta, X)
    bound = ctx._tail_memo.get(key)
    if bound is None:
        shift = pow_upper(Fraction(1, X), delta)
        bound = shift * euler_product_upper(ctx, epsilon + delta - 1)
        ctx._tail_memo[key] = bound
    return bound


_DELTA_GRID = tuple(Fraction(k, 16) for k in range(1, 16))


def best_tail_params(ctx: SmoothContext, epsilon: Fraction,
                     X: int) -> tuple[Fraction, Fraction]:
    """(delta, bound): the grid delta in {1/16, ..., 15/16} minimizing the
    Rankin bound on the smooth tail beyond X, and that bound.

    Only the deltas that can win are priced exactly.  A float estimate of
    log(X**-delta * prod_p (1 - p**(eps+delta-1))**-1) is made for each
    admissible delta, and smooth_tail_bound runs only for the deltas whose
    estimate is within a margin of the smallest one, in grid order with
    the same strict-< tie-break as a loop over the whole grid.  The margin
    covers the float error of the two estimates compared (it allows 1e-9
    per summed term; each term is off by far less than half that) and the
    a-priori slack of the dyadic bounds: each power is at most 2**-63 above
    its true value (_root_bounds), so log(bound / true value) is at most
    2**-62 * (X**delta + sum_p 1 / (1 - p**s)).  A delta outside the margin
    therefore has an exact bound strictly above the bound of the smallest
    estimate, and the result is the full grid's.  When the slack is not
    small (X**delta past 2**60) the margin is infinite and every delta is
    priced.  Floats only choose delta; no float reaches a bound.
    """
    epsilon = Fraction(epsilon)
    key = ("best", epsilon, X)
    best = ctx._tail_memo.get(key)
    if best is not None:
        return best
    # (delta, float(delta), sum_p log(1 - p**s), sum_p 1 / (1 - p**s)) for
    # each admissible delta, s = eps + delta - 1: the part of the estimates
    # that does not depend on X, kept per epsilon
    grid = ctx._tail_memo.get(("grid", epsilon))
    if grid is None:
        grid = []
        for d in _DELTA_GRID:
            if epsilon + d < 1:
                s = float(epsilon + d - 1)
                gaps = [-expm1(s * log(p)) for p in ctx.primes]  # 1 - p**s
                grid.append((d, float(d), sum(map(log, gaps)),
                             sum(1 / g for g in gaps)))
        if not grid:
            raise ValueError("no admissible delta: epsilon too close to 1")
        ctx._tail_memo["grid", epsilon] = grid
    if X < 1:
        raise ValueError("tail bound needs X >= 1")
    log_x = log(X)
    estimates = [(-fd * log_x - log_gaps, fd, gap_sum)
                 for _, fd, log_gaps, gap_sum in grid]
    low, d_low, gap_sum = min(estimates)
    # exp(700) times 2**-62 is far past the cap, so the guard never
    # changes the outcome
    slack = 2.0 ** -62 * (exp(min(d_low * log_x, 700.0)) + gap_sum)
    margin = 1e-9 * (1 + ctx.prime_count) + (slack if slack <= 0.25 else inf)
    for (d, _, _, _), (estimate, _, _) in zip(grid, estimates):
        if estimate > low + margin:
            continue
        b = smooth_tail_bound(ctx, epsilon, d, X)
        if best is None or b < best[1]:
            best = (d, b)
    ctx._tail_memo[key] = best
    return best


def refine_cutoff(evaluate, target, x_start: int, x_cap: int):
    """Double the cutoff until a certified radius meets the target.

    evaluate(X) returns (value, radius) at cutoff X; the schedule is
    X = x_start, 2 x_start, ... clamped to x_cap.  Returns
    (value, X, met) for the first X whose radius is <= target, else for
    x_cap with met False: rigor is never traded for termination, so what
    a miss means (an error, an undecided point) is the caller's choice.
    """
    target = Fraction(target)
    if target <= 0:
        raise ValueError("target radius must be positive")
    if not 1 <= x_start <= x_cap:
        raise ValueError("need 1 <= x_start <= x_cap")
    X = x_start
    while True:
        value, radius = evaluate(X)
        if radius <= target:
            return value, X, True
        if X >= x_cap:
            return value, X, False
        X = min(2 * X, x_cap)


class SmoothSeries:
    """Sorted Q-smooth numbers <= X with exact prefix harmonic sums.

    harmonic_up_to(Y) returns sum over smooth t <= Y of 1/t exactly; the
    prefix sums share one denominator D (the lcm of all enumerated smooth
    numbers) so construction stays in integer arithmetic.  weights holds
    the integers D // t, aligned with values, for sums over the series.
    """

    def __init__(self, ctx: SmoothContext, X: int):
        self.ctx = ctx
        self.X = X
        self.values = smooth_up_to(ctx, X)
        denom = 1
        for p in ctx.primes:
            pk = p
            while pk * p <= X:
                pk *= p
            denom *= pk
        self._denom = denom
        self.weights = [denom // t for t in self.values]
        self._prefix = list(accumulate(self.weights))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def denominator(self) -> int:
        """Common denominator (lcm of the enumerated smooth numbers)."""
        return self._denom

    def harmonic_up_to(self, Y) -> Fraction:
        """Exact sum of 1/t over smooth t <= min(Y, X)."""
        if Y < 1:
            return Fraction(0)
        i = bisect.bisect_right(self.values, Y)
        if i == 0:
            return Fraction(0)
        return Fraction(self._prefix[i - 1], self._denom)

    def count_up_to(self, Y) -> int:
        return bisect.bisect_right(self.values, Y)
