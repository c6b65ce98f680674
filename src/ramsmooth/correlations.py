"""Shifted convolution sums C(N, a) = sum_{n<=N} f(n) g(n+a) as a function
of the shift a, for g of range Q <= N.

With f and g shift-free by construction (fairness is a property of the
formula shape, so it is enforced structurally), C(N, .) is periodic mod
lcm(2..Q) and decomposes exactly through the finite expansion of g.  The
module computes the correlation table over two periods, its transform in
the shift variable, the coefficient identities, and both the certified
(smooth side) and empirical (full-series) Wintner sums of the transform.
As a function of the shift, C(N, .) is an ArithmeticFunctionSpec
(CorrelationTable.function), so its smooth restriction and switch
identity are those of the function layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm, prod

import numpy as np

from .arith import common_denominator, dirichlet_sieve, divisors, euler_phi, \
    exact_dtype, exact_sum, factorize, magnitude, mobius, mobius_sieve, \
    ramanujan_sums
from .coefficients import carmichael_periodic_mean, multiples_sum
from .functions import ArithmeticFunctionSpec, RangeQFunction, build_range_q, \
    spec_from_table
from .intervals import BoundedValue
from .smooth import SmoothContext

_FIXED_POINT_BITS = 48

# Largest period lcm(1..Q) a table may have: admits Q = 12 (27720) and
# rejects Q = 13 (360360), whose two-period window of Fractions and
# per-shift identity checks no longer fit a desk-scale run.
MAX_PERIOD = 100_000


def table_period(Q: int) -> int:
    """lcm(1..Q), the period of a table of range Q.

    Raises ValueError for Q < 1 and for a period above MAX_PERIOD; the
    running lcm stops at the first factor that passes the budget, so an
    oversized Q is rejected after at most a dozen steps.
    """
    if Q < 1:
        raise ValueError("range bound must be >= 1")
    period = 1
    for k in range(2, Q + 1):
        period = lcm(period, k)
        if period > MAX_PERIOD:
            raise ValueError(f"period lcm(1..{Q}) exceeds the budget "
                             f"of {MAX_PERIOD}")
    return period


# Largest N * 2 * period of a table built for the command line: building
# reads f on [1, N] (one evaluate per n when f has no array form) and
# adds one row of 2 * period products per nonzero class of f mod period.
# Admits Q = 12 (period 27720) up to N = 36 and period 60 up to
# N = 16666; a table of mu at period 1 and N = 10**6, the largest it
# admits at any period, is built in under 0.1 s (2-CPU Xeon VM).
MAX_TABLE_WORK = 2_000_000


def table_budget(Q: int, N: int) -> int:
    """table_period(Q), after checking that a table of length N and that
    period fits MAX_TABLE_WORK; ValueError when N * 2 * period does not."""
    period = table_period(Q)
    if N * 2 * period > MAX_TABLE_WORK:
        raise ValueError(f"length {N} times twice the period {period} "
                         f"exceeds the table budget of {MAX_TABLE_WORK}")
    return period


def _fold(nums: np.ndarray, P: int) -> np.ndarray:
    """[sum of nums[n - 1] over the n = i + 1 (mod P) for i < P], in
    int64 when the number of terms per class times max|nums| fits."""
    k = -(-len(nums) // P)
    padded = np.zeros(k * P, dtype=exact_dtype(magnitude(nums) * k))
    padded[:len(nums)] = nums
    return padded.reshape(k, P).sum(axis=0)


class BasicHypothesisError(ValueError):
    """The range bound exceeds the correlation length."""


def correlation(f_spec: ArithmeticFunctionSpec, g: RangeQFunction,
                N: int, a: int) -> Fraction:
    """Exact direct sum C(N, a) = sum_{n<=N} f(n) g(n+a)."""
    if a < 1:
        raise ValueError("shift must be >= 1")
    if g.Q > N:
        raise BasicHypothesisError(f"range {g.Q} exceeds length {N}")
    return sum((f_spec.evaluate(n) * g(n + a) for n in range(1, N + 1)),
               Fraction(0))


def seeded_instance(rng: random.Random, tag: int, *, max_N: int = 100,
                    q_choices=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
                    ) -> tuple[ArithmeticFunctionSpec, RangeQFunction, int]:
    """Seeded instance (f, g, N): a rational f table on [1, N] and a
    range-Q g from rational g' on [1, Q], Q drawn from q_choices and N
    from [max(Q, 8), max_N].  The draws depend only on the rng state."""
    Q = rng.choice(q_choices)
    N = rng.randint(max(Q, 8), max_N)
    dens = (1, 2, 3, 4, 6)
    f_entries = {n: Fraction(rng.randint(-9, 9), rng.choice(dens))
                 for n in range(1, N + 1)}
    f_spec = spec_from_table(f"seeded-f-{tag}", "direct", f_entries)
    gprime = {d: Fraction(rng.randint(-6, 6), rng.choice(dens))
              for d in range(1, Q + 1)}
    return f_spec, build_range_q(Q, gprime), N


class CorrelationTable:
    """Exact values of C(N, .) over two periods, with its shift transform.

    The table is built once (single-threaded); everything afterwards is a
    pure read, so verification passes can fan out freely.
    """

    def __init__(self, f_spec: ArithmeticFunctionSpec, g: RangeQFunction,
                 N: int):
        if g.Q > N:
            raise BasicHypothesisError(f"range {g.Q} exceeds length {N}")
        self.f_spec = f_spec
        self.g = g
        self.N = N
        self.period = table_period(g.Q)
        f_num, self._f_den = f_spec.direct_window(N)
        self._f_fold = _fold(f_num, self.period)
        self._num, self._den = self._build_window(magnitude(f_num))
        self._ghat_num, self._ghat_den = common_denominator(g.ghat)
        self._residue_sums: dict[int, list[int]] = {}
        self._batch_memo: np.ndarray | None = None

    # -- construction ------------------------------------------------------

    def _build_window(self, mf: int) -> tuple[np.ndarray, int]:
        """The integer window from the folded f, with mf = max |f(n)| f_den."""
        g_num, g_den = self.g.period_table(self.period)
        P = self.period
        # C(a) = num[a - 1] / den over a in [1, 2P] by integer dot products,
        # one per nonzero class of f mod P, int64 only when magnitudes
        # provably fit, else exact Python ints.
        mg = magnitude(g_num)
        dtype = exact_dtype(max(mf, magnitude(self._f_fold), mg,
                                mf * mg * self.N))
        g_num = g_num.astype(dtype, copy=False)
        acc = np.zeros(2 * P, dtype=dtype)
        idx = np.arange(2 * P)
        for i in np.flatnonzero(self._f_fold).tolist():
            acc += int(self._f_fold[i]) * g_num[(i + 1 + idx) % P]
        bad = np.flatnonzero(acc[:P] != acc[P:])
        if len(bad):
            raise ArithmeticError(
                f"correlation failed its period audit at shift {bad[0] + 1}")
        # den becomes the lcm of the reduced denominators of the values;
        # common divides every entry, so it can pass int64 only on a
        # window of zeros, which it leaves as it is
        common = gcd(self._f_den * g_den, *acc[:P].tolist())
        return (acc // common if acc.any() else acc,
                self._f_den * g_den // common)

    # -- exact accessors -----------------------------------------------------

    @cached_property
    def values(self) -> list[Fraction]:
        """[C(N, 1), ..., C(N, 2 period)], built on first read; the
        identities read the integer window instead."""
        return [Fraction(v, self._den) for v in self._num.tolist()]

    def period_window(self) -> tuple[np.ndarray, int]:
        """(nums, den) with C(N, a) = nums[a - 1] / den for a in
        [1, period]: one period of the integer window."""
        return self._num[:self.period], self._den

    def value(self, a: int) -> Fraction:
        """C(N, a) for any a >= 1, via periodicity."""
        if a < 1:
            raise ValueError("shift must be >= 1")
        return Fraction(int(self._num[(a - 1) % self.period]), self._den)

    @cached_property
    def function(self) -> ArithmeticFunctionSpec:
        """C(N, .) as an arithmetic function of the shift, its values read
        by periodicity from the window: its transform C', smooth
        restriction (smooth_restrict), switch identity (mobius_switch_rhs)
        and smooth sums come from the function layer."""
        return ArithmeticFunctionSpec(f"C(N={self.N}) of {self.f_spec.name}",
                                      values=self.value)

    def max_abs(self) -> Fraction:
        return Fraction(magnitude(self._num[:self.period]), self._den)

    def transform_value(self, d: int) -> Fraction:
        """Shift-variable transform C'(N, d) = sum_{t|d} C(N, t) mu(d/t)."""
        return self.function.transform_value(d)

    def transform_window(self, L: int) -> list[Fraction]:
        """[C'(1), ..., C'(L)] by sieving; cheaper than per-d divisors."""
        nums, den = self._transform_batch(L)
        return [Fraction(v, den) for v in nums[1:].tolist()]

    # -- coefficient identities ---------------------------------------------

    def _residue_table(self, q: int) -> list[int]:
        """[f_den * sum_{n<=N} f(n) c_q(n+r) for r in 0..q-1] via class
        sums, for q | period (every q <= Q)."""
        if self.period % q:
            raise ValueError(f"modulus {q} does not divide the period "
                             f"{self.period}")
        if q not in self._residue_sums:
            f = self._f_fold.tolist()
            by_class = [sum(f[i::q]) for i in range(q)]  # n = i + 1 (mod q)
            c_q = ramanujan_sums(q, range(2 * q)).tolist()
            self._residue_sums[q] = [
                sum(S * c_q[i + 1 + r] for i, S in enumerate(by_class))
                for r in range(q)]
        return self._residue_sums[q]

    def inner_sum(self, q: int, a: int) -> Fraction:
        """sum_{n<=N} f(n) c_q(n+a); periodic in a mod q."""
        return Fraction(self._residue_table(q)[a % q], self._f_den)

    def decomposition_rhs(self, a: int) -> Fraction:
        """sum_{q<=Q} ghat(q) * sum_{n<=N} f(n) c_q(n+a).

        Must equal value(a) exactly for every shift: this is the finite
        expansion of g pushed through the correlation.
        """
        if a < 1:
            raise ValueError("shift must be >= 1")
        total = sum(gh * self._residue_table(q)[a % q]
                    for q, gh in enumerate(self._ghat_num.tolist(), 1) if gh)
        return Fraction(total, self._ghat_den * self._f_den)

    def decomposition_deviations(self) -> list[tuple[int, Fraction]]:
        """(a, decomposition_rhs(a) - value(a)) for each shift a in
        [1, period] where the two differ.

        One integer pass over the residue tables gives every right-hand
        side, rhs[a - 1] = sum_q ghat_num(q) R_q[a mod q] over
        ghat_den f_den, compared with the window on cross-multiplied
        integers; a Fraction is built only for a deviating shift.  Each
        step runs in int64 only when its bound on these inputs, the
        scalar factors included, fits.
        """
        terms = [(gh, self._residue_table(q))
                 for q, gh in enumerate(self._ghat_num.tolist(), 1) if gh]
        dtype = exact_dtype(max(sum(abs(gh) * max(map(abs, R))
                                    for gh, R in terms),
                                magnitude(self._ghat_num)))
        shifts = np.arange(1, self.period + 1)
        rhs = np.zeros(self.period, dtype=dtype)
        for gh, R in terms:
            rhs += gh * np.array(R, dtype=dtype)[shifts % len(R)]
        rden = self._ghat_den * self._f_den
        lhs = self._num[:self.period]
        dtype = exact_dtype(max(max(magnitude(rhs), 1) * self._den,
                                max(magnitude(lhs), 1) * rden))
        bad = np.flatnonzero(rhs.astype(dtype) * self._den !=
                             lhs.astype(dtype) * rden)
        return [(a + 1, Fraction(int(rhs[a]), rden) - self.value(a + 1))
                for a in bad.tolist()]

    def coefficient(self, ell: int) -> Fraction:
        """(ghat(ell)/phi(ell)) * sum_{n<=N} f(n) c_ell(n): the shared
        Carmichael-and-Wintner coefficient of C(N, .); 0 beyond the range."""
        if ell < 1:
            raise ValueError("coefficient index must be >= 1")
        gh = self.g.coefficient(ell)
        if gh == 0:
            return Fraction(0)
        return gh * self.inner_sum(ell, 0) / euler_phi(ell)

    def carmichael_mean(self, ell: int) -> Fraction:
        """Exact periodic Carmichael coefficient of the table values."""
        return carmichael_periodic_mean(self._num[:self.period], self._den, ell)

    def transform_side_coefficient(self, ell: int) -> Fraction:
        """Exact transform-side coefficient through C'.

        Periodicity closes the transform-side sum at L = lcm(period, ell):
        (1/(phi(ell) L)) sum_{d<=L} C'(d) sum_{k<=L/d} c_ell(k d)
        reproduces the Carmichael mean identically, because every divisor
        of a <= L already lies in [1, L].  This is the certified (radius
        zero) reading of the transform-side sum; the literal series
        ordered by d converges only conditionally (see
        full_series_estimate).
        """
        if ell < 1:
            raise ValueError("coefficient index must be >= 1")
        L = lcm(self.period, ell)
        cprime, den = self._transform_batch(L)
        # The weight w(d) = sum_{k <= K} c_ell(k d), K = L // d, depends on d
        # only through g = gcd(d, ell) and K: gcd(k d, ell) = g gcd(k, ell/g),
        # so c_ell(k d) = c_ell(g k), which has period ell/g in k.  Hence
        # w(d) = (K // (ell/g)) P_g[ell/g] + P_g[K mod ell/g] with P_g the
        # prefix sums of k -> c_ell(g k), stored from start[g] in one array;
        # |w(d)| <= K phi(ell) <= L ell.
        c_ell = ramanujan_sums(ell, range(ell)).tolist()
        prefix, start = [], np.zeros(ell + 1, dtype=np.int64)
        for gd in divisors(ell):
            start[gd] = len(prefix)
            prefix += accumulate((c_ell[gd * k % ell]
                                  for k in range(1, ell // gd + 1)), initial=0)
        dtype = exact_dtype(L * ell)
        prefix = np.array(prefix, dtype=dtype)
        d = np.arange(1, L + 1, dtype=np.int64)
        g = np.gcd(d, ell)
        cycle, K, at = ell // g, L // d, start[g]
        w = (K // cycle).astype(dtype, copy=False) * prefix[at + cycle] \
            + prefix[at + K % cycle]
        cprime = cprime[1:]
        dtype = exact_dtype(magnitude(cprime) * magnitude(w) * L)
        total = int(np.dot(cprime.astype(dtype, copy=False),
                           w.astype(dtype, copy=False)))
        return Fraction(total, den * euler_phi(ell) * L)

    # -- smooth Wintner sums ----------------------------------------------

    def smooth_wintner(self, ctx: SmoothContext, ell: int,
                       X: int) -> BoundedValue:
        """Certified sum over smooth multiples d of ell of C'(N, d)/d.

        Exactly 0 (term-free) when ell is not smooth.  Otherwise the
        coefficients layer's multiples_sum on self.function, under
        |C'(N, d)| <= 2**omega(d) * max|C| <= 2**prime_count * max|C| on
        smooth d.
        """
        if ell < 1:
            raise ValueError("coefficient index must be >= 1")
        if not ctx.is_smooth(ell):
            return BoundedValue.exact(0)
        return multiples_sum(self.function, ctx, ell, X,
                             2 ** ctx.prime_count * self.max_abs(),
                             Fraction(0))

    # -- the conditionally convergent full series --------------------------------

    def full_series_estimate(self, ell: int, X: int) -> "SeriesEstimate":
        """Empirical estimate of sum over all multiples d of ell of C'(N,d)/d.

        The terms do not decay absolutely, so no rigorous tail radius
        exists; the series converges in the ordered sense only.  The
        estimate (SeriesEstimate.from_terms) averages the exact partial
        sums over the cutoffs in [X // 2, X], with their observed
        oscillation as its radius: not a certified bound, and flagged
        accordingly.

        Only the terms C'(ell k), k <= X // ell, are sieved, through the
        identity C'(ell k) = sum over m t = k, gcd(m, ell) = 1 of
        mu(m) H_ell(t), H_ell(t) = sum over e | rad(ell) of
        mu(e) C((ell / e) t): one convolution of length X // ell
        (_multiples_transform) instead of a sieve of all of [1, X].
        """
        if ell < 1:
            raise ValueError("coefficient index must be >= 1")
        if X < 4 * ell:
            raise ValueError("window too small for an estimate")
        return SeriesEstimate.from_terms(
            ell, X, self._multiples_transform(ell, X // ell)[1:], self._den)

    def _multiples_twist(self, ell: int) -> np.ndarray:
        """[den * H_ell(t) for t in 1..period], where
        H_ell(t) = sum over e | rad(ell) of mu(e) C((ell / e) t).

        H_ell has the table's period.  |H_ell| <= 2**omega(ell) max|C|,
        so the sum runs in int64 only when that bound on this window
        fits, else on exact Python ints.
        """
        P = self.period
        primes = [p for p, _ in factorize(ell).factors]
        window = self._num[:P]
        dtype = exact_dtype(2 ** len(primes) * magnitude(window))
        window = window.astype(dtype, copy=False)
        t = np.arange(1, P + 1, dtype=np.int64)
        H = np.zeros(P, dtype=dtype)
        for e in divisors(prod(primes)):
            H += mobius(e) * window[((ell // e) % P * t - 1) % P]
        return H

    def _multiples_transform(self, ell: int, K: int) -> np.ndarray:
        """den * C'(ell k) for 0 <= k <= K as an integer array, C'(0) = 0.

        A squarefree m | ell k splits uniquely as m = e m'' with
        e | rad(ell) and gcd(m'', ell) = 1, so m'' | k and
        ell k / m = (ell / e)(k / m''); hence
        C'(ell k) = sum over m t = k, gcd(m, ell) = 1 of mu(m) H_ell(t)
        (see _multiples_twist), one Dirichlet sieve of length K.
        """
        # den * H_ell(n) for 0 <= n <= K, extended with its period
        ext = np.resize(np.roll(self._multiples_twist(ell), 1), K + 1)
        mu = mobius_sieve(K)
        for p, _ in factorize(ell).factors:
            mu[p::p] = 0
        return dirichlet_sieve(ext, mu, K)

    def _transform_batch(self, X: int) -> tuple[np.ndarray, int]:
        """(den * C'(0..X) as an integer array, den), C'(0) = 0, sieved from
        the window; the longest sieve so far is kept and sliced.  Read by
        transform_window and transform_side_coefficient; the full series
        estimate sieves only the multiples of ell instead."""
        if self._batch_memo is None or len(self._batch_memo) <= X:
            # den * C(n) for 0 <= n <= X, C extended with its period
            ext = np.resize(np.roll(self._num[:self.period], 1), X + 1)
            self._batch_memo = dirichlet_sieve(ext, mobius_sieve(X), X)
        return self._batch_memo[:X + 1], self._den


@dataclass(frozen=True)
class SeriesEstimate:
    """Windowed partial-sum estimate of a conditionally convergent series.

    value.radius is empirical (observed oscillation), never certified."""

    ell: int
    cutoff: int
    value: BoundedValue
    term_count: int
    certified: bool = False

    @classmethod
    def from_terms(cls, ell: int, X: int, vals: np.ndarray,
                   den: int) -> "SeriesEstimate":
        """The estimate from vals[k - 1] = den * C'(ell k), k <= X // ell.

        Partial sums are computed exactly in fixed-point integer
        arithmetic; the center is their mean over the cutoffs in
        [X // 2, X] and the radius the maximum in-window deviation plus
        the fixed-point slack.
        """
        ds = np.arange(ell, X + 1, ell, dtype=np.int64)
        max_c = int(np.abs(vals).max()) if len(vals) else 1
        # Pick the largest fixed-point scale whose per-term products and
        # harmonic-sized cumulative sums provably fit in int64.
        bits = _FIXED_POINT_BITS
        # Cumulative |sum of terms| <= max_c * scale * H(X) with the
        # harmonic sum H(X) <= bit_length(X), so a few extra bits suffice.
        harmonic_bits = max(X.bit_length(), 2).bit_length() + 1
        while bits > 0 and (max_c << bits).bit_length() + harmonic_bits >= 62:
            bits -= 1
        if bits < 16:
            raise OverflowError(
                "transform values too large for a fixed-point estimate")
        scale = 1 << bits
        terms = (vals * scale) // ds
        partials = np.cumsum(terms)
        # X >= 4 ell puts at least two multiples of ell in the window
        in_window = partials[ds >= X // 2]
        count = len(in_window)
        # the window sum may pass int64
        total = exact_sum(in_window)
        mean = Fraction(total, count * scale * den)
        lo = Fraction(int(in_window.min()), scale * den)
        hi = Fraction(int(in_window.max()), scale * den)
        dev = max(hi - mean, mean - lo)
        # floor rounding loses < 1/scale per term; doubled so it covers
        # both the shifted mean and the shifted deviations
        slack = Fraction(2 * len(terms), scale * den)
        return cls(ell=ell, cutoff=X, value=BoundedValue(mean, dev + slack),
                   term_count=len(terms))


# -- identity records ---------------------------------------------------------


@dataclass(frozen=True)
class TailSplitRecord:
    """The coefficient identity split along the smooth support at one index.

    smooth_side + nonsmooth_side = formula; the smooth side carries a
    certified radius, the nonsmooth side only an empirical one (it is the
    conditionally convergent remainder).  For ell outside the smooth set
    the smooth side is exactly zero and the identity reduces to
    nonsmooth = formula.
    """

    ell: int
    smooth_side: BoundedValue
    formula: Fraction
    nonsmooth_estimate: SeriesEstimate | None

    @property
    def lhs(self) -> BoundedValue:
        return self.smooth_side

    @property
    def rhs(self) -> BoundedValue:
        formula = BoundedValue.exact(self.formula)
        if self.nonsmooth_estimate is None:
            return formula
        return formula - self.nonsmooth_estimate.value

    @property
    def consistent(self) -> bool:
        return self.lhs.overlaps(self.rhs)


def tail_split_identity(table: CorrelationTable, ctx: SmoothContext, ell: int,
                        X: int, estimate_cutoff: int | None = None,
                        ) -> TailSplitRecord:
    """Check coefficient = smooth Wintner part + nonsmooth remainder.

    The smooth part is certified at cutoff X.  The nonsmooth remainder is
    estimated as (full-series estimate) - (smooth part) when ell is
    smooth, or the full series itself when it is not (every multiple of a
    non-smooth ell is non-smooth).
    """
    smooth_side = table.smooth_wintner(ctx, ell, X)
    formula = table.coefficient(ell)
    estimate = None
    if estimate_cutoff is not None:
        full = table.full_series_estimate(ell, estimate_cutoff)
        if ctx.is_smooth(ell):
            estimate = replace(full, value=full.value - smooth_side)
        else:
            estimate = full
    return TailSplitRecord(ell=ell, smooth_side=smooth_side, formula=formula,
                           nonsmooth_estimate=estimate)
