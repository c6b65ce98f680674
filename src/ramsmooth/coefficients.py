"""Expansion coefficients of smooth-restricted arithmetic functions.

For F with transform F' and a smoothness bound V, the two classical
coefficient recipes agree on the restriction F_(V):

* Wintner: sum over smooth multiples d of ell of F'(d)/d, and
* Carmichael: the normalized Cesaro mean of F_(V) against c_ell, which
  for smooth ell collapses to
  totient_product * (1/phi(ell)) * sum over smooth t of F(t) c_ell(t) / t.

Both vanish off the smooth support.  Everything here is an exact rational
or an interval with a certified radius; truncation policy grows the
cutoff until a radius target is met rather than ever loosening a bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .arith import common_denominator, euler_phi, exact_dtype, magnitude, \
    omega, ramanujan_sum, ramanujan_sums
from .dyadic import pow_upper
from .functions import ArithmeticFunctionSpec, CertificateError, FiniteSupport, \
    GrowthCertificate, smooth_restrict
from .intervals import BoundedValue, interval_sum
from .orthogonality import pair_series_exact
from .smooth import SmoothContext, best_tail_params, euler_product_upper, \
    refine_cutoff, smooth_up_to

# Default cutoff X of the truncated coefficient sums: terms up to X are
# summed exactly, the smooth tail beyond X is bounded by Rankin's trick.
DEFAULT_CUTOFF = 10_000


class PeriodicityError(ValueError):
    """Claimed period fails the two-period audit."""


def wintner_restricted(spec: ArithmeticFunctionSpec, ctx: SmoothContext,
                       ell: int, X: int = DEFAULT_CUTOFF) -> BoundedValue:
    """Wintner coefficient of the V-smooth restriction at index ell.

    Exactly 0 off the smooth support, exact for finite-support transforms,
    otherwise the certified multiples_sum at the cutoff X under the
    transform's growth certificate.
    """
    if ell < 1:
        raise ValueError("coefficient index must be >= 1")
    if not ctx.is_smooth(ell):
        return BoundedValue.exact(0)
    support = spec.transform_support
    if support is not None:
        if ell > support:
            return BoundedValue.exact(0)
        return BoundedValue.exact(
            spec.smooth_sum(ctx, support, False, lambda ts: ts % ell == 0))
    cert = _transform_growth(spec)
    return multiples_sum(spec, ctx, ell, X, cert.bound, cert.exponent)


def _transform_growth(spec: ArithmeticFunctionSpec) -> GrowthCertificate:
    cert = spec.require_transform_certificate()
    if not isinstance(cert, GrowthCertificate):
        raise CertificateError(f"{spec.name}: unsupported certificate {cert!r}")
    return cert


def multiples_sum(spec: ArithmeticFunctionSpec, ctx: SmoothContext, ell: int,
                  X: int, bound: Fraction, epsilon: Fraction) -> BoundedValue:
    """Certified sum over smooth d = ell*K of F'(d)/d, for smooth ell,
    given |F'(d)| <= bound * d**epsilon on smooth d.

    The partial sum runs over the smooth d <= X; the skipped d have
    K > X // ell, and bound * ell**(epsilon-1) times the Rankin tail of
    the smooth K beyond X // ell, at the shift best there, covers them
    (the full smooth series in place of the tail when X < ell).
    """
    inner = X // ell
    if inner >= 1:
        partial = spec.smooth_sum(ctx, X, False, lambda ts: ts % ell == 0)
        _, tail = best_tail_params(ctx, epsilon, inner)
    else:
        partial = Fraction(0)
        tail = euler_product_upper(ctx, epsilon - 1)
    return BoundedValue(partial, bound * pow_upper(ell, epsilon - 1) * tail)


def rankin_index_tail(ctx: SmoothContext, L: int, weight_bound,
                      bound: Fraction, epsilon: Fraction) -> Fraction:
    """Bound on sum over smooth ell > L of w(ell) * |Win_ell| for weights
    w(ell) <= weight_bound, when |Win_ell| <= bound * ell**(epsilon-1) *
    (the full smooth series with exponent epsilon - 1): one Rankin tail
    at L."""
    _, tail = best_tail_params(ctx, epsilon, L)
    return weight_bound * bound * euler_product_upper(ctx, epsilon - 1) * tail


def wintner_to_target(spec: ArithmeticFunctionSpec, ctx: SmoothContext,
                      ell: int, target_radius: Fraction = Fraction(1, 10 ** 6),
                      x_start: int = 1_000, x_cap: int = 10 ** 12,
                      ) -> BoundedValue:
    """Double the cutoff until the certified radius meets the target.

    Fails loudly at the cap; rigor is never traded for termination.
    """
    def evaluate(X):
        got = wintner_restricted(spec, ctx, ell, X)
        return got, got.radius

    got, _, met = refine_cutoff(evaluate, target_radius, x_start, x_cap)
    if not met:
        raise ArithmeticError(
            f"{spec.name}: wintner radius target {Fraction(target_radius)} "
            f"unreachable below cutoff cap {x_cap}")
    return got


def carmichael_formula(spec: ArithmeticFunctionSpec, ctx: SmoothContext,
                       ell: int, X: int = DEFAULT_CUTOFF) -> BoundedValue:
    """Product-formula Carmichael coefficient for smooth ell.

    totient_product * (1/phi(ell)) * sum over smooth t of F(t) c_ell(t)/t,
    evaluated exactly when F is a catalog Ramanujan sum (Euler products)
    or has finite direct support, else truncated at X with radius
    totient_product * ell * C * tail / phi(ell) from |c_ell(t)| <= ell.
    """
    if ell < 1:
        raise ValueError("coefficient index must be >= 1")
    if not ctx.is_smooth(ell):
        raise ValueError(
            f"the product formula applies to smooth indices only (ell={ell}); "
            "off-support coefficients vanish on the Wintner side")
    phi = euler_phi(ell)
    hint = getattr(spec, "ramanujan_hint", None)
    if hint is not None:
        series = pair_series_exact(ctx, hint, ell)
        return BoundedValue.exact(ctx.totient_product * series / phi)

    def c_ell(ts):  # one ramanujan_sum per distinct gcd(ell, t)
        return ramanujan_sums(ell, ts.tolist())

    direct = spec.direct_certificate
    if isinstance(direct, FiniteSupport):
        spec.audit()
        total = spec.smooth_sum(ctx, direct.bound, True, c_ell)
        return BoundedValue.exact(ctx.totient_product * total / phi)
    cert = spec.require_direct_certificate()
    _, tail = best_tail_params(ctx, cert.exponent, X)
    partial = spec.smooth_sum(ctx, X, True, c_ell)
    center = ctx.totient_product * partial / phi
    radius = ctx.totient_product * ell * cert.bound * tail / phi
    return BoundedValue(center, radius)


def carmichael_empirical(spec: ArithmeticFunctionSpec, ell: int,
                         xs: Sequence[int]) -> list[tuple[int, Fraction]]:
    """Finite averages (1/phi(ell)) (1/x) sum_{n<=x} F(n) c_ell(n).

    Diagnostic output only: no convergence is claimed for general F.
    """
    if not xs:
        raise ValueError("need at least one averaging length")
    xs = sorted(set(int(x) for x in xs))
    if xs[0] < 1:
        raise ValueError("averaging lengths must be >= 1")
    phi = euler_phi(ell)
    out = []
    acc = Fraction(0)
    n = 0
    for x in xs:
        while n < x:
            n += 1
            acc += spec.evaluate(n) * ramanujan_sum(ell, n)
        out.append((x, acc / (phi * x)))
    return out


def carmichael_periodic_exact(values: Sequence[Fraction], period: int,
                              ell: int) -> Fraction:
    """Exact Carmichael coefficient of a periodic function.

    values must cover at least two claimed periods [F(1), ..., F(W)],
    W >= 2*period; the claim is audited before the Cesaro limit is
    collapsed to the mean over lcm(period, ell) consecutive arguments.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    if len(values) < 2 * period:
        raise PeriodicityError(
            f"need at least two periods of values ({2 * period}), got {len(values)}")
    nums, den = common_denominator(values)
    bad = np.flatnonzero(nums[:-period] != nums[period:])
    if len(bad):
        raise PeriodicityError(
            f"claimed period {period} fails at argument {bad[0] + 1}: "
            f"{values[bad[0]]} != {values[bad[0] + period]}")
    return carmichael_periodic_mean(nums[:period], den, ell)


def carmichael_periodic_mean(nums: np.ndarray, den: int, ell: int) -> Fraction:
    """Carmichael coefficient of F(a) = nums[(a - 1) % P] / den, P = len(nums):
    its mean against c_ell over lcm(P, ell) consecutive a (P not audited)."""
    L = lcm(len(nums), ell)
    c = ramanujan_sums(ell, range(1, ell + 1))
    dtype = exact_dtype(magnitude(nums) * magnitude(c) * L)
    total = np.dot(np.resize(nums.astype(dtype), L),
                   np.resize(c.astype(dtype), L))
    return Fraction(int(total), den * euler_phi(ell) * L)


@dataclass(frozen=True)
class ExpansionPartial:
    """Partial expansion sum_{smooth ell <= L} Win_ell * c_ell(a) with the
    exact restriction value for residual reporting."""

    a: int
    cutoff: int
    partial: BoundedValue
    index_tail: Fraction
    reference: Fraction

    @property
    def residual_bound(self) -> Fraction:
        """Certified bound on |partial.center - reference|."""
        return self.partial.radius + self.index_tail

    @property
    def consistent(self) -> bool:
        return abs(self.partial.center - self.reference) <= self.residual_bound


def expansion_partial(spec: ArithmeticFunctionSpec, ctx: SmoothContext,
                      a: int, L: int,
                      X: int = DEFAULT_CUTOFF) -> ExpansionPartial:
    """Pointwise expansion of the restriction over Ramanujan sums.

    Sums Win_ell * c_ell(a) over smooth ell <= L, each Win_ell truncated
    at X, with interval propagation; index_tail certifies the mass of the
    skipped ell > L.  Exact (all radii and tails zero) once L covers a
    finite transform support.
    """
    if a < 1:
        raise ValueError("expansion point must be >= 1")
    if L < 1:
        raise ValueError("coefficient cutoff must be >= 1")
    pieces = []
    for ell in smooth_up_to(ctx, L):
        win = wintner_restricted(spec, ctx, ell, X)
        pieces.append(win.scale(ramanujan_sum(ell, a)))
    partial = interval_sum(pieces)
    index_tail = _index_tail(spec, ctx, L, lambda ell: min(a, ell), a)
    reference = smooth_restrict(spec, ctx, a)
    return ExpansionPartial(a=a, cutoff=L, partial=partial,
                            index_tail=index_tail, reference=reference)


def _index_tail(spec: ArithmeticFunctionSpec, ctx: SmoothContext, L: int,
                weight, weight_bound) -> Fraction:
    """Bound on sum over smooth ell > L of weight(ell) * |Win_ell|, with
    weight(ell) <= weight_bound.

    A finite transform support makes it the exact finite sum over the
    smooth ell in (L, support]; otherwise |Win_ell| <= C * ell**(eps-1) *
    (full smooth series) under the growth certificate, and the skipped
    mass is the rankin_index_tail at L.
    """
    support = spec.transform_support
    if support is not None:
        return sum((weight(ell) * abs(wintner_restricted(spec, ctx, ell).center)
                    for ell in smooth_up_to(ctx, support) if ell > L),
                   Fraction(0))
    cert = _transform_growth(spec)
    return rankin_index_tail(ctx, L, weight_bound, cert.bound, cert.exponent)


@dataclass(frozen=True)
class CoefficientRecord:
    """Both coefficient computations at one index, plus diagnostics."""

    ell: int
    wintner: BoundedValue
    carmichael: BoundedValue
    method: str
    empirical: tuple[tuple[int, Fraction], ...] = field(default_factory=tuple)

    @property
    def consistent(self) -> bool:
        """The two intervals intersect (zero-width ones must coincide)."""
        return self.wintner.overlaps(self.carmichael)


def coefficient_record(spec: ArithmeticFunctionSpec, ctx: SmoothContext,
                       ell: int, X: int = DEFAULT_CUTOFF,
                       empirical_xs: Sequence[int] = ()) -> CoefficientRecord:
    """Build the record at cutoff X; off the smooth support both sides are
    exactly 0.  Each side takes its tail exponent from its own certificate."""
    if not ctx.is_smooth(ell):
        zero = BoundedValue.exact(0)
        return CoefficientRecord(ell, zero, zero, "off-smooth-support")
    win = wintner_restricted(spec, ctx, ell, X)
    car = carmichael_formula(spec, ctx, ell, X)
    method = "exact" if win.is_exact and car.is_exact else "truncated"
    empirical = tuple(carmichael_empirical(spec, ell, empirical_xs)) \
        if empirical_xs else ()
    return CoefficientRecord(ell, win, car, method, empirical)


def weighted_decay_check(records: Sequence[CoefficientRecord],
                         spec: ArithmeticFunctionSpec, ctx: SmoothContext,
                         L: int) -> tuple[Fraction, Fraction]:
    """(partial, tail_bound) for sum over ell of 2**omega(ell) |coefficient|.

    partial uses the upper interval ends of all records with ell <= L;
    the tail is the index tail of the skipped smooth indices under the
    weight 2**omega(ell) <= 2**prime_count (exactly 0 once L covers a
    finite transform support).  Finiteness of
    partial + tail is the decay guarantee that pins the expansion down
    uniquely.
    """
    partial = Fraction(0)
    for rec in records:
        if rec.ell <= L:
            partial += 2 ** omega(rec.ell) * rec.wintner.abs_upper
    tail = _index_tail(spec, ctx, L, lambda ell: 2 ** omega(ell),
                       2 ** ctx.prime_count)
    return partial, tail


@dataclass(frozen=True)
class CandidateComparison:
    """Outcome of checking a claimed coefficient system against records."""

    flagged: tuple[int, ...]
    checked: tuple[int, ...]

    @property
    def refuted(self) -> bool:
        return bool(self.flagged)


def compare_candidate(candidate: dict[int, Fraction],
                      records: Sequence[CoefficientRecord],
                      ctx: SmoothContext) -> CandidateComparison:
    """Flag every index where the candidate leaves the record's interval.

    A nonempty flag set certifies the candidate is not the coefficient
    system of the same restriction; an empty one is consistency, never a
    proof.  Candidate values at non-smooth indices are compared against
    the exact zero.
    """
    by_ell = {rec.ell: rec for rec in records}
    flagged = []
    checked = []
    for ell in sorted(candidate):
        value = Fraction(candidate[ell])
        rec = by_ell.get(ell)
        if rec is None:
            if ctx.is_smooth(ell):
                continue
            rec_interval = BoundedValue.exact(0)
        else:
            rec_interval = rec.wintner
        checked.append(ell)
        if rec_interval.excludes(value):
            flagged.append(ell)
    return CandidateComparison(tuple(flagged), tuple(checked))
