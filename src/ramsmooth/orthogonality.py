"""Orthogonality of Ramanujan sums twisted by the smooth-harmonic weight.

The normalized series (1 / sum_{smooth t} 1/t) * sum_{smooth t} c_q(t) c_l(t) / t
collapses to phi(l) on the diagonal q = l and to 0 off it.  Two genuinely
different evaluators guard against transcription errors:

* an exact finite double divisor sum over (q', l') | (q, l), and
* the series itself, truncated with a certified Rankin tail radius, or
  resummed exactly through its Euler-product closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith import divisors, euler_phi, mobius, ramanujan_sum
from .intervals import BoundedValue
from .smooth import SmoothContext, SmoothSeries, TailParams, best_tail_params, \
    refine_cutoff, smooth_tail_bound


def orthogonality_exact(q: int, ell: int) -> Fraction:
    """Exact finite evaluator: sum over q'|q, l'|l of
    mu(q/q') mu(l/l') gcd(l', q').

    Defined for all pairs; equals phi(ell) when q = ell and 0 otherwise.
    """
    if q < 1 or ell < 1:
        raise ValueError("orthogonality_exact needs q, ell >= 1")
    ell_terms = [(lp, ml) for lp in divisors(ell) if (ml := mobius(ell // lp))]
    total = 0
    for qp in divisors(q):
        mq = mobius(q // qp)
        if mq:
            total += mq * sum(ml * gcd(lp, qp) for lp, ml in ell_terms)
    return Fraction(total)


def _divisor_pairs(ctx: SmoothContext, q: int, ell: int):
    """(g mu(q/g) h mu(ell/h), lcm(g, h)) over smooth g | q, h | ell with
    both Mobius factors nonzero: for Q-smooth t, c_q(t) c_ell(t) is the
    sum of the first entries of the pairs whose lcm divides t."""
    for g in divisors(q):
        mg = mobius(q // g) if ctx.is_smooth(g) else 0
        if mg == 0:
            continue
        for h in divisors(ell):
            mh = mobius(ell // h) if ctx.is_smooth(h) else 0
            if mh:
                yield g * mg * h * mh, g * h // gcd(g, h)


def pair_series_exact(ctx: SmoothContext, q: int, ell: int) -> Fraction:
    """Exact value of the full series sum over Q-smooth t of c_q(t) c_l(t) / t.

    Expanding both Ramanujan sums over divisors turns the series into a
    finite combination of smooth harmonic series over multiples, each an
    exact Euler product: only smooth divisor pairs (g, h) can divide a
    smooth t, and sum over smooth t with lcm(g,h) | t of 1/t equals
    smooth_harmonic / lcm(g, h).
    """
    total = sum((Fraction(c, l) for c, l in _divisor_pairs(ctx, q, ell)),
                Fraction(0))
    return total * ctx.smooth_harmonic


def pair_series_partial(series: SmoothSeries, q: int, ell: int,
                        X: int | None = None) -> Fraction:
    """Exact partial sum over Q-smooth t <= X of c_q(t) c_l(t) / t.

    Same divisor-pair rearrangement as pair_series_exact, against the
    prefix harmonic sums of an enumerated smooth window.
    """
    X = series.X if X is None else X
    if X > series.X:
        raise ValueError("partial sum cutoff exceeds the enumerated window")
    return sum((c * series.harmonic_up_to(X // l) / l
                for c, l in _divisor_pairs(series.ctx, q, ell)), Fraction(0))


def orthogonality_truncated(ctx: SmoothContext, q: int, ell: int,
                            tp: TailParams,
                            series: SmoothSeries | None = None) -> BoundedValue:
    """Certified truncation of the normalized orthogonality series.

    Center: totient_product times the exact partial sum up to tp.truncation.
    Radius: totient_product * q * ell * (Rankin tail bound), from the
    inequality |c_q(t) c_l(t)| <= q * l.  The interval always contains the
    exact value phi(ell) * [q == ell].
    """
    if not (ctx.is_smooth(q) and ctx.is_smooth(ell)):
        raise ValueError("orthogonality series needs q and ell smooth")
    if series is None:
        series = SmoothSeries(ctx, tp.truncation)
    partial = pair_series_partial(series, q, ell, tp.truncation)
    radius = ctx.totient_product * q * ell * \
        smooth_tail_bound(ctx, tp.epsilon, tp.delta, tp.truncation)
    return BoundedValue(ctx.totient_product * partial, radius)


def orthogonality_truncated_auto(ctx: SmoothContext, q: int, ell: int,
                                 target_radius: Fraction,
                                 x_start: int = 10_000,
                                 x_cap: int = 10 ** 16,
                                 ) -> tuple[BoundedValue, TailParams]:
    """Smallest doubling cutoff whose certified radius meets the target.

    Raises ArithmeticError at the cap instead of silently losing rigor.
    """
    def evaluate(X):
        tp = best_tail_params(ctx, Fraction(0), X)
        return tp, ctx.totient_product * q * ell * \
            smooth_tail_bound(ctx, tp.epsilon, tp.delta, X)

    tp, _, met = refine_cutoff(evaluate, target_radius, x_start, x_cap)
    if not met:
        raise ArithmeticError(
            f"radius target {Fraction(target_radius)} unreachable below "
            f"cutoff cap {x_cap}")
    return orthogonality_truncated(ctx, q, ell, tp), tp


def absolute_convergence_bound(ctx: SmoothContext, q: int, ell: int,
                               tp: TailParams) -> BoundedValue:
    """Certified bracket of sum over smooth t of |c_q(t) c_l(t)| / t.

    Partial sum of absolute values plus a q*l Rankin tail; the finite
    upper end exhibits absolute convergence.
    """
    if not (ctx.is_smooth(q) and ctx.is_smooth(ell)):
        raise ValueError("absolute convergence bound needs q and ell smooth")
    from .smooth import smooth_up_to

    partial = Fraction(0)
    for t in smooth_up_to(ctx, tp.truncation):
        partial += Fraction(abs(ramanujan_sum(q, t) * ramanujan_sum(ell, t)), t)
    tail = q * ell * smooth_tail_bound(ctx, tp.epsilon, tp.delta,
                                       tp.truncation)
    return BoundedValue(partial + tail / 2, tail / 2)


@dataclass(frozen=True)
class OrthogonalityResult:
    """One (q, ell) cell: both evaluators and the expected collapse."""

    q: int
    ell: int
    exact_value: Fraction
    truncated: BoundedValue
    expected: Fraction

    @property
    def consistent(self) -> bool:
        return self.exact_value == self.expected and \
            self.truncated.contains(self.expected)


def orthogonality_result(ctx: SmoothContext, q: int, ell: int,
                         tp: TailParams,
                         series: SmoothSeries | None = None) -> OrthogonalityResult:
    expected = Fraction(euler_phi(ell)) if q == ell else Fraction(0)
    return OrthogonalityResult(
        q=q,
        ell=ell,
        exact_value=orthogonality_exact(q, ell),
        truncated=orthogonality_truncated(ctx, q, ell, tp, series),
        expected=expected,
    )
