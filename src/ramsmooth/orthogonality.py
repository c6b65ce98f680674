"""Orthogonality of Ramanujan sums twisted by the smooth-harmonic weight.

The normalized series (1 / sum_{smooth t} 1/t) * sum_{smooth t} c_q(t) c_l(t) / t
collapses to phi(l) on the diagonal q = l and to 0 off it.  Two genuinely
different evaluators guard against transcription errors:

* an exact finite double divisor sum over (q', l') | (q, l), and
* the series itself, truncated with a certified Rankin tail radius, or
  resummed exactly through its Euler-product closed form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .arith import divisors, mobius
from .intervals import BoundedValue
from .smooth import SmoothContext, SmoothSeries, best_tail_params, \
    refine_cutoff

# First and largest cutoff of orthogonality_truncated_auto's doubling.
AUTO_X_START = 10_000
AUTO_X_CAP = 10 ** 16


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


def tail_radius(ctx: SmoothContext, q: int, ell: int,
                X: int) -> tuple[Fraction, Fraction]:
    """(radius, delta): the certified bound on the normalized series beyond
    cutoff X, totient_product * q * ell times the best Rankin tail (from
    |c_q(t) c_l(t)| <= q * l), and the shift delta of that tail."""
    delta, tail = best_tail_params(ctx, Fraction(0), X)
    return ctx.totient_product * q * ell * tail, delta


def orthogonality_truncated(ctx: SmoothContext, q: int, ell: int, X: int,
                            series: SmoothSeries | None = None) -> BoundedValue:
    """Certified truncation of the normalized orthogonality series.

    Center: totient_product times the exact partial sum up to X.
    Radius: tail_radius at X.  The interval always contains the exact
    value phi(ell) * [q == ell].
    """
    if not (ctx.is_smooth(q) and ctx.is_smooth(ell)):
        raise ValueError("orthogonality series needs q and ell smooth")
    if series is None:
        series = SmoothSeries(ctx, X)
    partial = pair_series_partial(series, q, ell, X)
    radius, _ = tail_radius(ctx, q, ell, X)
    return BoundedValue(ctx.totient_product * partial, radius)


def orthogonality_truncated_auto(ctx: SmoothContext, q: int, ell: int,
                                 target_radius: Fraction) -> BoundedValue:
    """The truncation at the smallest cutoff X = AUTO_X_START * 2**k, up
    to AUTO_X_CAP, whose certified radius meets the target.

    Raises ArithmeticError at the cap instead of silently losing rigor.
    """
    def evaluate(X):
        return None, tail_radius(ctx, q, ell, X)[0]

    _, X, met = refine_cutoff(evaluate, target_radius, AUTO_X_START,
                              AUTO_X_CAP)
    if not met:
        raise ArithmeticError(
            f"radius target {Fraction(target_radius)} unreachable below "
            f"cutoff cap {AUTO_X_CAP}")
    return orthogonality_truncated(ctx, q, ell, X)
