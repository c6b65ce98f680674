"""Executable experiments around the conjectured exact finite expansion
("reef") of fair correlations at smooth shifts.

The reef would read C(N, a) = sum_{l<=Q} coefficient(l) c_l(a).  A point
mass against a Ramanujan sum breaks it: with f the indicator of n0 and
g = c_{q0}, the shift a = 1 with n0 = -1 mod q0 gives lhs phi(q0) against
rhs mu(q0)^2/phi(q0).  The same machinery measures residual profiles of
the approximate (error-term) variant and sweeps the shifted orthogonality
claim for certified violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm

from .arith import euler_phi, mobius, ramanujan_sum
from .dyadic import pow_lower
from .functions import ArithmeticFunctionSpec, RangeQFunction, point_mass, \
    range_q_ramanujan
from .correlations import CorrelationTable
from .intervals import BoundedValue
from .orthogonality import tail_radius
from .smooth import SmoothContext, SmoothSeries, refine_cutoff, smooth_up_to


@dataclass(frozen=True)
class ReefInstance:
    """Point mass f = 1_{n0} against g = c_{q0}, of range Q, length N."""

    N: int
    Q: int
    n0: int
    q0: int

    def __post_init__(self):
        if not 1 <= self.n0 <= self.N:
            raise ValueError("need 1 <= n0 <= N")
        if not 2 < self.q0 <= self.Q:
            raise ValueError("need 2 < q0 <= Q")
        if self.Q > self.N:
            raise ValueError("range bound must not exceed the length")

    def f_spec(self) -> ArithmeticFunctionSpec:
        return point_mass(self.n0)

    def g_spec(self) -> RangeQFunction:
        return range_q_ramanujan(self.q0, self.Q)

    def table(self) -> CorrelationTable:
        return CorrelationTable(self.f_spec(), self.g_spec(), self.N)


@dataclass(frozen=True)
class ReefReport:
    """Both sides of the conjectured expansion at one shift."""

    a: int
    lhs: Fraction
    rhs: Fraction

    @property
    def defect(self) -> Fraction:
        return self.lhs - self.rhs


def reef_rhs(table: CorrelationTable, a: int) -> Fraction:
    """sum_{l<=Q} coefficient(l) c_l(a), the conjectured expansion value."""
    if a < 1:
        raise ValueError("shift must be >= 1")
    coeffs = ((ell, table.coefficient(ell)) for ell in range(1, table.g.Q + 1))
    return sum((c * ramanujan_sum(ell, a) for ell, c in coeffs if c),
               Fraction(0))


def reef_report(table: CorrelationTable, a: int) -> ReefReport:
    return ReefReport(a=a, lhs=table.value(a), rhs=reef_rhs(table, a))


def counterexample_report(N: int, Q: int, n0: int, q0: int) -> ReefReport:
    """The canonical defect: a = 1 with n0 = -1 (mod q0).

    Then lhs = phi(q0) and rhs = mu(q0)^2 / phi(q0), which never agree,
    so the exact finite expansion cannot hold.  Both sides are computed
    from scratch (direct sum vs coefficient expansion), not from the
    closed forms they are asserted to equal.
    """
    instance = ReefInstance(N=N, Q=Q, n0=n0, q0=q0)
    if (n0 + 1) % q0 != 0:
        raise ValueError("the canonical defect needs n0 = -1 (mod q0)")
    report = reef_report(instance.table(), 1)
    expected_lhs = Fraction(euler_phi(q0))
    expected_rhs = Fraction(mobius(q0) ** 2, euler_phi(q0))
    if report.lhs != expected_lhs or report.rhs != expected_rhs:
        raise ArithmeticError(
            f"counterexample values drifted: got lhs={report.lhs}, "
            f"rhs={report.rhs}, expected {expected_lhs} vs {expected_rhs}")
    return report


# -- the shifted orthogonality claim -----------------------------------------


@dataclass(frozen=True)
class ShiftedOrthogonalityPoint:
    """One certified evaluation of the shifted, smooth-twisted series."""

    q: int
    ell: int
    n: int
    value: BoundedValue
    claimed: Fraction
    cutoff: int
    delta: Fraction

    @property
    def violated(self) -> bool:
        return self.value.excludes(self.claimed)


def _certified_point(ctx: SmoothContext, q: int, ell: int, n: int, X: int,
                     numerator: int, denom: int,
                     tail: tuple[Fraction, Fraction],
                     ) -> ShiftedOrthogonalityPoint:
    """The point whose sum up to X is numerator / denom, with the
    tail_radius pair of (q, ell, X) and the claimed collapse
    [q == ell] c_l(n)."""
    radius, delta = tail
    claimed = Fraction(ramanujan_sum(ell, n)) if q == ell else Fraction(0)
    center = ctx.totient_product * Fraction(numerator, denom)
    return ShiftedOrthogonalityPoint(
        q=q, ell=ell, n=n, value=BoundedValue(center, radius),
        claimed=claimed, cutoff=X, delta=delta)


def shifted_orthogonality_eval(ctx: SmoothContext, q: int, ell: int, n: int,
                               X: int, series: SmoothSeries | None = None,
                               ) -> ShiftedOrthogonalityPoint:
    """Certified truncation of
    totient_product * sum over smooth t of c_q(n+t) c_l(t) / t,
    compared against the claimed collapse [q == ell] * c_l(n).

    n = 0 (mod q) reduces to the unshifted orthogonality, which holds;
    elsewhere an interval that excludes the claim is a falsification
    certificate.  The sum runs term by term, independently of the
    residue-class sums of the sweep, so it replays any sweep point.
    """
    if not (ctx.is_smooth(q) and ctx.is_smooth(ell)):
        raise ValueError("indices must be smooth")
    if series is None or series.X < X:
        series = SmoothSeries(ctx, X)
    cq = [ramanujan_sum(q, r) for r in range(q)]
    cl = [ramanujan_sum(ell, r) for r in range(ell)]
    denom = series.denominator
    num = 0
    for t in series.values:
        if t > X:
            break
        num += cq[(n + t) % q] * cl[t % ell] * (denom // t)
    return _certified_point(ctx, q, ell, n, X, num, denom,
                            tail_radius(ctx, q, ell, X))


@dataclass(frozen=True)
class SweepOutcome:
    witnesses: tuple[ShiftedOrthogonalityPoint, ...]
    undecided: tuple[ShiftedOrthogonalityPoint, ...]
    points_checked: int


def find_shifted_orthogonality_violations(
        ctx: SmoothContext, *, index_bound: int, shift_bound: int,
        x_start: int = 10_000, x_cap: int = 10 ** 9,
        target_radius: Fraction = Fraction(1, 1000),
        stop_after: int | None = 1) -> SweepOutcome:
    """Deterministic sweep for certified violations of the shifted claim.

    Order: ascending q over smooth indices, then ell, then shifts by
    absolute value (positive first).  Too-wide intervals double the
    cutoff up to the cap; points still straddling the claim at the cap
    are reported undecided, never as passes.

    c_q(n+t) depends on t only mod q, so for each (q, ell, X) the terms
    are summed once per residue class, A_r = sum over smooth t <= X with
    t = r (mod q) of c_l(t) D/t, and every shift n costs
    sum_r c_q(n+r) A_r: the same numerator over D as the term-by-term sum.
    The weights D/t of a cutoff come from its SmoothSeries, and they are
    binned once per (X, m) with m = lcm(q, ell) into B[x], the sum of
    D/t over the smooth t <= X with t = x (mod m), kept for the nonzero
    residues only; each row is then folded as
    A_r = sum over x = r (mod q) of c_l(x mod ell) B[x].

    A point, its claim [q == ell] c_l(n) included, depends on the shift n
    only mod q, so the cutoff is refined once per (q, ell, n mod q) and
    the other shifts of that residue copy its point with their own n.
    points_checked still counts every shift, and the order of witnesses
    and undecided points, as well as stop_after, are those of a sweep
    that refines every shift.
    """
    indices = smooth_up_to(ctx, index_bound)
    shifts = []
    for m in range(1, shift_bound + 1):
        shifts += [m, -m]
    witnesses: list[ShiftedOrthogonalityPoint] = []
    undecided: list[ShiftedOrthogonalityPoint] = []
    series_cache: dict[int, SmoothSeries] = {}
    bins_cache: dict[tuple[int, int], dict[int, int]] = {}

    def binned(X, m):
        """(B, D): the weights D/t of the smooth t <= X summed per
        residue t mod m, and their denominator D."""
        series = series_cache.get(X)
        if series is None:
            series = series_cache[X] = SmoothSeries(ctx, X)
        bins = bins_cache.get((X, m))
        if bins is None:
            bins = bins_cache[X, m] = {}
            for t, w in zip(series.values, series.weights):
                bins[t % m] = bins.get(t % m, 0) + w
        return bins, series.denominator

    def row(q, ell, cl, X):
        """What every shift of (q, ell) shares at cutoff X: the residue
        class sums, their denominator and the tail radius."""
        bins, denom = binned(X, lcm(q, ell))
        sums = [0] * q
        for x, b in bins.items():
            sums[x % q] += cl[x % ell] * b
        return sums, denom, tail_radius(ctx, q, ell, X)

    checked = 0
    for q in indices:
        cq = [ramanujan_sum(q, r) for r in range(q)]
        for ell in indices:
            cl = [ramanujan_sum(ell, r) for r in range(ell)]
            rows: dict[int, tuple] = {}
            refined: dict[int, tuple] = {}

            def evaluate(n, X):
                if X not in rows:
                    rows[X] = row(q, ell, cl, X)
                sums, denom, tail = rows[X]
                num = sum(cq[(n + r) % q] * a for r, a in enumerate(sums))
                point = _certified_point(ctx, q, ell, n, X, num, denom, tail)
                # an interval that already excludes the claim needs no
                # narrowing: radius 0 makes refine_cutoff stop at the first
                # X that excludes it
                return point, 0 if point.violated else point.value.radius

            for n in shifts:
                checked += 1
                if n % q not in refined:
                    point, _, met = refine_cutoff(
                        lambda X: evaluate(n, X), target_radius, x_start,
                        x_cap)
                    refined[n % q] = point, point.violated, met
                point, violated, met = refined[n % q]
                if violated:
                    witnesses.append(replace(point, n=n))
                elif not met:
                    undecided.append(replace(point, n=n))
                if witnesses and stop_after and len(witnesses) >= stop_after:
                    return SweepOutcome(tuple(witnesses), tuple(undecided), checked)
    return SweepOutcome(tuple(witnesses), tuple(undecided), checked)


# -- residual profiles for the approximate variant ----------------------------


@dataclass(frozen=True)
class ResidualProfile:
    """Exact expansion defects over a shift window, with the envelope
    statistics for a chosen exponent.  No pass/fail: the error-term
    constant in the approximate claim is unspecified, so this is a
    measurement, not a verdict."""

    N: int
    Q: int
    delta: Fraction
    shift_cap: int
    rows: tuple[ReefReport, ...]
    max_abs_defect: Fraction = field(init=False)
    envelope_cut: int = field(init=False)
    max_abs_defect_in_envelope: Fraction = field(init=False)

    def __post_init__(self):
        worst = max((abs(r.defect) for r in self.rows), default=Fraction(0))
        object.__setattr__(self, "max_abs_defect", worst)
        cut = int(pow_lower(self.N, 1 - Fraction(self.delta)))
        object.__setattr__(self, "envelope_cut", cut)
        inside = max((abs(r.defect) for r in self.rows if r.a <= cut),
                     default=Fraction(0))
        object.__setattr__(self, "max_abs_defect_in_envelope", inside)


def residual_profile(table: CorrelationTable, a_max: int,
                     delta: Fraction = Fraction(1, 4)) -> ResidualProfile:
    """Exact defects lhs - rhs for every shift a <= a_max."""
    if a_max < 1:
        raise ValueError("need a_max >= 1")
    if a_max > table.N:
        raise ValueError("shift window must stay within the length")
    if not 0 < delta < 1:
        raise ValueError("envelope exponent delta must lie in (0, 1)")
    rows = [reef_report(table, a) for a in range(1, a_max + 1)]
    return ResidualProfile(N=table.N, Q=table.g.Q, delta=Fraction(delta),
                           shift_cap=a_max, rows=tuple(rows))
