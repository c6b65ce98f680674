"""Expansion-defect experiments: counterexample, falsifier, residuals."""

import gc
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ramsmooth import (
    CorrelationTable,
    ReefInstance,
    SmoothContext,
    SmoothSeries,
    constant_one,
    counterexample_report,
    euler_phi,
    find_shifted_orthogonality_violations,
    mobius,
    orthogonality_exact,
    point_mass,
    ramanujan_sum,
    range_q,
    range_q_ramanujan,
    reef_report,
    reef_rhs,
    residual_profile,
    shifted_orthogonality_eval,
    smooth_up_to,
    spec_from_table,
)
from ramsmooth import reef, smooth
from ramsmooth.dyadic import pow_upper
from ramsmooth.intervals import BoundedValue
from conftest import make_random_table


class TestInstance:
    def test_validation(self):
        ReefInstance(N=10, Q=5, n0=2, q0=3)
        with pytest.raises(ValueError):
            ReefInstance(N=10, Q=5, n0=11, q0=3)
        with pytest.raises(ValueError):
            ReefInstance(N=10, Q=5, n0=2, q0=2)
        with pytest.raises(ValueError):
            ReefInstance(N=4, Q=5, n0=2, q0=3)


class TestReefRhs:
    def test_point_mass_closed_form(self):
        # for f = 1_{n0}, g = c_{q0} the whole expansion collapses to
        # c_{q0}(n0) c_{q0}(a) / phi(q0)
        q0, n0 = 5, 3
        table = ReefInstance(N=12, Q=6, n0=n0, q0=q0).table()
        for a in range(1, 25):
            expected = Fraction(ramanujan_sum(q0, n0) * ramanujan_sum(q0, a),
                                euler_phi(q0))
            assert reef_rhs(table, a) == expected

    def test_zero_function(self):
        f = spec_from_table("zero", "direct",
                            {n: Fraction(0) for n in range(1, 13)})
        table = CorrelationTable(f, range_q_ramanujan(3, 5), 12)
        assert all(reef_rhs(table, a) == 0 for a in range(1, 10))

    def test_trivial_range_one_expansion_holds(self):
        # with g identically 1 the expansion is exact for every shift
        table = CorrelationTable(point_mass(4), range_q(constant_one()), 9)
        for a in range(1, 12):
            assert reef_rhs(table, a) == table.value(a)


class TestCounterexample:
    def test_paper_instance(self):
        rep = counterexample_report(10, 5, 2, 3)
        assert rep.lhs == 2
        assert rep.rhs == Fraction(1, 2)
        assert rep.defect == Fraction(3, 2)

    def test_non_squarefree_modulus(self):
        rep = counterexample_report(10, 5, 3, 4)
        assert rep.lhs == euler_phi(4) == 2
        assert rep.rhs == 0
        assert rep.defect == 2

    def test_grid(self):
        for q0 in range(3, 13):
            n0 = q0 - 1
            rep = counterexample_report(max(12, q0), max(q0, 5), n0, q0)
            assert rep.lhs == euler_phi(q0)
            assert rep.rhs == Fraction(mobius(q0) ** 2, euler_phi(q0))
            assert rep.defect != 0

    def test_alignment_required(self):
        with pytest.raises(ValueError):
            counterexample_report(10, 5, 3, 3)

    def test_general_shift_report(self):
        q0, n0 = 3, 2
        table = ReefInstance(N=10, Q=5, n0=n0, q0=q0).table()
        for a in range(1, 13):
            rep = reef_report(table, a)
            assert rep.lhs == ramanujan_sum(q0, n0 + a)
            assert rep.defect == rep.lhs - rep.rhs


class TestShiftedOrthogonality:
    def test_aligned_shift_reduces_to_orthogonality(self):
        ctx = SmoothContext(3)
        for q in (1, 2, 3, 4, 6):
            for ell in (1, 2, 3, 4, 6):
                for n in (0, q, 2 * q):
                    point = shifted_orthogonality_eval(ctx, q, ell, n, 1 << 13)
                    assert point.value.contains(
                        orthogonality_exact(q, ell)), (q, ell, n)

    def test_unit_indices_hold(self):
        ctx = SmoothContext(3)
        point = shifted_orthogonality_eval(ctx, 1, 1, 5, 1 << 10)
        assert point.claimed == 1
        assert point.value.contains(1)

    def test_known_violation(self):
        # q = ell = 3, n = 1 at Q = 3: the series value is -2/3 against
        # the claimed c_3(1) = -1 (hand computation via residue classes)
        ctx = SmoothContext(3)
        point = shifted_orthogonality_eval(ctx, 3, 3, 1, 1 << 16)
        assert point.claimed == -1
        assert point.violated
        assert point.value.contains(Fraction(-2, 3))

    def test_sweep_finds_witness_and_is_deterministic(self):
        ctx = SmoothContext(3)
        kw = dict(index_bound=6, shift_bound=6, x_start=1 << 14,
                  x_cap=1 << 22, target_radius=Fraction(1, 100))
        first = find_shifted_orthogonality_violations(ctx, **kw)
        second = find_shifted_orthogonality_violations(ctx, **kw)
        assert first.witnesses and first.undecided == ()
        assert first == second
        w = first.witnesses[0]
        # replay from the recorded truncation metadata
        replay = shifted_orthogonality_eval(ctx, w.q, w.ell, w.n, w.cutoff)
        assert replay.value == w.value and replay.violated

    @pytest.mark.parametrize("Q, shift_bound", [(3, 4), (5, 2)])
    def test_sweep_points_replay_on_fresh_context(self, Q, shift_bound):
        # the residue-class sums of the sweep against the term-by-term
        # oracle, which shares no tail memo with it
        outcome = find_shifted_orthogonality_violations(
            SmoothContext(Q), index_bound=6, shift_bound=shift_bound,
            x_start=1 << 10, x_cap=1 << 16, target_radius=Fraction(1, 100),
            stop_after=None)
        assert outcome.witnesses and outcome.undecided
        for p in outcome.witnesses + outcome.undecided:
            replay = shifted_orthogonality_eval(SmoothContext(Q), p.q, p.ell,
                                                p.n, p.cutoff)
            assert replay.value.center == p.value.center
            assert replay.value.radius == p.value.radius
            assert (replay.delta, replay.claimed) == (p.delta, p.claimed)

    @pytest.mark.parametrize(
        "Q, index_bound, x_start, x_cap, stop_after",
        [pytest.param(3, 6, 1 << 10, 1 << 16, stop, id=str(stop))
         for stop in (1, 3, None)] +
        # x_start not a power of two, the last doubling clamped at the
        # cap, and every prime power in (10**4, 10**5] a step of D(X)
        [pytest.param(7, 12, 10_000, 100_000, None, id="Q7-None")])
    def test_sweep_refines_once_per_shift_residue(
            self, monkeypatch, Q, index_bound, x_start, x_cap, stop_after):
        # reference: every shift refined on its own, each cutoff priced by
        # the term-by-term evaluator
        ctx = SmoothContext(Q)
        target = Fraction(1, 100)
        series = SmoothSeries(ctx, x_cap)
        shifts = [s for m in range(1, 5) for s in (m, -m)]
        witnesses, undecided, visited, checked = [], [], set(), 0

        def reference():
            nonlocal checked
            for q in smooth_up_to(ctx, index_bound):
                for ell in smooth_up_to(ctx, index_bound):
                    for n in shifts:
                        checked += 1
                        visited.add((q, ell, n % q))
                        X = x_start
                        while True:
                            point = shifted_orthogonality_eval(
                                ctx, q, ell, n, X, series)
                            met = point.value.radius <= target
                            if point.violated or met or X == x_cap:
                                break
                            X = min(2 * X, x_cap)
                        if point.violated:
                            witnesses.append(point)
                        elif not met:
                            undecided.append(point)
                        if stop_after and len(witnesses) >= stop_after:
                            return

        reference()
        calls = []

        def counting(*args):
            calls.append(args)
            return smooth.refine_cutoff(*args)

        monkeypatch.setattr(reef, "refine_cutoff", counting)
        outcome = find_shifted_orthogonality_violations(
            SmoothContext(Q), index_bound=index_bound, shift_bound=4,
            x_start=x_start, x_cap=x_cap, target_radius=target,
            stop_after=stop_after)
        assert len(calls) == len(visited) < checked
        assert outcome.points_checked == checked
        assert outcome.witnesses == tuple(witnesses)
        assert outcome.undecided == tuple(undecided)
        assert witnesses
        assert stop_after in (None, len(witnesses))

    def test_sweep_leaves_no_reference_cycle(self):
        # the sweep's enumeration and bins are freed by reference counting
        # when it returns, not at some later cyclic collection
        gc.collect()
        gc.disable()
        try:
            find_shifted_orthogonality_violations(
                SmoothContext(5), index_bound=4, shift_bound=2,
                x_start=1 << 10, x_cap=1 << 16,
                target_radius=Fraction(1, 100), stop_after=None)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_sweep_computes_tail_bounds_once_per_context(self, monkeypatch):
        # 15 grid deltas: one Euler product per delta (one power per
        # prime) and one Rankin shift per delta and cutoff
        bases = []

        def counting(base, exponent):
            bases.append(Fraction(base))
            return pow_upper(base, exponent)

        monkeypatch.setattr(smooth, "pow_upper", counting)
        ctx = SmoothContext(5)
        kw = dict(index_bound=6, shift_bound=2, x_start=1 << 12,
                  x_cap=1 << 18, target_radius=Fraction(1, 100),
                  stop_after=None)
        first = find_shifted_orthogonality_violations(ctx, **kw)
        cutoffs = {b.denominator for b in bases if b < 1}
        assert len(cutoffs) > 1
        assert cutoffs <= {1 << k for k in range(12, 19)}
        assert len(bases) <= 15 * len(ctx.primes) + 15 * len(cutoffs)
        made = len(bases)
        assert find_shifted_orthogonality_violations(ctx, **kw) == first
        assert len(bases) == made
        fresh = SmoothContext(5)
        assert fresh == ctx and hash(fresh) == hash(ctx)
        assert repr(fresh) == repr(ctx)

    @settings(max_examples=300, deadline=None)
    @given(tp=st.fractions(min_value=Fraction(1, 10 ** 6), max_value=1),
           num=st.integers(-10 ** 30, 10 ** 30),
           D=st.integers(1, 10 ** 24), claim=st.integers(-12, 12),
           radius=st.fractions(min_value=0, max_value=10),
           gap_radius=st.booleans())
    @example(tp=Fraction(8, 35), num=35, D=8, claim=0, radius=Fraction(0),
             gap_radius=True)         # centre 1, radius 1: the claim 0 on it
    @example(tp=Fraction(1, 3), num=-6, D=1, claim=-2, radius=Fraction(0),
             gap_radius=False)        # centre on the claim, radius 0
    def test_integer_decision_matches_the_interval(self, tp, num, D, claim,
                                                   radius, gap_radius):
        # the sweep's integer test against the Fraction interval, on both
        # sides of the closed boundary |centre - claim| = radius
        center = tp * Fraction(num, D)
        if gap_radius:
            radius = abs(center - claim)
        want = BoundedValue(center, radius).excludes(claim)
        assert reef._excludes(tp, num, D, claim, radius) == want
        if gap_radius:
            assert not want
            if radius:
                tighter = radius * Fraction(10 ** 9 - 1, 10 ** 9)
                assert reef._excludes(tp, num, D, claim, tighter)


class TestResiduals:
    def test_trivial_instance_all_zero(self):
        table = CorrelationTable(point_mass(4), range_q(constant_one()), 9)
        profile = residual_profile(table, 9)
        assert all(r.defect == 0 for r in profile.rows)
        assert profile.max_abs_defect == 0

    def test_counterexample_defect_independent_of_length(self):
        q0 = 3
        for N in (10, 30, 60):
            table = ReefInstance(N=N, Q=5, n0=2, q0=q0).table()
            profile = residual_profile(table, min(N, 12))
            assert profile.rows[0].defect == \
                euler_phi(q0) - Fraction(mobius(q0) ** 2, euler_phi(q0))

    def test_random_instances_emit(self):
        rng = random.Random(31)
        table = make_random_table(rng, 0, max_N=40, q_choices=(2, 3, 4, 5))
        profile = residual_profile(table, 20, Fraction(1, 3))
        assert len(profile.rows) == 20
        assert profile.envelope_cut >= 1
        assert profile.max_abs_defect_in_envelope <= profile.max_abs_defect

    def test_window_validation(self):
        table = CorrelationTable(point_mass(2), range_q_ramanujan(3, 5), 10)
        with pytest.raises(ValueError):
            residual_profile(table, 11)
