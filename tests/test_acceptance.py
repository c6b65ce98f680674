"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
truncation metadata chosen by the adaptive cutoff policy.
"""

import random
from fractions import Fraction
from math import gcd

import numpy as np

import ramsmooth as rs
from ramsmooth.smooth import best_tail_params

SEED = 20260808


def report(number, title):
    def decorate(fn):
        def wrapper(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] {title}: FAIL")
                raise
            print(f"[criterion {number}] {title}: PASS")
            return out
        wrapper.__name__ = fn.__name__
        return wrapper
    return decorate


@report(1, "counterexample exact reproduction")
def test_criterion_1_counterexample():
    rep = rs.counterexample_report(10, 5, 2, 3)
    assert rep.lhs == 2 and rep.rhs == Fraction(1, 2)
    for q0 in range(3, 13):
        n0 = q0 - 1
        rep = rs.counterexample_report(max(12, q0), max(q0, 5), n0, q0)
        assert rep.lhs == rs.euler_phi(q0)
        assert rep.rhs == Fraction(rs.mobius(q0) ** 2, rs.euler_phi(q0))


@report(2, "orthogonality exhaustive, exact and certified")
def test_criterion_2_orthogonality():
    target = Fraction(1, 1000)
    for Q in (2, 3, 5, 7):
        ctx = rs.SmoothContext(Q)
        indices = rs.smooth_up_to(ctx, 100)
        worst = indices[-1] ** 2
        # adaptive cutoff policy: double X from 10^4 until the certified
        # radius for the worst pair meets the criterion target
        X = 10_000
        while True:
            delta, _ = best_tail_params(ctx, Fraction(0), X)
            if ctx.totient_product * worst * \
                    rs.smooth_tail_bound(ctx, Fraction(0), delta, X) < target:
                break
            X *= 2
        series = rs.SmoothSeries(ctx, X)
        print(f"  Q={Q}: {len(indices)}^2 pairs, cutoff X={X:.3e}, "
              f"{len(series)} smooth terms")
        for q in indices:
            for ell in indices:
                expected = Fraction(rs.euler_phi(ell)) if q == ell \
                    else Fraction(0)
                assert rs.orthogonality_exact(q, ell) == expected
                got = rs.orthogonality_truncated(ctx, q, ell, X, series)
                assert got.radius < target, (Q, q, ell)
                assert got.contains(expected), (Q, q, ell)


def _catalog_bh_instances():
    singles = [rs.point_mass(2), rs.point_mass(7), rs.constant_one(),
               rs.mobius_spec()]
    ranges = [rs.range_q_ramanujan(3, 5), rs.range_q_ramanujan(4, 6),
              rs.range_q(rs.constant_one())]
    for f in singles:
        for g in ranges:
            yield rs.CorrelationTable(f, g, 20)


@report(3, "correlation decomposition, periodicity, coefficient agreement")
def test_criterion_3_correlation_identities():
    rng = random.Random(SEED)
    tables = []
    for tag in range(94):
        f, g, N = rs.seeded_instance(rng, tag, max_N=100,
                                      q_choices=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
        tables.append(rs.CorrelationTable(f, g, N))
    for tag in range(94, 100):
        f, g, N = rs.seeded_instance(rng, tag, max_N=100,
                                      q_choices=(11, 12))
        tables.append(rs.CorrelationTable(f, g, N))
    tables.extend(_catalog_bh_instances())
    print(f"  {len(tables)} instances "
          f"(max period {max(t.period for t in tables)})")
    for table in tables:
        P = table.period
        # (i) decomposition equality, every shift in one full period by
        # the whole-period window, and per shift at the spot shifts below
        assert table.decomposition_deviations() == []
        # (ii) exact periodicity across the audited double window, plus
        # direct-sum spot checks
        for a in range(1, P + 1):
            assert table.values[a - 1] == table.values[a + P - 1]
        spot = random.Random(SEED + table.N)
        for a in {spot.randint(1, 2 * P) for _ in range(4)}:
            assert table.value(a) == rs.correlation(table.f_spec, table.g,
                                                    table.N, a)
            assert table.decomposition_rhs(a) == table.value(a)
        # (iii) three-way coefficient agreement (all exact, radius 0)
        ells = list(range(1, table.g.Q + 1))
        ells += [ell for ell in range(table.g.Q + 1, 15) if P % ell == 0]
        for ell in ells:
            formula = table.coefficient(ell)
            assert formula == table.carmichael_mean(ell)
            assert formula == table.transform_side_coefficient(ell)


@report(4, "coefficient coincidence, expansion, and decay at desk scale")
def test_criterion_4_coefficients():
    specs = [rs.constant_one()] + \
        [rs.ramanujan_modulus(q0) for q0 in (2, 3, 4, 5, 6, 8, 9, 10, 12)]
    for V in (2, 3, 5):
        ctx = rs.SmoothContext(V)
        for spec in specs:
            support = spec.transform_support
            for ell in range(1, 51):
                rec = rs.coefficient_record(spec, ctx, ell)
                assert rec.wintner.is_exact and rec.carmichael.is_exact
                assert rec.wintner.center == rec.carmichael.center, \
                    (spec.name, V, ell)
                if not ctx.is_smooth(ell):
                    assert rec.wintner.center == 0
            # pointwise expansion reproduces the restriction exactly once
            # the index cutoff covers the transform support
            L = max(support, 12)
            for a in (1, 2, 3, 7, 12, 30):
                rep = rs.expansion_partial(spec, ctx, a, L)
                assert rep.partial.is_exact and rep.index_tail == 0
                assert rep.partial.center == rep.reference
            # weighted decay: monotone partials, consistent tails, zero
            # tail beyond the support
            records = [rs.coefficient_record(spec, ctx, ell)
                       for ell in range(1, 65)]
            outs = [rs.weighted_decay_check(records, spec, ctx, L)
                    for L in (8, 16, 32, 64)]
            partials = [p for p, _ in outs]
            assert partials == sorted(partials)
            for i, (p, t) in enumerate(outs):
                assert t >= 0
                for p2, _ in outs[i:]:
                    assert p + t >= p2
            assert outs[-1][1] == 0  # support <= 12 < 64


@report(5, "switch identity, sifted counting, smooth Euler products")
def test_criterion_5_lemmas():
    # switch identity: all catalog specs, every smoothness bound, a <= 5000
    specs = [rs.constant_one(), rs.point_mass(7), rs.ramanujan_modulus(6),
             rs.mobius_spec(), rs.mobius_squared_spec(),
             rs.totient_ratio_spec()]
    for Q in (2, 3, 5, 7):
        ctx = rs.SmoothContext(Q)
        for spec in specs:
            for a in range(1, 5001):
                assert rs.smooth_restrict(spec, ctx, a) == \
                    rs.mobius_switch_rhs(spec, ctx, a), (spec.name, Q, a)
    # sifted counts: every x up to 10^5, via a sieve oracle
    X = 100_000
    for Q in (2, 3, 5, 7, 11, 13):
        ctx = rs.SmoothContext(Q)
        flags = np.ones(X + 1, dtype=np.int64)
        flags[0] = 0
        for p in ctx.primes:
            flags[p::p] = 0
        counts = np.cumsum(flags)
        num = ctx.totient_product.numerator
        den = ctx.totient_product.denominator
        xs = np.arange(X + 1, dtype=np.int64)
        assert np.all(np.abs(counts * den - num * xs)
                      <= (2 ** ctx.prime_count) * den)
        for x in (1, 100, 1000, 10_000, 100_000):
            count, main = rs.sifted_count(ctx, x)
            assert count == int(counts[x])
            assert abs(count - main) <= 2 ** ctx.prime_count
    # smooth power series: exact Euler products
    assert rs.smooth_power_series(rs.SmoothContext(2), -1) == 2
    assert rs.smooth_power_series(rs.SmoothContext(3), -1) == 3
    assert rs.smooth_power_series(rs.SmoothContext(3), -2) == Fraction(3, 2)
    assert rs.smooth_power_series(rs.SmoothContext(5), -1) == Fraction(15, 4)


@report(6, "certified violations of the shifted orthogonality claim")
def test_criterion_6_falsifier():
    for Q in (3, 5):
        ctx = rs.SmoothContext(Q)
        span = rs.lcm_range(Q)
        outcome = rs.find_shifted_orthogonality_violations(
            ctx, index_bound=span, shift_bound=span,
            x_start=1 << 14, x_cap=1 << 26, target_radius=Fraction(1, 100))
        assert outcome.witnesses, f"no violation found for Q={Q}"
        w = outcome.witnesses[0]
        print(f"  Q={Q}: witness (q={w.q}, ell={w.ell}, n={w.n}) "
              f"cutoff={w.cutoff} delta={w.delta} "
              f"value={w.value.center}+-{float(w.value.radius):.2e} "
              f"claimed={w.claimed}")
        assert w.value.excludes(w.claimed)
        # replayable from the recorded truncation metadata
        replay = rs.shifted_orthogonality_eval(ctx, w.q, w.ell, w.n, w.cutoff)
        assert replay.value == w.value


@report(7, "coefficient identity across the smooth split")
def test_criterion_7_tail_split():
    cutoff = 4_000_000
    combined_cap = Fraction(1, 1000)
    for (q0, n0, V) in ((3, 2, 2), (5, 4, 3)):
        table = rs.ReefInstance(N=10, Q=5, n0=n0, q0=q0).table()
        ctx = rs.SmoothContext(V)
        rec = rs.tail_split_identity(table, ctx, q0, 1 << 14,
                                     estimate_cutoff=cutoff)
        # ell = q0 is outside the V-smooth set: term-free exact zero side
        assert rec.smooth_side.is_exact and rec.smooth_side.center == 0
        combined = rec.lhs.radius + rec.rhs.radius
        print(f"  q0={q0}, V={V}: nonsmooth series vs formula "
              f"err={float(abs(rec.lhs.center - rec.rhs.center)):.2e} "
              f"combined radii={float(combined):.2e} at X={cutoff:.1e}")
        assert combined <= combined_cap
        assert abs(rec.lhs.center - rec.rhs.center) <= combined
        assert rec.consistent


@report(8, "oracle equivalence for sums, enumeration, transforms")
def test_criterion_8_oracles():
    # Ramanujan sums against the exponential-sum oracle, q, n <= 200
    for q in range(1, 201):
        residues = np.array([a for a in range(1, q + 1) if gcd(a, q) == 1])
        ns = np.arange(0, 201)
        angles = 2 * np.pi * np.outer(ns, residues) / q
        sums = np.cos(angles).sum(axis=1)
        values = np.array([rs.ramanujan_sum(q, int(n)) for n in ns])
        assert np.abs(values - sums).max() < 1e-6, q
    # smooth enumeration against the brute filter
    for Q in (2, 3, 5, 7, 11, 13):
        ctx = rs.SmoothContext(Q)
        brute = [n for n in range(1, 10_001)
                 if all(p <= Q for p, _ in rs.factorize(n).factors)]
        assert rs.smooth_up_to(ctx, 10_000) == brute
    # transform round-trips on randomized rational tables at X = 10^3
    rng = random.Random(SEED)
    X = 1000
    table = rs.FunctionTable(X, tuple(
        Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        for _ in range(X)))
    fwd = rs.eratosthenes_transform(table)
    assert rs.inverse_transform(fwd).values == table.values
    back = rs.inverse_transform(table)
    assert rs.eratosthenes_transform(back).values == table.values
