"""Command-line verification harness.

Subcommands run named identity suites and experiments, writing CSV/JSON
artifacts whose numbers are exact rational strings `p/q` (or explicit
center/radius pairs); repeated runs with the same flags are
byte-identical.  Exit codes: 0 all checks pass, 1 a check failed (an
identity, or an internal arithmetic audit), 2 a certified check stayed
undecided, 3 usage or input errors, input too large included.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from .arith import euler_phi, factorize, mobius
from .coefficients import coefficient_record, expansion_partial
from .correlations import CorrelationTable, seeded_instance, table_budget, \
    table_period
from .functions import ArithmeticFunctionSpec, CertificateError, RangeQFunction, \
    catalog_spec, format_rational, format_rationals, parse_function_file, \
    parse_rational, range_q
from .orthogonality import orthogonality_exact, orthogonality_truncated_auto
from .reef import counterexample_report, find_shifted_orthogonality_violations, \
    residual_profile, ReefInstance
from .smooth import SmoothContext, smooth_up_to, sifted_count, smooth_power_series

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 3

OUTDIR_ENV = "RAMSMOOTH_OUTDIR"

# Largest smoothness bound --V (coeffs, expand) or --Q (orthogonality).
# Past it the exact rationals outgrow what can be written: with the
# catalog functions at their default flags, expand writes up to V = 618
# (--L 1 to 1000), coeffs up to V = 1326 and orthogonality at every V
# tried up to 3000; above, a record passes Python's 4300-digit limit for
# int-to-str conversion after the whole computation.  600 is the round
# bound below the least of these.
MAX_SMOOTHNESS = 600


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _rat(x: Fraction) -> str:
    return format_rational(Fraction(x))


def _interval(bv) -> dict:
    return {"center": _rat(bv.center), "radius": _rat(bv.radius)}


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _positive_int(text: str) -> int:
    """argparse type for counts and bounds that must be >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _load_spec(token: str) -> ArithmeticFunctionSpec:
    if token.startswith("@"):
        return parse_function_file(token[1:])
    return catalog_spec(token)


def _smooth_context(bound: int, flag: str) -> SmoothContext:
    """SmoothContext(bound), once bound is checked against MAX_SMOOTHNESS."""
    if bound > MAX_SMOOTHNESS:
        raise _UsageError(f"{flag} {bound} exceeds the smoothness bound "
                          f"{MAX_SMOOTHNESS}")
    return SmoothContext(bound)


def _load_range_q(token: str, Q: int | None, N: int) -> RangeQFunction:
    """g from any spec token (a catalog id or an @file) whose transform has a
    finite support, as a function of range Q (by default the support).

    The range bound and the length N are checked against the table budgets
    before g is built, since building g costs time that grows with the
    bound and a table of length N costs N * 2 * period.
    """
    spec = _load_spec(token)
    support = spec.transform_support
    if support is None:
        raise _UsageError(f"{spec.name} has no finite transform support, "
                          f"so it is not a range-Q function")
    bound = support if Q is None else Q
    if bound < support:
        raise _UsageError(f"--Q {bound} smaller than table support {support}")
    table_budget(bound, N)
    return range_q(spec, bound)


# -- commands -----------------------------------------------------------------


def _cmd_coeffs(ns: argparse.Namespace) -> tuple[int, list[dict]]:
    spec = _load_spec(ns.function)
    ctx = _smooth_context(ns.V, "--V")
    failures = []
    rows = []
    for ell in range(1, ns.ell_max + 1):
        rec = coefficient_record(spec, ctx, ell)
        rows.append([ell, _rat(rec.wintner.center), _rat(rec.wintner.radius),
                     _rat(rec.carmichael.center), _rat(rec.carmichael.radius),
                     rec.method])
        if not rec.consistent:
            failures.append({"check": "coefficient-overlap", "ell": ell})
    _write_csv(ns.out / "coeffs.csv",
               ["ell", "win_center", "win_radius", "car_center", "car_radius",
                "method"], rows)
    print(f"coeffs: wrote {len(rows)} records for {spec.name} at V={ctx.Q}")
    return (EXIT_FAIL if failures else EXIT_PASS), failures


def _cmd_expand(ns: argparse.Namespace) -> tuple[int, list[dict]]:
    spec = _load_spec(ns.function)
    ctx = _smooth_context(ns.V, "--V")
    failures = []
    reports = []
    for a in ns.shifts:
        rep = expansion_partial(spec, ctx, a, ns.L)
        reports.append({
            "a": a,
            "partial": _interval(rep.partial),
            "index_tail": _rat(rep.index_tail),
            "reference": _rat(rep.reference),
            "residual_bound": _rat(rep.residual_bound),
            "consistent": rep.consistent,
        })
        if not rep.consistent:
            failures.append({"check": "expansion-residual", "a": a})
    _write_json(ns.out / "expand.json", {
        "function": spec.name, "V": ctx.Q, "L": ns.L, "points": reports})
    print(f"expand: {len(reports)} points for {spec.name} at V={ctx.Q}, "
          f"L={ns.L}")
    return (EXIT_FAIL if failures else EXIT_PASS), failures


def _cmd_orthogonality(ns: argparse.Namespace) -> tuple[int, list[dict]]:
    ctx = _smooth_context(ns.Q, "--Q")
    indices = smooth_up_to(ctx, ns.max)
    failures = []
    rows = []
    for q in indices:
        row = [q]
        for ell in indices:
            value = orthogonality_exact(q, ell)
            expected = Fraction(euler_phi(ell)) if q == ell else Fraction(0)
            if value != expected:
                failures.append({"check": "orthogonality-exact",
                                 "q": q, "ell": ell, "got": _rat(value)})
            row.append(_rat(value))
        rows.append(row)
    _write_csv(ns.out / "orthogonality.csv",
               ["q\\ell"] + [str(ell) for ell in indices], rows)
    print(f"orthogonality: {len(indices)}x{len(indices)} grid at Q={ctx.Q}, "
          f"{len(failures)} mismatches")
    return (EXIT_FAIL if failures else EXIT_PASS), failures


def _cmd_correlation(ns: argparse.Namespace) -> tuple[int, list[dict]]:
    f_spec = _load_spec(ns.f)
    g = _load_range_q(ns.g, ns.Q, ns.N)
    table = CorrelationTable(f_spec, g, ns.N)
    failures = []
    deviations = table.decomposition_deviations()
    if deviations:
        failures.append({
            "check": "decomposition-equality",
            "first_shift": deviations[0][0],
            "max_abs_deviation": _rat(max(abs(d) for _, d in deviations)),
        })
    coeff_rows = []
    for ell in range(1, table.g.Q + 3):
        formula = table.coefficient(ell)
        mean = table.carmichael_mean(ell)
        transform_side = table.transform_side_coefficient(ell)
        coeff_rows.append([ell, _rat(formula), _rat(mean), _rat(transform_side)])
        if not formula == mean == transform_side:
            failures.append({"check": "coefficient-three-way", "ell": ell})
    _write_csv(ns.out / "correlation.csv", ["a", "value"],
               enumerate(format_rationals(*table.period_window()), 1))
    _write_csv(ns.out / "correlation_coeffs.csv",
               ["ell", "formula", "carmichael_mean", "transform_side"],
               coeff_rows)
    _write_json(ns.out / "correlation_summary.json", {
        "f": f_spec.name, "g_range": table.g.Q, "N": table.N,
        "period": table.period,
        "decomposition_max_deviation": _rat(
            max((abs(d) for _, d in deviations), default=Fraction(0))),
        "checks_failed": len(failures),
    })
    print(f"correlation: period {table.period}, "
          f"{len(failures)} identity failures")
    return (EXIT_FAIL if failures else EXIT_PASS), failures


def _cmd_counterexample(ns: argparse.Namespace) -> tuple[int, list[dict]]:
    table_budget(ns.Q, ns.N)
    report = counterexample_report(ns.N, ns.Q, ns.n0, ns.q0)
    obj = {
        "instance": {"N": ns.N, "Q": ns.Q, "n0": ns.n0, "q0": ns.q0},
        "a": report.a,
        "lhs": _rat(report.lhs),
        "rhs": _rat(report.rhs),
        "defect": _rat(report.defect),
    }
    _write_json(ns.out / "reef_report.json", obj)
    print(f"counterexample: lhs={_rat(report.lhs)} rhs={_rat(report.rhs)} "
          f"defect={_rat(report.defect)}")
    failures = []
    if report.defect == 0:
        failures.append({"check": "counterexample-defect-nonzero"})
    return (EXIT_FAIL if failures else EXIT_PASS), failures


def _cmd_conjecture1(ns: argparse.Namespace) -> tuple[int, list[dict]]:
    # by default one table period, under the table budget
    index_bound = ns.index_bound or table_period(ns.Q)
    shift_bound = ns.shift_bound or table_period(ns.Q)
    # built after the budget check: its cost grows with Q
    ctx = SmoothContext(ns.Q)
    outcome = find_shifted_orthogonality_violations(
        ctx,
        index_bound=index_bound,
        shift_bound=shift_bound,
        x_start=ns.x_start,
        x_cap=ns.x_cap,
        target_radius=ns.target_radius,
        stop_after=ns.max_witnesses,
    )

    def point_obj(p):
        return {
            "q": p.q, "ell": p.ell, "n": p.n,
            "value": _interval(p.value),
            "claimed": _rat(p.claimed),
            "cutoff": p.cutoff,
            "delta": _rat(p.delta),
        }

    _write_json(ns.out / "conjecture1.json", {
        "Q": ctx.Q,
        "points_checked": outcome.points_checked,
        "witnesses": [point_obj(p) for p in outcome.witnesses],
        "undecided": [point_obj(p) for p in outcome.undecided],
    })
    print(f"conjecture1: {len(outcome.witnesses)} certified violations, "
          f"{len(outcome.undecided)} undecided, "
          f"{outcome.points_checked} points checked")
    if outcome.undecided:
        return EXIT_UNDECIDED, [{"check": "conjecture1-undecided",
                                 "count": len(outcome.undecided)}]
    return EXIT_PASS, []


def _cmd_reef_residual(ns: argparse.Namespace) -> tuple[int, list[dict]]:
    if ns.n0 is not None or ns.q0 is not None:
        if None in (ns.n0, ns.q0, ns.Q):
            raise _UsageError("--n0, --q0 and --Q must be given together")
        table_budget(ns.Q, ns.N)
        instance = ReefInstance(N=ns.N, Q=ns.Q, n0=ns.n0, q0=ns.q0)
        table = instance.table()
        descriptor = {"N": ns.N, "Q": ns.Q, "n0": ns.n0, "q0": ns.q0}
    else:
        if ns.f is None or ns.g is None:
            raise _UsageError("give --n0/--q0/--Q or --f/--g")
        f_spec = _load_spec(ns.f)
        g = _load_range_q(ns.g, ns.Q, ns.N)
        table = CorrelationTable(f_spec, g, ns.N)
        descriptor = {"f": f_spec.name, "g_range": table.g.Q, "N": ns.N}
    profile = residual_profile(table, ns.a_max, ns.delta)
    _write_json(ns.out / "reef_residual.json", {
        "instance": descriptor,
        "delta": _rat(profile.delta),
        "envelope_cut": profile.envelope_cut,
        "max_abs_defect": _rat(profile.max_abs_defect),
        "max_abs_defect_in_envelope": _rat(profile.max_abs_defect_in_envelope),
        "rows": [{"a": r.a, "lhs": _rat(r.lhs), "rhs": _rat(r.rhs),
                  "defect": _rat(r.defect)} for r in profile.rows],
    })
    print(f"reef-residual: {len(profile.rows)} shifts, max |defect| "
          f"{_rat(profile.max_abs_defect)}")
    return EXIT_PASS, []


def _cmd_verify_all(ns: argparse.Namespace) -> tuple[int, list[dict]]:
    failures: list[dict] = []
    rng = random.Random(ns.seed)

    def check(name: str, ok: bool, **detail):
        line = "pass" if ok else "FAIL"
        print(f"  [{line}] {name}")
        if not ok:
            failures.append({"check": name, **detail})

    # canonical counterexample grid
    ok = True
    for q0 in range(3, 13):
        rep = counterexample_report(N=20, Q=max(q0, 5), n0=q0 - 1, q0=q0)
        ok &= rep.lhs == euler_phi(q0) and \
            rep.rhs == Fraction(mobius(q0) ** 2, euler_phi(q0))
    check("counterexample grid q0 in (2,12]", ok)

    # orthogonality, exact and truncated
    ctx3 = SmoothContext(3)
    grid = smooth_up_to(ctx3, 30)
    ok = all(orthogonality_exact(q, l) ==
             (euler_phi(l) if q == l else 0) for q in grid for l in grid)
    check("orthogonality exact grid Q=3", ok)
    ok = True
    for q in (1, 2, 3, 4):
        got = orthogonality_truncated_auto(ctx3, q, q, Fraction(1, 100))
        ok &= got.contains(euler_phi(q))
    check("orthogonality truncated diagonal Q=3", ok)

    # smooth/sifted counting and Euler products
    ctx5 = SmoothContext(5)
    brute = [n for n in range(1, 2001)
             if all(p <= 5 for p, _ in factorize(n).factors)]
    ok = smooth_up_to(ctx5, 2000) == brute
    check("smooth enumeration vs filter Q=5", ok)
    ok = True
    for X in (1, 10, 100, 1000, 100000):
        count, main = sifted_count(ctx5, X)
        ok &= abs(count - main) <= 2 ** ctx5.prime_count
    check("sifted count error bound Q=5", ok)
    ok = smooth_power_series(SmoothContext(3), -1) == 3
    check("smooth harmonic Euler product Q=3", ok)

    # random correlation instances: decomposition + three-way coefficients
    ok_dec = ok_coeff = True
    for i in range(5):
        f_spec, g, N = seeded_instance(rng, i, max_N=40,
                                       q_choices=(1, 2, 3, 4, 5, 6))
        table = CorrelationTable(f_spec, g, N)
        if table.decomposition_deviations():
            ok_dec = False
        for ell in range(1, table.g.Q + 2):
            formula = table.coefficient(ell)
            if not (formula == table.carmichael_mean(ell)
                    == table.transform_side_coefficient(ell)):
                ok_coeff = False
                break
    check("correlation decomposition on seeded instances", ok_dec)
    check("coefficient three-way agreement on seeded instances", ok_coeff)

    # shifted-orthogonality falsifier must certify a violation
    outcome = find_shifted_orthogonality_violations(
        ctx3, index_bound=6, shift_bound=6, x_start=1 << 14,
        x_cap=1 << 22, target_radius=Fraction(1, 100))
    check("shifted orthogonality violation found Q=3",
          len(outcome.witnesses) >= 1)

    return (EXIT_FAIL if failures else EXIT_PASS), failures


_COMMANDS = {
    "coeffs": _cmd_coeffs,
    "expand": _cmd_expand,
    "orthogonality": _cmd_orthogonality,
    "correlation": _cmd_correlation,
    "counterexample": _cmd_counterexample,
    "conjecture1": _cmd_conjecture1,
    "reef-residual": _cmd_reef_residual,
    "verify-all": _cmd_verify_all,
}


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parse_args keeps no state in it
    between calls."""
    parser = _Parser(prog="ramsmooth", description=__doc__)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", default=None,
                        help=f"output directory (or ${OUTDIR_ENV}; default .)")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[shared], **kw)

    p = add_parser("coeffs", help="coefficient records of a restriction")
    p.add_argument("--function", required=True,
                   help="catalog id or @path to a function table")
    p.add_argument("--V", type=int, required=True)
    p.add_argument("--ell-max", type=_positive_int, default=30, dest="ell_max")

    p = add_parser("expand", help="pointwise expansion with residuals")
    p.add_argument("--function", required=True)
    p.add_argument("--V", type=int, required=True)
    p.add_argument("--a", type=int, nargs="+", required=True, dest="shifts")
    p.add_argument("--L", type=int, default=64)

    p = add_parser("orthogonality", help="exact orthogonality matrix")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--max", type=int, default=30)

    p = add_parser("correlation", help="correlation table identities")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--Q", type=int, default=None)

    p = add_parser("counterexample", help="the canonical expansion defect")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--q0", type=int, required=True)

    p = add_parser("conjecture1", help="sweep the shifted orthogonality claim")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--index-bound", type=_positive_int, default=None,
                   dest="index_bound")
    p.add_argument("--shift-bound", type=_positive_int, default=None,
                   dest="shift_bound")
    p.add_argument("--x-start", type=int, default=10_000, dest="x_start")
    p.add_argument("--x-cap", type=int, default=10 ** 9, dest="x_cap")
    p.add_argument("--target-radius", type=parse_rational, default="1/1000",
                   dest="target_radius")
    p.add_argument("--max-witnesses", type=_positive_int, default=1,
                   dest="max_witnesses")

    p = add_parser("reef-residual", help="expansion defect profile")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--Q", type=int, default=None)
    p.add_argument("--n0", type=int, default=None)
    p.add_argument("--q0", type=int, default=None)
    p.add_argument("--f", default=None)
    p.add_argument("--g", default=None)
    p.add_argument("--a-max", type=int, required=True, dest="a_max")
    p.add_argument("--delta", type=parse_rational, default="1/4")

    p = add_parser("verify-all", help="run the compact identity suite")
    p.add_argument("--seed", type=int, default=1,
                   help="seed of the random correlation instances")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    ns.out = Path(ns.out or os.environ.get(OUTDIR_ENV) or ".")
    try:
        code, failures = _COMMANDS[ns.command](ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CertificateError, ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OverflowError, MemoryError) as exc:
        # OverflowError is an ArithmeticError, so it is caught first
        print(f"error: input too large ({exc!r})", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    if failures:
        _write_json(ns.out / "failures.json",
                    {"command": ns.command, "failures": failures})
        print(f"{len(failures)} check(s) failed; manifest in failures.json")
    return code


if __name__ == "__main__":
    sys.exit(main())
