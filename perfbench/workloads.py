"""Seeded request streams for the ramsmooth benchmark, with independent checks.

A stream is a sequence of batches.  Every batch of a workload has the same
composition (a fixed list of request cells); the seed draws the free
parameters inside each cell and the order of the batch, so two seeds give
different requests of comparable total cost.  Each request knows how to run
itself against ramsmooth's public entry points and how to check its own
result with an evaluator that does not share the measured code path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from ramsmooth import cli, correlations, reef
from ramsmooth.arith import lcm_range
from ramsmooth.functions import build_range_q, catalog_spec, spec_from_table, \
    range_q_ramanujan
from ramsmooth.smooth import SmoothContext, SmoothSeries

WORKLOADS = ("sweep", "correlation", "transform", "coefficients")

SWEEP_X_START = 1 << 14
SWEEP_X_CAP = 1 << 26
SWEEP_TARGET = "1/100"
TRANSFORM_SMOOTH_CUTOFF = 1 << 14
TRANSFORM_CUTOFF_RANGE = (10_000, 500_000)

# Every artifact a CLI subcommand writes, in the order it is hashed.
ARTIFACTS = {
    "conjecture1": ("conjecture1.json",),
    "correlation": ("correlation.csv", "correlation_coeffs.csv",
                    "correlation_summary.json"),
    "coeffs": ("coeffs.csv",),
    "expand": ("expand.json",),
    "orthogonality": ("orthogonality.csv",),
}


class CheckFailure(Exception):
    """A request's result failed the benchmark's own correctness check."""


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_rat(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


@dataclass
class Outcome:
    """What one executed request returned: its exit code, the text it
    printed (or the formatted result of a library call) and, for library
    calls, the result object for the checker."""

    code: int
    text: str
    payload: object = None


@dataclass
class Request:
    """One request of a stream: a CLI argv or a library call, plus the
    inputs its checker needs."""

    workload: str
    label: str
    argv: list[str] = field(default_factory=list)
    params: dict = field(default_factory=dict)
    tables: dict[str, str] = field(default_factory=dict)

    def key(self) -> str:
        return json.dumps([self.label, self.argv, self.params,
                           sorted(self.tables.items())], sort_keys=True)

    # -- execution ---------------------------------------------------------

    def execute(self, workdir: Path) -> Outcome:
        """Run the request; the caller times this call and nothing else."""
        if self.argv:
            argv = [a.replace("{tables}", str(workdir / "tables"))
                    for a in self.argv] + ["--out", str(workdir / "out")]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(buf):
                code = cli.main(argv)
            return Outcome(code, buf.getvalue())
        p = self.params
        table = reef.ReefInstance(N=p["N"], Q=p["Q"], n0=p["n0"],
                                  q0=p["q0"]).table()
        rec = correlations.tail_split_identity(
            table, SmoothContext(p["V"]), p["ell"], TRANSFORM_SMOOTH_CUTOFF,
            estimate_cutoff=p["estimate_cutoff"])
        est = rec.nonsmooth_estimate
        text = " ".join([
            str(rec.ell), _rat(rec.smooth_side.center),
            _rat(rec.smooth_side.radius), _rat(rec.formula),
            str(est.cutoff), str(est.term_count),
            _rat(est.value.center), _rat(est.value.radius)])
        return Outcome(0, text, rec)

    def fingerprint(self, outcome: Outcome, workdir: Path) -> tuple[str, int]:
        """(sha256 of the printed text and every artifact, artifact bytes).

        Table paths end up in names, so the workdir is hashed as '.'."""
        where = str(workdir)
        h = hashlib.sha256(outcome.text.replace(where, ".").encode())
        size = 0
        for name in ARTIFACTS.get(self.argv[0] if self.argv else "", ()):
            data = (workdir / "out" / name).read_bytes()
            size += len(data)
            h.update(name.encode() + b"\0" + data.replace(where.encode(), b"."))
        return h.hexdigest(), size

    # -- checking ------------------------------------------------------------

    def check(self, outcome: Outcome, workdir: Path, cache: dict) -> None:
        """Raise CheckFailure unless the result is right."""
        if outcome.code != 0:
            raise CheckFailure(f"exit code {outcome.code}")
        if self.workload == "sweep":
            self._check_sweep(workdir / "out" / "conjecture1.json", cache)
        elif self.workload == "correlation":
            self._check_correlation(workdir / "out" / "correlation.csv")
        elif self.workload == "transform":
            self._check_transform(outcome.payload)

    def _check_sweep(self, path: Path, cache: dict) -> None:
        report = json.loads(path.read_text())
        p = self.params
        ctx = cache.setdefault(("ctx", p["Q"]), SmoothContext(p["Q"]))
        if report["undecided"]:
            raise CheckFailure("undecided points")
        if p["full"] and report["points_checked"] != p["points"]:
            raise CheckFailure(
                f"swept {report['points_checked']} of "
                f"{p['points']} points")
        if not p["full"] and len(report["witnesses"]) > 1:
            raise CheckFailure("kept sweeping after a witness")
        for w in report["witnesses"]:
            series = cache.get(("series", p["Q"], w["cutoff"]))
            if series is None:
                series = SmoothSeries(ctx, w["cutoff"])
                cache[("series", p["Q"], w["cutoff"])] = series
            replay = reef.shifted_orthogonality_eval(
                ctx, w["q"], w["ell"], w["n"], w["cutoff"], series)
            claimed = _parse_rat(w["claimed"])
            if not replay.value.excludes(claimed) or \
                    replay.claimed != claimed or \
                    _rat(replay.value.center) != w["value"]["center"] or \
                    _rat(replay.value.radius) != w["value"]["radius"]:
                raise CheckFailure(
                    f"witness {w['q']},{w['ell']},{w['n']} "
                    "does not replay")

    def _check_correlation(self, path: Path) -> None:
        p = self.params
        rows = path.read_text().splitlines()[1:]
        values = [_parse_rat(r.split(",")[1]) for r in rows]
        if not values:
            raise CheckFailure("empty correlation.csv")
        if p["dense"]:
            f_spec = spec_from_table("f", "direct",
                                     {n: _parse_rat(v) for n, v in p["f"]})
            g = build_range_q(p["Q"], {d: _parse_rat(v) for d, v in p["gprime"]})
        else:
            f_spec = catalog_spec(p["f"])
            g = range_q_ramanujan(p["q0"], p["Q"])
        spot = random.Random(self.key())
        width = 2 * lcm_range(p["Q"])
        for a in sorted({spot.randint(1, width) for _ in range(3)}):
            direct = correlations.correlation(f_spec, g, p["N"], a)
            if values[(a - 1) % len(values)] != direct:
                raise CheckFailure(f"C(N, {a}) differs from "
                                   "the direct sum")

    def _check_transform(self, rec) -> None:
        if not rec.consistent:
            raise CheckFailure("tail split inconsistent")
        if not (rec.smooth_side.is_exact and rec.smooth_side.center == 0):
            raise CheckFailure("smooth side of a non-smooth "
                               "index is not an exact zero")


# -- generators -------------------------------------------------------------


# (Q, index bound, shift bound, sweep the whole window?): every cell once
# per batch.  Within each (Q, index bound) pair one shift bound stops at the
# first witness and the other sweeps its whole window.  The input space of
# such small windows is a grid, so the seed orders the batch and draws
# nothing else; an odd cell count keeps the median inside one cell.
SWEEP_CELLS = tuple(
    (Q, ib, sb, (ib + sb) % 2 == 1)
    for Q in (3, 5, 7) for ib in (2, 3, 4) for sb in (1, 2)
) + ((3, 6, 1, False),)


def _sweep_batch() -> list[Request]:
    out = []
    for Q, ib, sb, full in SWEEP_CELLS:
        ctx = SmoothContext(Q)
        n_idx = sum(ctx.is_smooth(n) for n in range(1, ib + 1))
        points = n_idx * n_idx * 2 * sb
        argv = ["conjecture1", "--Q", str(Q),
                "--index-bound", str(ib), "--shift-bound", str(sb),
                "--x-start", str(SWEEP_X_START), "--x-cap", str(SWEEP_X_CAP),
                "--target-radius", SWEEP_TARGET]
        if full:
            argv += ["--max-witnesses", str(points + 1)]
        out.append(Request(
            "sweep", f"sweep Q={Q} ib={ib} sb={sb} "
            f"{'full' if full else 'first'}", argv=argv,
            params={"Q": Q, "full": full, "points": points}))
    return out


# Dense cells: (range bound Q of the seeded g' table, N range); one heavy
# cell of period 2520 per batch.  Sparse cells: (catalog f, Q, N range)
# against c_{q0} with q0 < Q, six of the 21 cells.  The cost follows Q and
# N, so the N ranges are narrow and the seed mostly draws table values.
_LOW_N, _HIGH_N = (26, 34), (72, 80)
CORRELATION_DENSE = tuple((Q, n) for Q in range(2, 9)
                          for n in (_LOW_N, _HIGH_N)) + (((9, 10), (46, 54)),)
CORRELATION_SPARSE = (("mu", 6, _HIGH_N), ("indicator", 6, _LOW_N),
                      ("constant-one", 6, _LOW_N), ("mu", 7, _HIGH_N),
                      ("indicator", 7, _HIGH_N), ("constant-one", 7, _LOW_N))
_DENS = (1, 2, 3, 4, 6)


def _correlation_batch(rng: random.Random, tag: str) -> list[Request]:
    out = []
    for i, (Q, (n_lo, n_hi)) in enumerate(CORRELATION_DENSE):
        if isinstance(Q, tuple):
            Q = rng.choice(Q)
        N = rng.randint(max(Q, n_lo), n_hi)
        f = [(n, _rat(Fraction(rng.randint(-9, 9), rng.choice(_DENS))))
             for n in range(1, N + 1)]
        gprime = [(d, _rat(Fraction(rng.randint(-6, 6), rng.choice(_DENS))))
                  for d in range(1, Q + 1)]
        fname, gname = f"{tag}-{i}-f.tsv", f"{tag}-{i}-g.tsv"
        tables = {
            fname: "#mode=direct\n" + "".join(f"{n}\t{v}\n" for n, v in f),
            gname: "#mode=eratosthenes\n" +
            "".join(f"{d}\t{v}\n" for d, v in gprime),
        }
        out.append(Request(
            "correlation", f"correlation dense Q={Q} N={N}",
            argv=["correlation", "--f", "@{tables}/" + fname,
                  "--g", "@{tables}/" + gname, "--Q", str(Q), "--N", str(N)],
            params={"dense": True, "Q": Q, "N": N, "f": f, "gprime": gprime},
            tables=tables))
    for kind, Q, (n_lo, n_hi) in CORRELATION_SPARSE:
        q0 = rng.randint(3, Q - 1)
        N = rng.randint(max(Q, n_lo), n_hi)
        f = f"indicator:{rng.randint(1, N)}" if kind == "indicator" else kind
        out.append(Request(
            "correlation", f"correlation sparse f={f} q0={q0} Q={Q} N={N}",
            argv=["correlation", "--f", f, "--g", f"ramanujan:{q0}",
                  "--Q", str(Q), "--N", str(N)],
            params={"dense": False, "Q": Q, "N": N, "f": f, "q0": q0}))
    return out


# (q0, V): ell = q0 is never V-smooth, so the smooth side of the
# split is an exact zero, as in the acceptance suite's tail-split criterion.
TRANSFORM_SHAPES = ((3, 2), (5, 3), (5, 2), (7, 5), (7, 3))
TRANSFORM_STRATA = 15


def _transform_batch(rng: random.Random) -> list[Request]:
    """One estimate cutoff near the middle of each of TRANSFORM_STRATA
    log-uniform strata of TRANSFORM_CUTOFF_RANGE, each on a seeded reef
    instance; the sieve cost follows the cutoff, so the jitter is small."""
    lo, hi = (math.log(x) for x in TRANSFORM_CUTOFF_RANGE)
    out = []
    for k in range(TRANSFORM_STRATA):
        u = (k + 0.4 + 0.2 * rng.random()) / TRANSFORM_STRATA
        cutoff = int(math.exp(lo + u * (hi - lo)))
        q0, V = rng.choice(TRANSFORM_SHAPES)
        Q = rng.randint(q0, 7)
        N = rng.randint(max(Q, 8), 30)
        n0 = rng.choice([n for n in range(q0 - 1, N + 1, q0)])
        out.append(Request(
            "transform", f"transform q0={q0} V={V} N={N} Q={Q} n0={n0} "
            f"X={cutoff}",
            params={"N": N, "Q": Q, "n0": n0, "q0": q0, "V": V, "ell": q0,
                    "estimate_cutoff": cutoff}))
    return out


COEFF_SPECS = ("mu", "mu-squared", "phi-over-n", "constant-one")
COEFF_V = (2, 3, 5, 7)


def _coefficients_batch(rng: random.Random) -> list[Request]:
    """For every V: coeffs of each catalog spec and of a seeded point
    indicator, expand of a seeded indicator and of a seeded Ramanujan sum,
    and the orthogonality grid; plus coeffs of one seeded Ramanujan sum
    (33 cells, an odd count).  The seed draws only what barely moves the
    cost: the indicator point, the modulus, the shifts and ell-max +-1."""
    out = []

    def coeffs(spec, V):
        out.append(Request(
            "coefficients", f"coeffs {spec} V={V}",
            argv=["coeffs", "--function", spec, "--V", str(V),
                  "--ell-max", str(rng.randint(11, 13))]))

    def expand(spec, V):
        shifts = sorted(rng.sample(range(1, 60), 3))
        out.append(Request(
            "coefficients", f"expand {spec} V={V}",
            argv=["expand", "--function", spec, "--V", str(V), "--a",
                  *map(str, shifts), "--L", "18"]))

    for V in COEFF_V:
        for spec in COEFF_SPECS:
            coeffs(spec, V)
        coeffs(f"indicator:{rng.randint(1, 12)}", V)
        expand(f"indicator:{rng.randint(1, 12)}", V)
        expand(f"ramanujan:{rng.randint(2, 12)}", V)
        out.append(Request(
            "coefficients", f"orthogonality Q={V}",
            argv=["orthogonality", "--Q", str(V), "--max", "30"]))
    coeffs(f"ramanujan:{rng.randint(2, 12)}", rng.choice(COEFF_V))
    return out


def make_batch(workload: str, seed: int, index: int) -> list[Request]:
    """Batch `index` of the workload's stream for `seed`, in seeded order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "sweep":
        batch = _sweep_batch()
    elif workload == "correlation":
        batch = _correlation_batch(rng, f"b{index}")
    elif workload == "transform":
        batch = _transform_batch(rng)
    else:
        batch = _coefficients_batch(rng)
    rng.shuffle(batch)
    return batch


def make_stream(workload: str, seed: int, batches: int) -> list[list[Request]]:
    return [make_batch(workload, seed, i) for i in range(batches)]


def write_tables(stream: list[list[Request]], workdir: Path) -> None:
    """Write every @file table the stream refers to."""
    tables = workdir / "tables"
    tables.mkdir(parents=True, exist_ok=True)
    for batch in stream:
        for req in batch:
            for name, text in req.tables.items():
                (tables / name).write_text(text, encoding="utf-8")


def small_period(req: Request) -> bool:
    """lcm(supp g') < lcm(1..Q): a minimal-period table would be smaller."""
    p = req.params
    if p["dense"]:
        support = [d for d, v in p["gprime"] if _parse_rat(v) != 0]
    else:
        support = [d for d in range(1, p["q0"] + 1) if p["q0"] % d == 0]
    return math.lcm(*support) < lcm_range(p["Q"]) if support else True
