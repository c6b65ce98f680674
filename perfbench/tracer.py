"""Per-layer tracing of ramsmooth from outside the package.

Public functions are wrapped by rebinding their name in every module
namespace that holds them (`from .x import y` gives each importer its own
binding), and methods are wrapped on their class.  Each wrapped call opens
a span; a span's self time is its duration minus the time of the wrapped
calls it made.  Spans of the functions in HOT are only aggregated into a
call count and summed self time; all other spans are kept in memory and
written out once, when tracing ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

from ramsmooth import arith, cli, coefficients, correlations, dyadic, \
    functions, orthogonality, reef, smooth

LAYERS = ("arith", "dyadic", "smooth", "functions", "coefficients",
          "orthogonality", "correlations", "reef", "cli")

# metric name -> (module, function name); rebound in every namespace.
FUNCTIONS = {
    "arith.factorize": (arith, "factorize"),
    "arith.mobius": (arith, "mobius"),
    "arith.divisors": (arith, "divisors"),
    "arith.ramanujan_sum": (arith, "ramanujan_sum"),
    "dyadic.pow_bounds": (dyadic, "pow_bounds"),
    "smooth.best_tail_params": (smooth, "best_tail_params"),
    "smooth.euler_product_upper": (smooth, "euler_product_upper"),
    "smooth.smooth_up_to": (smooth, "smooth_up_to"),
    "functions.smooth_restrict": (functions, "smooth_restrict"),
    "coefficients.wintner_restricted": (coefficients, "wintner_restricted"),
    "coefficients.carmichael_formula": (coefficients, "carmichael_formula"),
    "coefficients.carmichael_periodic_exact":
        (coefficients, "carmichael_periodic_exact"),
    "coefficients.expansion_partial": (coefficients, "expansion_partial"),
    "orthogonality.pair_series_exact": (orthogonality, "pair_series_exact"),
    "orthogonality.orthogonality_exact": (orthogonality, "orthogonality_exact"),
    "correlations.tail_split_identity": (correlations, "tail_split_identity"),
    "reef.find_shifted_orthogonality_violations":
        (reef, "find_shifted_orthogonality_violations"),
    "reef.shifted_orthogonality_eval": (reef, "shifted_orthogonality_eval"),
    "cli.main": (cli, "main"),
}

# metric name -> (class, method name); wrapped on the class.
METHODS = {
    "smooth.SmoothSeries": (smooth.SmoothSeries, "__init__"),
    "functions.evaluate": (functions.ArithmeticFunctionSpec, "evaluate"),
    "functions.transform_value":
        (functions.ArithmeticFunctionSpec, "transform_value"),
    "functions.audit": (functions.ArithmeticFunctionSpec, "audit"),
    "functions.period_table": (functions.RangeQFunction, "period_table"),
    "correlations.table_build": (correlations.CorrelationTable, "__init__"),
    "correlations.decomposition_rhs":
        (correlations.CorrelationTable, "decomposition_rhs"),
    "correlations.inner_sum": (correlations.CorrelationTable, "inner_sum"),
    "correlations.carmichael_mean":
        (correlations.CorrelationTable, "carmichael_mean"),
    "correlations.transform_side_coefficient":
        (correlations.CorrelationTable, "transform_side_coefficient"),
    "correlations.transform_window":
        (correlations.CorrelationTable, "transform_window"),
    "correlations.full_series_estimate":
        (correlations.CorrelationTable, "full_series_estimate"),
    "correlations.smooth_wintner":
        (correlations.CorrelationTable, "smooth_wintner"),
}

# Leaf functions called 10^5 times and more per stream: aggregated only.
HOT = frozenset({
    "arith.factorize", "arith.mobius", "arith.divisors", "arith.ramanujan_sum",
    "dyadic.pow_bounds", "smooth.euler_product_upper",
    "functions.evaluate", "functions.transform_value",
})


def _count_tail_key(tracer, args, kwargs, result):
    ctx, epsilon, X = args
    key = (ctx.Q, Fraction(epsilon), X)
    if key in tracer.tail_keys:
        tracer.counters["smooth.best_tail_params.repeats"] += 1
    tracer.tail_keys.add(key)


# metric name -> hook(tracer, args, kwargs, result) run after each call.
COUNTERS = {
    "smooth.best_tail_params": _count_tail_key,
    "smooth.smooth_up_to": lambda t, a, k, r:
        t.add("smooth.smooth_up_to.terms", len(r)),
    "functions.period_table": lambda t, a, k, r:
        t.add("functions.period_table.entries", a[1]),
    "correlations.table_build": lambda t, a, k, r:
        t.add("correlations.table_build.window_entries", len(a[0].values)),
    "correlations.transform_window": lambda t, a, k, r:
        t.add("correlations.transform_window.entries", a[1]),
    "correlations.full_series_estimate": lambda t, a, k, r:
        t.add("correlations.full_series_estimate.terms", r.term_count),
    "reef.find_shifted_orthogonality_violations": lambda t, a, k, r:
        t.add("reef.points_checked", r.points_checked),
}


class Tracer:
    """Spans and counters of the wrapped layers; inert until enabled."""

    def __init__(self):
        self.enabled = False
        self.request: int | None = None
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.tail_keys: set = set()
        self.spans: list[tuple] = []
        self._frames: list[list] = []  # [child seconds] per open call
        self._span_ids: list[int] = []
        self._patched: list[tuple] = []

    def add(self, name: str, amount) -> None:
        self.counters[name] += amount

    def _wrap(self, name: str, fn):
        tracer = self
        hot = name in HOT
        hook = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frames = tracer._frames
            parent = tracer._span_ids[-1] if tracer._span_ids else None
            span_id = None
            if not hot:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
                tracer._span_ids.append(span_id)
            frame = [0.0]
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[0]
                if frames:
                    frames[-1][0] += duration
                if not hot:
                    tracer._span_ids.pop()
                    tracer.spans[span_id] = (span_id, parent, tracer.request,
                                             name, start, end)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function and method (idempotent per tracer)."""
        if self._patched:
            return
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "ramsmooth"
                                         or key.startswith("ramsmooth.")
                                         or key == "workloads")]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for m in modules:
                if vars(m).get(attr) is original:
                    self._patched.append((m, attr, original))
                    setattr(m, attr, wrapped)
        for name, (cls, attr) in METHODS.items():
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, (value, unit), zero where never called."""
        out: dict[str, tuple[float, str]] = {}
        for name in list(FUNCTIONS) + list(METHODS):
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        tail_calls = self.calls["smooth.best_tail_params"]
        out["smooth.best_tail_params.repeat_share"] = (
            self.counters["smooth.best_tail_params.repeats"] / tail_calls
            if tail_calls else 0.0, "ratio")
        for name in ("smooth.smooth_up_to.terms",
                     "functions.period_table.entries",
                     "correlations.table_build.window_entries",
                     "correlations.transform_window.entries",
                     "correlations.full_series_estimate.terms",
                     "reef.points_checked"):
            out[name] = (self.counters[name], "count")
        points = self.counters["reef.points_checked"]
        evals = self.calls["reef.shifted_orthogonality_eval"]
        out["reef.evals_per_point"] = (evals / points if points else 0.0,
                                       "ratio")
        out["cli.artifact_bytes"] = (self.counters["cli.artifact_bytes"],
                                     "bytes")
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = (sum(
                v for k, v in self.self_s.items()
                if k.split(".", 1)[0] == layer), "s")
        return out

    def write_spans(self, path) -> None:
        """One JSON line per kept span: id, parent, request, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
