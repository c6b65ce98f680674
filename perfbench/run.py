"""Benchmark of ramsmooth: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ramsmooth is imported from its
`src/` directory.  The client sends the next request of the seeded stream
when the previous one returns, checks every result with an independent
evaluator (outside the timed region), and folds the artifact bytes of the
stream's first batch into one result digest.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
the stream's first batch untraced, then again with every layer wrapped
(see tracer.py), and reports per-layer counts and self times together with
the tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
print every metric by name and unit.  The exit code is 0 only when every
request passed its check.  Time metrics are scaled to the baseline machine
by a reference kernel timed around each request (see reference_kernel).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

STREAM_BATCHES = 6
SETUP_PROBES = 7
TAIL_BEYOND = 10
MIN_BATCHES = 3


# Median time of reference_kernel() on the baseline machine (2 vCPU Xeon at
# 2.1 GHz, Python 3.11.7); see reference_kernel.
REFERENCE_KERNEL_S = 0.0035


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of pure-Python exact arithmetic.

    The benchmark runs it before every request and between set-up probes.
    On a shared machine the speed of a process drifts by a quarter and
    more within minutes; the kernel drifts with it, so the time metrics are
    reported as seconds on the baseline machine: measured seconds times
    REFERENCE_KERNEL_S over the kernel's median around the measurement.
    The kernel touches no ramsmooth code, so a change to the program moves
    the scaled metrics exactly as it moves the measured ones.
    """
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 7 - 3, i)
    n = 0
    for i in range(20000):
        n += (i * i) % 7
    return time.perf_counter() - start


class SetupError(Exception):
    """A set-up probe did not get its first request ready."""


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_program():
    """Import ramsmooth from this checkout's src/ and the benchmark modules."""
    if not (SRC / "ramsmooth" / "__init__.py").is_file():
        raise ImportError(f"no ramsmooth sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    return workloads


def _setup_probe(workload: str, seed: int, workdir: Path) -> int:
    """Child side of a set-up measurement: import, build the stream, write
    its tables, then say so."""
    workloads = _import_program()
    stream = workloads.make_stream(workload, seed, STREAM_BATCHES)
    workloads.write_tables(stream, workdir)
    print("ready", flush=True)
    return 0


def measure_setup(workload: str, seed: int, workdir: Path,
                  refs: list[float]) -> list[float]:
    """Seconds from starting a fresh interpreter to its first request being
    ready, once per probe; appends reference kernel times to refs."""
    samples = []
    for i in range(SETUP_PROBES):
        refs.extend(reference_kernel() for _ in range(3))
        probe_dir = workdir / f"probe{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed),
               "--workdir", str(probe_dir)]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            code = child.wait()
        if line.strip() != "ready" or code != 0:
            raise SetupError(f"set-up probe exited {code} before ready")
        samples.append(ready - start)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return samples


class Client:
    """Closed-loop client over one stream; records latencies and failures."""

    def __init__(self, workloads, stream, workdir: Path):
        self.w = workloads
        self.busy = 0.0
        self.tracer = None
        self.stream = stream
        self.workdir = workdir
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.check_cache: dict = {}
        self.refs: list[float] = []

    def send(self, request) -> None:
        self.refs.append(reference_kernel())
        stale = self.workdir / "out" / "failures.json"
        if stale.exists():
            stale.unlink()
        if self.tracer is not None:
            self.tracer.request = len(self.latencies)
            self.tracer.enabled = True
        start = time.perf_counter()
        try:
            outcome = request.execute(self.workdir)
        except Exception as exc:  # a raising request is a failed request
            self._record(time.perf_counter() - start)
            self.failures.append(f"{request.label}: raised {exc!r}")
            return
        self._record(time.perf_counter() - start)
        try:
            request.check(outcome, self.workdir, self.check_cache)
            digest, size = request.fingerprint(outcome, self.workdir)
        except (self.w.CheckFailure, OSError) as exc:
            self.failures.append(f"{request.label}: {exc}")
            return
        if self.tracer is not None:
            self.tracer.add("cli.artifact_bytes", size)
        known = self.digests.setdefault(request.key(), digest)
        if known != digest:
            self.failures.append(f"{request.label}: artifacts differ on repeat")

    def _record(self, elapsed: float) -> None:
        if self.tracer is not None:
            self.tracer.enabled = False
        self.latencies.append(elapsed)
        self.busy += elapsed

    def scaled_latencies(self) -> list[float]:
        """Latencies in seconds on the baseline machine: each one times
        REFERENCE_KERNEL_S over the median of the reference kernel times
        taken just before and after it."""
        out = []
        for i, latency in enumerate(self.latencies):
            local = statistics.median(self.refs[max(i - 2, 0):i + 3])
            out.append(latency * REFERENCE_KERNEL_S / local)
        return out

    def run_batch(self, index: int) -> float:
        """Send one whole batch; return the summed request time."""
        before = self.busy
        for request in self.stream[index % len(self.stream)]:
            self.send(request)
        return self.busy - before

    def run_for(self, seconds: float) -> float:
        """Send whole batches, at least MIN_BATCHES, until `seconds` of
        request time have passed; return the summed request time."""
        start = self.busy
        index = 0
        while self.busy - start < seconds or index < MIN_BATCHES:
            self.run_batch(index)
            index += 1
        return self.busy - start

    def result_digest(self) -> str:
        """sha256 over the artifact digests of the stream's first batch."""
        h = hashlib.sha256()
        for request in self.stream[0]:
            h.update(self.digests.get(request.key(), "missing").encode())
        return h.hexdigest()


def tail_latency(latencies: list[float], batch: int) -> tuple[float, float]:
    """(value, percentile): the highest percentile that leaves TAIL_BEYOND
    samples beyond it in a run of MIN_BATCHES batches of `batch` requests.

    The percentile is fixed per workload, not per run: a run that fits more
    batches leaves more samples beyond it, and the tail stays on the same
    cell of the batch however fast the machine is."""
    percentile = 1 - TAIL_BEYOND / (MIN_BATCHES * batch)
    ordered = sorted(latencies)
    k = min(max(math.ceil(percentile * len(ordered)) - 1, 0), len(ordered) - 1)
    return ordered[k], 100.0 * percentile


def _report(metrics: dict, correct: bool, attempted: int, failed: int) -> None:
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        workloads = _import_program()
    except ImportError as exc:
        return _fail(f"cannot import the program: {exc}")
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        return _setup_probe(args.workload, args.seed, Path(args.workdir))

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        return _run(args, workloads, workdir)
    except SetupError as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workloads, workdir: Path) -> int:
    setup_refs: list[float] = []
    setup = measure_setup(args.workload, args.seed, workdir, setup_refs)
    stream = workloads.make_stream(args.workload, args.seed, STREAM_BATCHES)
    workloads.write_tables(stream, workdir)
    print(f"workload {args.workload}, seed {args.seed}: batches of "
          f"{len(stream[0])} requests, one closed-loop client")
    share = 0.0
    if args.workload == "correlation":
        batch = stream[0]
        share = sum(map(workloads.small_period, batch)) / len(batch)
        print(f"share of instances with lcm(supp g') < lcm(1..Q): "
              f"{share:.4f} of {len(batch)}")

    if args.trace:
        return _run_traced(args, workloads, stream, workdir, share)

    client = Client(workloads, stream, workdir)
    busy = client.run_for(args.seconds)
    attempted = len(client.latencies)
    failed = len(client.failures)
    batch = len(stream[0])
    tail, pct = tail_latency(client.latencies, batch)
    measured = {
        "setup_s": statistics.median(setup),
        "requests_per_s": (attempted - failed) / busy,
        "latency_p50_s": statistics.median(client.latencies),
        "latency_tail_s": tail,
    }
    scaled = client.scaled_latencies()
    scaled_tail, _ = tail_latency(scaled, batch)
    metrics = {
        "setup_s": (statistics.median(setup) * REFERENCE_KERNEL_S
                    / statistics.median(setup_refs), "s"),
        "requests_per_s": ((attempted - failed) / sum(scaled), "1/s"),
        "latency_p50_s": (statistics.median(scaled), "s"),
        "latency_tail_s": (scaled_tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    print(f"reference kernel median {statistics.median(client.refs) * 1e3:.4f}"
          f" ms against {REFERENCE_KERNEL_S * 1e3:.4f} ms on the baseline "
          "machine; measured before scaling: " + ", ".join(
              f"{name} {value:.6g}" for name, value in measured.items()))
    beyond = sum(x > scaled_tail for x in scaled)
    print(f"latency_tail_s is p{pct:.2f} of {attempted} samples, {beyond} "
          f"beyond it; setup_s is the median of {len(setup)} fresh processes")
    print(f"failed_share = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted})")
    return _finish(client, metrics, attempted, failed)


def _run_traced(args, workloads, stream, workdir: Path,
                small_period_share: float) -> int:
    import tracer as tracing

    client = Client(workloads, stream, workdir)
    untraced = client.run_batch(0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        client.tracer = tracer
        traced = client.run_batch(0)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead"] = (traced / untraced, "ratio")
    metrics["correlations.small_period_share"] = (small_period_share, "ratio")
    attempted = len(client.latencies)
    failed = len(client.failures)
    n = len(stream[0])
    print(f"tracing overhead: traced requests_per_s {n / traced:.4g} 1/s "
          f"against untraced {n / untraced:.4g} 1/s on batch 0")
    layers = sorted(((metrics[f"layer.{name}.self_s"][0], name)
                     for name in tracing.LAYERS), reverse=True)
    print("self time by layer: " + ", ".join(
        f"{name} {value:.3f} s" for value, name in layers))
    spans = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans)
    print(f"spans written to {spans.relative_to(ROOT)}")
    return _finish(client, metrics, attempted, failed)


def _finish(client: Client, metrics: dict, attempted: int, failed: int) -> int:
    for failure in client.failures[:20]:
        print(f"FAILED {failure}")
    print(f"result_digest {client.result_digest()}")
    _report(metrics, failed == 0, attempted, failed)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
