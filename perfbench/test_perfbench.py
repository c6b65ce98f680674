"""Self-tests of the benchmark: seeded streams, checks, digest and tracer.

    python3 -m pytest -q perfbench
"""

import json
from pathlib import Path

import pytest

import run

workloads = run._import_program()
import tracer as tracing  # noqa: E402  (needs the path set up by run)


def _labels(batch):
    return [r.key() for r in batch]


# A few cheap requests of each workload, picked by label.
MINIMAL = {
    "sweep": ("Q=3 ib=2", "Q=3 ib=3"),
    "correlation": ("dense Q=2 ", "dense Q=3 ", "sparse f=mu"),
    "transform": ("q0=3 ",),
    "coefficients": ("coeffs constant-one", "orthogonality Q=2",
                     "orthogonality Q=3"),
}


def minimal_stream(workload, seed=7):
    batch = workloads.make_batch(workload, seed, 0)
    picked = [r for r in batch
              if any(tag in r.label for tag in MINIMAL[workload])]
    if workload == "transform":
        picked = sorted(batch, key=lambda r: r.params["estimate_cutoff"])[:2]
    assert picked
    return [picked]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_seeded(workload):
    first = workloads.make_batch(workload, 3, 0)
    again = workloads.make_batch(workload, 3, 0)
    other = workloads.make_batch(workload, 4, 0)
    assert _labels(first) == _labels(again)
    assert _labels(first) != _labels(other)
    assert _labels(first) != _labels(workloads.make_batch(workload, 3, 1))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_batches_keep_their_composition(workload):
    sizes = {len(workloads.make_batch(workload, seed, i))
             for seed in (1, 2) for i in range(3)}
    assert len(sizes) == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_minimal_stream_passes_its_checks(workload, tmp_path):
    stream = minimal_stream(workload)
    workloads.write_tables(stream, tmp_path)
    client = run.Client(workloads, stream, tmp_path)
    client.run_batch(0)
    assert client.failures == []
    assert len(client.latencies) == len(stream[0])


def test_digest_is_stable_across_runs(tmp_path):
    digests = []
    for i in range(2):
        stream = minimal_stream("correlation")
        workdir = tmp_path / str(i)
        workloads.write_tables(stream, workdir)
        client = run.Client(workloads, stream, workdir)
        client.run_batch(0)
        digests.append(client.result_digest())
    assert digests[0] == digests[1]


def test_failed_check_counts_and_fails_the_run(tmp_path, capsys):
    (request,) = [r for r in minimal_stream("sweep")[0]
                  if r.params["full"]][:1]
    request.params["points"] += 1
    client = run.Client(workloads, [[request]], tmp_path)
    client.run_batch(0)
    assert len(client.failures) == 1
    assert run._finish(client, {}, 1, 1) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_tracer_counts_are_deterministic_and_uninstall_restores(tmp_path):
    from ramsmooth import arith, correlations, smooth

    mobius = arith.mobius
    originals = (smooth.best_tail_params, correlations.mobius,
                 correlations.CorrelationTable.__init__)
    counts = []
    for i in range(2):
        stream = minimal_stream("correlation")
        workdir = tmp_path / str(i)
        workloads.write_tables(stream, workdir)
        client = run.Client(workloads, stream, workdir)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert correlations.mobius is arith.mobius is not mobius
            client.tracer = tracer
            client.run_batch(0)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        counts.append({k: v for k, (v, unit) in metrics.items()
                       if unit == "count"})
        assert metrics["correlations.table_build.calls"][0] == len(stream[0])
        assert metrics["arith.mobius.calls"][0] > 0
    assert counts[0] == counts[1]
    assert (smooth.best_tail_params, correlations.mobius,
            correlations.CorrelationTable.__init__) == originals


def test_tail_latency_leaves_ten_samples_beyond():
    batch = 20
    values = [float(i) for i in range(run.MIN_BATCHES * batch)]
    tail, pct = run.tail_latency(values, batch)
    assert sum(v > tail for v in values) == 10
    assert pct == pytest.approx(100 * (1 - 10 / len(values)))
    more = [float(i) for i in range((run.MIN_BATCHES + 2) * batch)]
    tail, same = run.tail_latency(more, batch)
    assert same == pct and sum(v > tail for v in more) >= 10


def test_missing_program_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", Path(tmp_path) / "src")
    assert run.main(["--workload", "sweep", "--seed", "1"]) != 0


def test_scaling_follows_the_reference_kernel(tmp_path):
    client = run.Client(workloads, [[]], tmp_path)
    client.latencies = [1.0, 2.0, 3.0]
    client.refs = [run.REFERENCE_KERNEL_S] * 3
    assert client.scaled_latencies() == [1.0, 2.0, 3.0]
    client.refs = [2 * run.REFERENCE_KERNEL_S] * 3
    assert client.scaled_latencies() == [0.5, 1.0, 1.5]
