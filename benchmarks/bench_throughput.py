"""Throughput / latency micro-benchmarks for the core operations.

These time the operational costs a deployment cares about:

* device-side perturbation rate (reports / second);
* the sampler kernels: streamed-exact bits/s with the frozen
  ``bitexact`` float64 path versus the packed ``fast`` kernel — the
  headline of the ``repro.kernels`` subsystem (target: fast >= 4x the
  PR 1 streamed-exact baseline on the same machine);
* PS sampling rate over ragged item-set batches;
* server-side calibration latency at Kosarak-scale domains;
* optimization latency versus the number of privacy levels t (the
  paper's scalability claim: cost depends on t, not on m or 2^m).

Run with ``--json PATH`` (``make bench-json``) to persist machine-
readable ``{name, n, m, secs, bits_per_sec, peak_rss}`` records.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import BudgetSpec, FrequencyEstimator, IDUE, IDUEPS, OptimizedUnaryEncoding
from repro.datasets import kosarak_like, paper_default_spec, zipf_items
from repro.kernels import BITEXACT, FAST
from repro.optim import solve
from repro.pipeline import stream_counts
from repro.simulation import simulate_counts_from_true

# Same workload as bench_pipeline's PR 1 streamed-exact baseline, so the
# bitexact/fast ratio reads directly as the kernel speedup.
SAMPLER_N = 40_000
SAMPLER_M = 2_000
SAMPLER_CHUNK = 2_048


@pytest.fixture(scope="module")
def sampler_workload():
    items = zipf_items(SAMPLER_N, SAMPLER_M, rng=0)
    return OptimizedUnaryEncoding(1.5, SAMPLER_M), items


def _bench_stream(
    benchmark, workload, sampler, packed, name, record_result, record_json, rounds=3
):
    mechanism, items = workload
    result = benchmark.pedantic(
        stream_counts,
        args=(mechanism, items),
        kwargs=dict(
            chunk_size=SAMPLER_CHUNK,
            rng=sampler.make_generator(1),
            packed=packed,
            sampler=sampler,
        ),
        rounds=rounds,
        warmup_rounds=1,
    )
    secs = benchmark.stats["mean"]
    bits = SAMPLER_N * SAMPLER_M
    record_json(
        name,
        n=SAMPLER_N,
        m=SAMPLER_M,
        secs=secs,
        bits_per_sec=bits / secs,
        sampler=sampler.exactness,
        packed=packed,
    )
    record_result(
        name,
        f"{name}: n={SAMPLER_N}, m={SAMPLER_M}, chunk={SAMPLER_CHUNK}, "
        f"sampler={sampler.exactness}, packed={packed}\n"
        f"mean {secs:.3f}s -> {bits / secs / 1e6:,.0f} Mbit/s "
        f"({SAMPLER_N / secs:,.0f} reports/s)",
    )
    assert result.n == SAMPLER_N


def bench_sampler_bitexact_stream(
    benchmark, sampler_workload, record_result, record_json, repeat
):
    """Before: the PR 1 streamed-exact path (float64 PCG64 per coin)."""
    _bench_stream(
        benchmark,
        sampler_workload,
        BITEXACT,
        False,
        "throughput_sampler_bitexact",
        record_result,
        record_json,
        rounds=repeat(3),
    )


def bench_sampler_fast_packed_stream(
    benchmark, sampler_workload, record_result, record_json, repeat
):
    """After: the packed bit-plane kernel, wire format end to end."""
    _bench_stream(
        benchmark,
        sampler_workload,
        FAST,
        True,
        "throughput_sampler_fast",
        record_result,
        record_json,
        rounds=repeat(3),
    )


@pytest.fixture(scope="module")
def idue_mechanism():
    spec = paper_default_spec(2.0, m=1000, rng=0)
    return IDUE.optimized(spec, model="opt0")


def bench_perturb_many_1k_users(benchmark, idue_mechanism):
    rng = np.random.default_rng(0)
    items = rng.integers(idue_mechanism.m, size=1000)
    benchmark(idue_mechanism.perturb_many, items, np.random.default_rng(1))


def bench_ps_sampling_100k_users(benchmark):
    data = kosarak_like(n=100_000, m=5000, rng=0)
    mech = IDUEPS.oue_ps(1.0, m=5000, ell=5)
    benchmark(
        mech.sampler.sample_many,
        data.flat_items,
        data.offsets,
        np.random.default_rng(2),
    )


def bench_fast_simulation_kosarak_domain(benchmark):
    """Aggregate-count simulation at the paper's full Kosarak width."""
    m, n = 41_270, 990_000
    rng = np.random.default_rng(0)
    truth = rng.multinomial(n, np.full(m, 1.0 / m))
    a = np.full(m, 0.5)
    b = np.full(m, 0.2)
    benchmark(simulate_counts_from_true, truth, n, a, b, np.random.default_rng(3))


def bench_estimator_calibration_kosarak_domain(benchmark):
    m, n = 41_270, 990_000
    est = FrequencyEstimator(np.full(m, 0.5), np.full(m, 0.2), n)
    counts = np.full(m, n // 5, dtype=float)
    benchmark(est.estimate, counts)


@pytest.mark.parametrize("t", [2, 4, 10, 20])
def bench_opt0_latency_by_levels(benchmark, t):
    """Optimization cost grows with t only (2t variables, t^2 constraints)."""
    epsilons = np.linspace(1.0, 4.0, t)
    sizes = np.full(t, 50)
    spec = BudgetSpec.from_level_sizes(epsilons, sizes)
    benchmark.pedantic(solve, args=(spec,), kwargs={"model": "opt0"}, rounds=1)
