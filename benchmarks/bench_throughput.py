"""Throughput / latency micro-benchmarks for the core operations.

These time the operational costs a deployment cares about:

* device-side perturbation rate (reports / second);
* the sampler kernels: streamed-exact bits/s with the frozen
  ``bitexact`` float64 path versus the packed ``fast`` kernel — the
  headline of the ``repro.kernels`` subsystem (target: fast >= 4x the
  PR 1 streamed-exact baseline on the same machine);
* the packed column popcount every merge path runs, against the plain
  unpack-and-sum reference measured in the same run;
* one per-column ``packed_bernoulli`` call at the perfbench record
  shapes with the ``b`` vectors those workloads solve, next to the
  raw-word floor (``random_raw`` for the same planes);
* PS sampling rate over ragged item-set batches;
* server-side calibration latency at Kosarak-scale domains;
* optimization latency versus the number of privacy levels t (the
  paper's scalability claim: cost depends on t, not on m or 2^m).

Run with ``--json PATH`` (``make bench-json``) to persist machine-
readable ``{name, n, m, secs, bits_per_sec, peak_rss}`` records.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import time

import numpy as np
import pytest

from repro import BudgetSpec, FrequencyEstimator, IDUE, IDUEPS, OptimizedUnaryEncoding
from repro.datasets import kosarak_like, paper_default_spec, zipf_items
from repro.kernels import (
    BITEXACT,
    FAST,
    fixed_point_decompose,
    packed_bernoulli,
    packed_column_counts,
    packed_width,
)
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
    """After: the packed bit-plane kernel, wire format end to end.

    OUE's ``b`` is the same for every bit, so this workload only ever
    takes ``packed_bernoulli``'s uniform branch; the per-column branch
    IDUE and IDUE-PS take (and its set-up cost) is timed by
    :func:`bench_sampler_kernel`.
    """
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


# (rows, bits) per chunk: the three perfbench record shapes (churn_small
# 32 x 1024, bulk_cycle 1024 x 2048, produce_itemset's IDUE-PS reports
# 256 x 4104) and one tall streaming chunk (SAMPLER_CHUNK x SAMPLER_M).
POPCOUNT_SHAPES = [(32, 1024), (1024, 2048), (256, 4104), (SAMPLER_CHUNK, SAMPLER_M)]
# Packed bytes one timed sample covers, so small chunks loop enough
# calls to rise above timer resolution.
POPCOUNT_SAMPLE_BYTES = 1 << 22


def _reference_column_counts(packed, m):
    return np.unpackbits(packed, axis=1, count=m).sum(axis=0, dtype=np.int64)


def _time_per_call(fn, packed, m, calls):
    start = time.perf_counter_ns()
    for _ in range(calls):
        fn(packed, m)
    return (time.perf_counter_ns() - start) / calls / 1e9


def _spread_us(samples):
    """min / median / IQR of per-call times, in microseconds."""
    q1, median, q3 = np.percentile(samples, [25, 50, 75]) * 1e6
    return {"min": min(samples) * 1e6, "median": median, "iqr": q3 - q1}


def _render_us(spread):
    return f"{spread['min']:.1f} / {spread['median']:.1f} / {spread['iqr']:.1f}"


def bench_popcount_kernel(record_result, record_json, repeat):
    """``packed_column_counts`` vs the unpack-and-sum int64 reference.

    Both sides are timed alternately in every sample, so the speedup is
    a same-run ratio, not a constant from another machine.  The only
    assertion is exactness: the kernel's counts equal the reference's.
    """
    samples = repeat(7)
    rng = np.random.default_rng(0)
    lines = [
        f"packed column popcount, us per chunk over {samples} samples "
        f"(min / median / IQR), {os.cpu_count()} cpus",
        f"{'rows x bits':>12} {'kernel':>24} {'reference':>24} "
        f"{'kernel MB/s':>12} {'ref MB/s':>9} {'speedup':>8}",
    ]
    for rows, m in POPCOUNT_SHAPES:
        packed = np.packbits(rng.random((rows, m)) < 0.5, axis=1)
        assert np.array_equal(
            packed_column_counts(packed, m), _reference_column_counts(packed, m)
        )
        calls = max(1, POPCOUNT_SAMPLE_BYTES // packed.nbytes)
        kernel_times, reference_times = [], []
        for _ in range(samples):
            kernel_times.append(
                _time_per_call(packed_column_counts, packed, m, calls)
            )
            reference_times.append(
                _time_per_call(_reference_column_counts, packed, m, calls)
            )
        kernel, reference = _spread_us(kernel_times), _spread_us(reference_times)
        kernel_bytes_per_sec = packed.nbytes / kernel["median"] * 1e6
        reference_bytes_per_sec = packed.nbytes / reference["median"] * 1e6
        speedup = reference["median"] / kernel["median"]
        record_json(
            "throughput_popcount",
            n=rows,
            m=m,
            secs=kernel["median"] / 1e6,
            bits_per_sec=rows * m / kernel["median"] * 1e6,
            bytes_per_sec=kernel_bytes_per_sec,
            kernel_us=kernel,
            reference_us=reference,
            reference_bytes_per_sec=reference_bytes_per_sec,
            speedup=speedup,
            samples=samples,
            calls_per_sample=calls,
        )
        lines.append(
            f"{f'{rows} x {m}':>12} {_render_us(kernel):>24} "
            f"{_render_us(reference):>24} {kernel_bytes_per_sec / 1e6:>12,.0f} "
            f"{reference_bytes_per_sec / 1e6:>9,.0f} {speedup:>7.2f}x"
        )
    record_result("throughput_popcount", "\n".join(lines))


def _perfbench_workloads():
    """``perfbench/workloads.py``, loaded by path (perfbench is no package)."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module here
    spec.loader.exec_module(module)
    return module


def _drawn_planes(p, precision):
    """Planes the per-column kernel draws a word for: those from the
    lowest set bit of any threshold up."""
    thresholds, _, _ = fixed_point_decompose(p, precision)
    combined = int(np.bitwise_or.reduce(thresholds))
    return precision - ((combined & -combined).bit_length() - 1) if combined else 0


def _time_calls(fn, calls):
    start = time.perf_counter_ns()
    for _ in range(calls):
        fn()
    return (time.perf_counter_ns() - start) / calls / 1e9


# Packed bytes one timed sampler sample covers (as for the popcount).
SAMPLER_SAMPLE_BYTES = 1 << 22


def bench_sampler_kernel(record_result, record_json, repeat):
    """One per-column ``packed_bernoulli`` call vs the raw-word floor.

    Each perfbench workload's record shape (users per record x report
    bits) is sampled from the ``b`` vector that workload solves, with
    the ``FAST`` precision.  The floor is the ``random_raw`` draws alone
    for the same plane count, timed alternately in the same samples, so
    kernel minus floor is the per-call work around the draws.  The only
    assertion is determinism: the timed output equals a replay from a
    fresh generator with the same seed.
    """
    samples = repeat(7)
    workloads = _perfbench_workloads()
    precision = FAST.precision
    lines = [
        f"per-column packed_bernoulli (precision {precision}), us per call over "
        f"{samples} samples (min / median / IQR), {os.cpu_count()} cpus",
        f"{'workload':>16} {'rows x bits':>12} {'planes':>6} {'kernel':>24} "
        f"{'raw-word floor':>24} {'kernel/floor':>12}",
    ]
    for workload in workloads.WORKLOADS.values():
        spec = workloads.budget_spec(workload, 1)
        b = np.asarray(workloads.solve_mechanism(workload, spec).b)
        rows, m = workload.reports_per_record, b.size
        assert m == workloads.report_width(workload)
        planes = _drawn_planes(b, precision)
        n_words = -(-(rows * packed_width(m)) // 8)
        first = packed_bernoulli(b, rows, np.random.Generator(np.random.SFC64(7)))
        replay = packed_bernoulli(b, rows, np.random.Generator(np.random.SFC64(7)))
        assert np.array_equal(first, replay)
        generator = np.random.Generator(np.random.SFC64(8))
        bit_generator = generator.bit_generator

        def kernel():
            packed_bernoulli(b, rows, generator, precision=precision)

        def floor():
            for _ in range(planes):
                bit_generator.random_raw(n_words)

        calls = max(1, SAMPLER_SAMPLE_BYTES // first.nbytes)
        kernel_times, floor_times = [], []
        for _ in range(samples):
            kernel_times.append(_time_calls(kernel, calls))
            floor_times.append(_time_calls(floor, calls))
        kernel_us, floor_us = _spread_us(kernel_times), _spread_us(floor_times)
        ratio = kernel_us["median"] / floor_us["median"]
        record_json(
            "throughput_sampler_kernel",
            n=rows,
            m=m,
            secs=kernel_us["median"] / 1e6,
            bits_per_sec=rows * m / kernel_us["median"] * 1e6,
            workload=workload.name,
            planes=planes,
            kernel_us=kernel_us,
            floor_us=floor_us,
            kernel_over_floor=ratio,
            samples=samples,
            calls_per_sample=calls,
        )
        lines.append(
            f"{workload.name:>16} {f'{rows} x {m}':>12} {planes:>6} "
            f"{_render_us(kernel_us):>24} {_render_us(floor_us):>24} {ratio:>11.2f}x"
        )
    record_result("throughput_sampler_kernel", "\n".join(lines))


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
