"""Benchmark: producer report -> durable ack -> round estimate.

Usage, from the repository root::

    python3 perfbench/run.py --workload churn_small --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: mechanism solve plus forking the service until it is ready
  to accept records; median of set-ups spread through the run.
* ``produce_reports_per_s``: producer-side reports per second (perturb,
  pack, ``wire.dump_chunk``); median over produce passes.
* ``ingest_reports_per_s``: reports durably acked per second; median over
  the ingest segments.
* ``ack_p50_ms``: send-to-ack time of a record; the median over ingest
  segments of each segment's median (the ack count is printed).
* ``recovery_s``: SIGKILL, restart with ``resume=True``, ready; median.
* ``resend_reports_per_s``: blind resend, every ack DUPLICATE; median.

Each sample is scaled by the machine speed measured just before and
after it (``speed.py``) and the medians of the scaled samples are
printed; unscaled medians, every sample and its speed factor are in the
environment line.  Metric names and units are read from BENCHMARK.json.
The share of records, frames and checks that failed is printed as
``failed_ratio`` and carried by the result's ``attempted``/``failed``.

``--trace 1`` runs the workload twice with the same process layout,
untraced and then traced, and prints the per-layer metrics (spans
recorded around calls into the ``repro`` modules, see ``layers.py``),
the tracing overhead, and ``ack_p99_ms``: the same per-segment median of
the 99th percentile, reported there without a bound because its
run-to-run spread on ``bulk_cycle`` exceeds the largest bound (0.25) a
gated metric may carry.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment, sizes, per-sample values and checks.  A
failed output check sets ``correct`` to false and the exit code to 1.

Every input comes from ``--seed``.  ``--seconds`` sets the amount of
work, which is fixed for a given value; on a 2-vCPU guest the timed
phases take about that long.  Scratch state lives under
``.bench_scratch/`` in the repository root; it is removed, and every
forked service stopped, before the run exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

TIMED_PHASES = ("produce", "ingest", "recovery", "resend")


def metric_units(kind: str) -> dict:
    """name -> unit of BENCHMARK.json's *kind* metrics, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def fs_type(path: str) -> str:
    """Filesystem type of the mount holding *path*, from /proc/mounts."""
    best, kind = "", "unknown"
    real = os.path.realpath(path)
    with open("/proc/mounts", encoding="utf-8") as handle:
        for line in handle:
            mount, fstype = line.split()[1:3]
            inside = real == mount or real.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best):
                best, kind = mount, fstype
    return kind


def dir_bytes(path: str, skip: str) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _dirs, files in os.walk(path)
        for name in files
        if name != skip
    )


def run_pass(workload, seed: int, seconds: float, scratch: str, *, tracer=None,
             inprocess_baseline=False, inject_failure=False) -> dict:
    """One full run of *workload*: metrics, checks, and trace inputs."""
    import speed
    import workloads as wl
    from repro.pipeline.accumulator import CountAccumulator
    from repro.pipeline.collect import wire
    from repro.pipeline.service import aggregate_round, control_call
    from repro.pipeline.service.rounds import LEDGER_FILENAME

    phases = defaultdict(list)
    samples = defaultdict(list)  # metric -> unscaled sample values
    factors = defaultdict(list)  # metric -> each sample's speed factor
    checks: dict[str, bool] = {}
    tally = {"attempted": 0, "failed": 0}

    def timed(probe, phase: str, work):
        """Run *work* as one sample of *phase*, bracketed by unit times:
        (result, seconds, speed factor)."""
        before = probe.measure(services.live_pids())
        t0 = time.perf_counter_ns()
        result = work()
        t1 = time.perf_counter_ns()
        after = probe.measure(services.live_pids())
        phases[phase].append((t0, t1))
        return result, (t1 - t0) / 1e9, (before + after) / 2 / speed.NOMINAL_S

    def record(metric: str, value: float, factor: float) -> None:
        samples[metric].append(value)
        factors[metric].append(factor)

    def check(name: str, ok: bool) -> None:
        checks[name] = checks.get(name, True) and bool(ok)
        tally["attempted"] += 1
        tally["failed"] += 0 if ok else 1

    def count(plan) -> int:
        return sum(len(recs) for sessions in plan for _producer, recs in sessions)

    def traffic(plan, status: int):
        latencies, bad, sent = asyncio.run(
            wl.drive(info, workload, plan, frames, status)
        )
        tally["attempted"] += count(plan)
        tally["failed"] += bad + (count(plan) - sent)
        return latencies, sent

    pool = wl.pool_size(workload, seconds)
    users = pool * workload.reports_per_record
    width = wl.report_width(workload)
    spec = wl.budget_spec(workload, seed)
    data = wl.make_inputs(workload, users, seed)
    services = wl.Services(scratch, workload, tracer)
    single = dual = None
    digests = set()

    def setup_sample():
        """Solve and fork a fresh service until it is ready: one set-up."""
        store_root = os.path.join(scratch, f"store-{len(services.started)}")
        (mechanism, (shard, info)), took, factor = timed(
            dual,
            "setup",
            lambda: (wl.solve_mechanism(workload, spec),
                     services.start(store_root, resume=False)),
        )
        record("setup_s", took, factor)
        return mechanism, shard, info, store_root

    def produce_pass():
        (frames, reference), took, factor = timed(
            single, "produce", lambda: wl.produce(workload, mechanism, data, seed)
        )
        record("produce_reports_per_s", users / took, factor)
        digests.add(reference.digest())
        # One more set-up, so the set-up samples span the run.
        setup_sample()[1].terminate()
        return frames, reference

    try:
        single, dual = speed.SpeedProbe(), speed.SpeedProbe(dual=True)
        # Setup: the last of these services takes the traffic.
        for index in range(wl.SETUP_SAMPLES):
            if index:
                live.terminate()
            mechanism, live, info, store_root = setup_sample()

        # Produce: untimed warm-up on a few batches, then the pool.
        warm = workload.reports_per_record * min(8, pool)
        if workload.mechanism == "idue-ps":
            warm_data = data.slice_users(0, warm)
        else:
            warm_data = data[:warm]
        wl.produce(workload, mechanism, warm_data, seed)
        frames, reference = produce_pass()

        decoded = CountAccumulator(width, round_id=wl.ROUND_ID)
        for frame in frames:
            tally["attempted"] += 1
            try:
                decoded.add_packed_reports(wire.loads(frame).rows)
            except Exception:  # any decode failure counts against the run
                tally["failed"] += 1
        check("frames_decode_to_stream_counts", decoded.digest() == reference.digest())
        error, bound = wl.truth_and_estimate_error(workload, mechanism, data, reference)
        check("estimate_error_within_bound", error <= wl.MSE_MULTIPLE * bound)

        inprocess_rate = None
        if inprocess_baseline:
            total = len(frames) * workload.replicas
            baseline = CountAccumulator(width, round_id=wl.ROUND_ID)
            t0 = time.perf_counter()
            for index in range(total):
                frame = frames[index % len(frames)]
                baseline.add_packed_reports(wire.loads(frame).rows)
            took = time.perf_counter() - t0
            inprocess_rate = total * workload.reports_per_record / took

        # Ingest, in segments interleaved with produce passes; every
        # ack MERGED.
        segments = wl.session_plans(workload, len(frames))
        planned = sum(count(segment) for segment in segments)
        ack_samples = 0
        ingest_s = gen_cpu = svc_cpu = 0.0

        def ingest(segment):
            nonlocal gen_cpu, svc_cpu
            gen_cpu0, svc_cpu0 = wl.own_cpu_seconds(), wl.proc_cpu_seconds(live.pid)
            result = traffic(segment, wire.ACK_MERGED)
            gen_cpu += wl.own_cpu_seconds() - gen_cpu0
            svc_cpu += wl.proc_cpu_seconds(live.pid) - svc_cpu0
            return result

        for index, segment in enumerate(segments):
            if index:
                produce_pass()
            (latencies, sent), took, factor = timed(
                single, "ingest", lambda: ingest(segment)
            )
            ingest_s += took
            ack_samples += len(latencies)
            reports = sent * workload.reports_per_record
            record("ingest_reports_per_s", reports / took, factor)
            record("ack_p50_ms", 1e3 * wl.percentile(latencies, 0.50), factor)
            record("ack_p99_ms", 1e3 * wl.percentile(latencies, 0.99), factor)
        stats, _ = asyncio.run(
            control_call(info.host, info.port, key=wl.CONTROL_KEY, op="status",
                         body={"round_id": wl.ROUND_ID})
        )
        spill_bytes = dir_bytes(store_root, LEDGER_FILENAME)
        payload_bytes = sum(
            len(frames[index])
            for segment in segments
            for sessions in segment
            for _producer, recs in sessions
            for _seq, index in recs
        )
        if inject_failure:
            raise RuntimeError("injected failure after ingest")

        # Cycles: SIGKILL + resume, blind resend (every ack DUPLICATE),
        # one more produce pass.
        resend = wl.resend_plan(workload, segments)
        for _ in range(wl.CYCLES):
            services.dump_spans(live)
            live.kill()
            (live, info), took, factor = timed(
                single, "recovery", lambda: services.start(store_root, resume=True)
            )
            record("recovery_s", took, factor)
            for part in resend:
                (_latencies, sent), took, factor = timed(
                    single, "resend", lambda: traffic(part, wire.ACK_DUPLICATE)
                )
                reports = sent * workload.reports_per_record
                record("resend_reports_per_s", reports / took, factor)
            produce_pass()
        check("produce_same_counts_every_pass", len(digests) == 1)

        # Aggregate over the control plane, estimate, compare.
        t0 = time.perf_counter_ns()
        result = asyncio.run(
            aggregate_round([info], control_key=wl.CONTROL_KEY, round_id=wl.ROUND_ID,
                            mechanism=mechanism)
        )
        phases["aggregate"].append((t0, time.perf_counter_ns()))
        expected = CountAccumulator.merge_all([reference] * workload.replicas)
        check("round_digest_matches_stream_counts",
              result.accumulator.digest() == expected.digest())
        check("round_records_merged", result.records_merged == planned)
        check("round_estimate_exists", result.estimate is not None)
    finally:
        services.stop_all()
        for probe in (single, dual):
            if probe is not None:
                probe.close()

    unscaled = {name: statistics.median(values) for name, values in samples.items()}
    scaled = {
        name: statistics.median(
            speed.at_nominal(name, value, factor)
            for value, factor in zip(values, factors[name])
        )
        for name, values in samples.items()
    }
    phase_seconds = {
        name: sum(t1 - t0 for t0, t1 in windows) / 1e9
        for name, windows in phases.items()
    }
    info = {
        "payload_bytes": payload_bytes,
        "spill_bytes": spill_bytes,
        "commits": int(stats["commits"]),
        "records_committed": int(stats["records_merged"]),
        "server_cpu_share": svc_cpu / ingest_s,
        "server_cpu_ms_per_record": 1e3 * svc_cpu / max(planned, 1),
        "generator_cpu_share": gen_cpu / ingest_s,
        "inprocess_reports_per_s": inprocess_rate,
        "cycles": wl.CYCLES,
        "ack_p99_ms": scaled["ack_p99_ms"],
    }
    sizes = {
        "pool_records": len(frames),
        "record_bytes": len(frames[0]),
        "records": planned,
        "reports": planned * workload.reports_per_record,
        "resend_records": sum(count(part) for part in resend),
        "ack_samples": ack_samples,
        "estimate_error_over_ue_total_mse": error / bound,
        "phase_seconds": phase_seconds,
        "unscaled": unscaled,
        "samples": dict(samples),
        "speed_factors": dict(factors),
    }
    return {
        "scaled": scaled,
        "measured_s": sum(phase_seconds.get(name, 0.0) for name in TIMED_PHASES),
        "info": info,
        "sizes": sizes,
        "checks": checks,
        "tally": tally,
        "phases": phases,
        "span_files": list(services.span_files),
    }


def traced_metrics(workload, args, scratch, untraced) -> tuple[dict, dict]:
    """Run the traced pass; returns (per-layer metrics, the traced run)."""
    import layers
    from tracing import Tracer

    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = run_pass(
            workload, args.seed, args.seconds, os.path.join(scratch, "traced"),
            tracer=tracer,
        )
    finally:
        tracer.unpatch()
    spans = list(tracer.spans)
    for path in traced["span_files"]:
        if os.path.exists(path):
            spans.extend(Tracer.load(path))
    info = dict(traced["info"])
    # CPU shares, the in-process baseline and the ack tail come from the
    # untraced pass.
    for key in ("server_cpu_share", "server_cpu_ms_per_record", "generator_cpu_share",
                "inprocess_reports_per_s", "ack_p99_ms"):
        info[key] = untraced["info"][key]
    info["trace_overhead_ratio"] = traced["measured_s"] / untraced["measured_s"]
    return layers.derive(spans, traced["phases"], info), traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-failure", action="store_true",
                        help="raise after ingest (used by selftest.py)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np

    import layers
    import repro
    import workloads as wl
    from repro.kernels import available_compute_backends
    from repro.pipeline.service import ServiceLimits

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    units = metric_units("per_layer" if args.trace else "end_to_end")

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    scratch_parent = os.path.join(ROOT, ".bench_scratch")
    os.makedirs(scratch_parent, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch_parent)
    try:
        scratch_fs = fs_type(scratch)
        untraced = run_pass(
            workload, args.seed, args.seconds, os.path.join(scratch, "untraced"),
            inprocess_baseline=bool(args.trace), inject_failure=args.inject_failure,
        )
        runs = [untraced]
        if args.trace:
            derived, traced = traced_metrics(workload, args, scratch, untraced)
            runs.append(traced)
        else:
            derived = untraced["scaled"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_parent)
        except OSError:
            pass  # another run is using it

    attempted = sum(run["tally"]["attempted"] for run in runs)
    failed = sum(run["tally"]["failed"] for run in runs)
    failed_ratio = failed / attempted
    metrics = {name: derived[name] for name in units}
    for name, value in metrics.items():
        predicts = f"  -> {layers.PREDICTS[name]}" if args.trace else ""
        print(f"{name:40s} {value:>16.6g} {units[name]}{predicts}")
    acks = untraced["sizes"]["ack_samples"]
    print(f"{'ack samples (all segments)':40s} {acks:>16d} count")
    print(f"{'failed_ratio':40s} {failed_ratio:>16.6g} fraction "
          f"({failed} of {attempted} records, frames and checks)")
    checks = defaultdict(lambda: True)
    for run in runs:
        for name, ok in run["checks"].items():
            checks[name] = checks[name] and ok
    environment = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "compute_backends": list(available_compute_backends()),
        "service_limits": asdict(ServiceLimits()),
        "scratch_fs": scratch_fs,
        "generator_cpu_share": untraced["info"]["generator_cpu_share"],
        "service_cpu_share": untraced["info"]["server_cpu_share"],
        "failed_ratio": failed_ratio,
        "sizes": untraced["sizes"],
        "checks": dict(checks),
    }
    print(json.dumps({"environment": environment}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
