"""The benchmark's workloads and the phases every workload runs.

Every workload runs the same path, producer report -> durable ack ->
round estimate, in timed phases:

1. setup: mechanism solve plus forking the service (``ShardProcess``)
   until it accepts records.  A few set-ups start the run and one more
   follows every produce pass; the median is ``setup_s``.
2. produce: the producer side (perturb, pack, ``wire.dump_chunk``) over
   a pool of records, one untimed warm-up then repeated timed passes
   from the same seed; every pass must yield the same counts.
3. ingest: a closed loop over ``CONNECTIONS`` connections (the box has 2
   cores).  Each connection keeps at most ``WINDOW`` records in flight
   and sends the next only once an ack has come back.  Records reuse
   the pool frames round-robin, so the service sees ``pool * replicas``
   distinct ``(producer, seq)`` records while the generator holds only
   the pool.  The ingest runs in ``segments``, each after a produce
   pass, all into the same round and service process.
4. recovery: SIGKILL the service and restart it on the same store with
   ``resume=True``; the median restart-to-ready time is ``recovery_s``.
5. resend: blind resend (same producer ids, seqs and bytes), one
   sample per ingest segment; every ack must be DUPLICATE.  Recovery,
   resend and a produce pass repeat ``CYCLES`` times.
6. aggregate: pull the round over the control plane, merge, estimate,
   and compare with the single-process ``stream_counts`` reference.

Samples of one metric are spread over the run, so one slow stretch of
a shared machine does not decide a median alone, and each sample is
scaled by the machine speed measured around it (``speed.py``).

The workloads differ in where that path spends its time (see the
``why`` of each in BENCHMARK.json).
Sizes scale with ``--seconds`` and are fixed for a given value, so two
commits measured with the same settings do identical work.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    mechanism: str  # "idue" or "idue-ps"
    m: int  # item domain
    ell: int  # padding length (idue-ps only)
    reports_per_record: int  # users per record = users per perturb call
    pool_per_second: float  # distinct records produced per --seconds
    replicas: int  # times the pool is shipped
    records_per_session: int  # 0 = one long-lived session per connection
    resend_share: float  # share of sessions blind-resent
    segments: int  # ingest runs, each after a produce pass


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="churn_small", mechanism="idue", m=1024, ell=0,
            reports_per_record=32, pool_per_second=20.48, replicas=40,
            records_per_session=16, resend_share=0.2, segments=8,
        ),
        Workload(
            name="bulk_cycle", mechanism="idue", m=2048, ell=0,
            reports_per_record=1024, pool_per_second=5.12, replicas=16,
            records_per_session=0, resend_share=1.0, segments=4,
        ),
        Workload(
            name="produce_itemset", mechanism="idue-ps", m=4096, ell=8,
            reports_per_record=256, pool_per_second=10.24, replicas=8,
            records_per_session=0, resend_share=1.0, segments=4,
        ),
    )
}

CONNECTIONS = 2  # open at once; one per core
WINDOW = 16  # records in flight per connection
CYCLES = 5  # kill + recover, resend, produce pass
SETUP_SAMPLES = 3  # set-ups before the first produce pass
ROUND_ID = 1
KEY = "perfbench-producer-key"
CONTROL_KEY = "perfbench-control-key"
EPSILON = 1.0
# Estimate check: total squared error over the domain against the
# closed-form ue_total_mse.  The sum has m terms, so it concentrates
# within a few percent of 1x; 1.5x leaves room without hiding a bias.
MSE_MULTIPLE = 1.5


def pool_size(workload: Workload, seconds: float) -> int:
    unit = max(workload.records_per_session, CONNECTIONS)
    return max(unit, int(round(workload.pool_per_second * seconds / unit)) * unit)


# ----------------------------------------------------------------------
# Mechanism and inputs
# ----------------------------------------------------------------------
def budget_spec(workload: Workload, seed: int):
    """The default privacy levels, each item's level drawn from *seed*.

    Level sizes are the default proportions of ``m``, the same for every
    seed: the solver's work depends on them, so a seed that changed them
    would change the set-up work (up to 4x here) rather than its speed.
    """
    from repro.core.budgets import BudgetSpec
    from repro.datasets.budgets import (
        DEFAULT_LEVEL_MULTIPLIERS,
        DEFAULT_LEVEL_PROPORTIONS,
    )

    epsilons = EPSILON * np.asarray(DEFAULT_LEVEL_MULTIPLIERS)
    sizes = np.floor(np.asarray(DEFAULT_LEVEL_PROPORTIONS) * workload.m).astype(int)
    sizes[: workload.m - sizes.sum()] += 1
    levels = np.repeat(np.arange(sizes.size), sizes)
    np.random.default_rng([seed, 1]).shuffle(levels)
    return BudgetSpec(epsilons[levels])


def solve_mechanism(workload: Workload, spec):
    from repro.mechanisms.idue import IDUE
    from repro.mechanisms.idue_ps import IDUEPS

    if workload.mechanism == "idue-ps":
        return IDUEPS.optimized(spec, workload.ell)
    return IDUE.optimized(spec)


def make_inputs(workload: Workload, users: int, seed: int):
    from repro.datasets import zipf_items
    from repro.datasets.surrogates import kosarak_like

    rng = np.random.default_rng([seed, 2])
    if workload.mechanism == "idue-ps":
        return kosarak_like(users, workload.m, rng=rng)
    return zipf_items(users, workload.m, rng=rng)


def report_width(workload: Workload) -> int:
    return workload.m + (workload.ell if workload.mechanism == "idue-ps" else 0)


def produce(workload: Workload, mechanism, data, seed: int):
    """One producer pass: returns (frames, stream_counts accumulator)."""
    from repro.kernels import FAST
    from repro.pipeline import stream_counts
    from repro.pipeline.collect import wire

    width = report_width(workload)
    frames: list[bytes] = []
    accumulator = stream_counts(
        mechanism,
        data,
        chunk_size=workload.reports_per_record,
        rng=FAST.make_generator(seed),
        packed=True,
        round_id=ROUND_ID,
        sampler=FAST,
        chunk_sink=lambda rows: frames.append(
            wire.dump_chunk(rows, width, round_id=ROUND_ID)
        ),
    )
    return frames, accumulator


def truth_and_estimate_error(workload: Workload, mechanism, data, accumulator):
    """(sum of squared estimate errors, closed-form ue_total_mse)."""
    from repro.estimation.variance import ps_moment_sums, ue_total_mse

    estimate = accumulator.to_round_estimate(mechanism).estimates
    a, b = mechanism.a[: workload.m], mechanism.b[: workload.m]
    if workload.mechanism == "idue-ps":
        # The PS estimate is ell * (UE estimate of the sampled-item
        # counts), whose expectation is ell * s (ps_moment_sums).
        sampled, _ = ps_moment_sums(data, workload.ell)
        error = float(np.sum((estimate - workload.ell * sampled) ** 2))
        return error, workload.ell**2 * ue_total_mse(accumulator.n, a, b, sampled)
    truth = np.bincount(data, minlength=workload.m).astype(float)
    error = float(np.sum((estimate - truth) ** 2))
    return error, ue_total_mse(accumulator.n, a, b, truth)


# ----------------------------------------------------------------------
# Session plans
# ----------------------------------------------------------------------
def session_plans(workload: Workload, pool: int):
    """The ingest, as ``segments`` runs of per-connection session lists.

    A session is ``(producer_id, [(seq, frame_index), ...])``.  Churn
    sessions each use a fresh producer id; a gateway keeps one producer
    id and continues its seqs from segment to segment.
    """
    total = pool * workload.replicas
    conns, count = CONNECTIONS, workload.segments
    segments = [[[] for _ in range(conns)] for _ in range(count)]
    if workload.records_per_session:
        size = workload.records_per_session
        sessions = total // size
        for session in range(sessions):
            records = [(seq, (session * size + seq) % pool) for seq in range(size)]
            segments[session * count // sessions][session % conns].append(
                (f"churn-{session:06d}", records)
            )
    else:
        for conn in range(conns):
            records = [
                (index // conns, index % pool) for index in range(conn, total, conns)
            ]
            bounds = [seg * len(records) // count for seg in range(count + 1)]
            for seg in range(count):
                part = records[bounds[seg] : bounds[seg + 1]]
                segments[seg][conn].append((f"gateway-{conn}", part))
    return segments


def resend_plan(workload: Workload, segments):
    """The blind resend, one part per ingest segment: per connection, the
    first ``resend_share`` of that segment's sessions."""
    return [
        [
            sessions[: max(1, int(len(sessions) * workload.resend_share))]
            for sessions in segment
        ]
        for segment in segments
    ]


# ----------------------------------------------------------------------
# Service process handling
# ----------------------------------------------------------------------
def proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def own_cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


class Services:
    """Every service process a run starts, so all of them get stopped.

    With a *tracer* the forked services record spans too: the child
    entry point is wrapped so each child drops the spans it inherited at
    fork, writes its own to ``dump_path`` on SIGUSR1 (sent before a
    SIGKILL) and again when it shuts down.
    """

    def __init__(self, scratch: str, workload: Workload, tracer=None) -> None:
        self.scratch = scratch
        self.workload = workload
        self.tracer = tracer
        self.started = []
        self.span_files: list[str] = []
        self.dump_path = None
        if tracer is not None:
            from repro.pipeline.service import topology

            tracer.patch(topology, "_shard_child_main",
                         self._traced_child(topology._shard_child_main))

    def _traced_child(self, original):
        tracer = self.tracer

        def child_main(config, ready) -> None:
            tracer.reset()  # drop the generator's spans inherited at fork
            path = self.dump_path
            signal.signal(signal.SIGUSR1, lambda *_: tracer.dump(path))
            try:
                original(config, ready)
            finally:
                tracer.dump(path)

        return child_main

    def start(self, store_root: str, *, resume: bool):
        from repro.pipeline.service import ServiceLimits, ShardProcess

        shard = ShardProcess(
            "bench",
            store_root=store_root,
            rounds=[{"m": report_width(self.workload), "round_id": ROUND_ID}],
            key=KEY,
            control_key=CONTROL_KEY,
            limits=ServiceLimits(),
            resume=resume,
        )
        self.started.append(shard)
        if self.tracer is not None:
            name = f"spans-{len(self.span_files)}.json"
            self.dump_path = os.path.join(self.scratch, name)
            self.span_files.append(self.dump_path)
        info = shard.start()
        return shard, info

    def dump_spans(self, shard) -> None:
        """Have a traced service write its spans (before a SIGKILL)."""
        if self.tracer is None:
            return
        path = self.span_files[self.started.index(shard)]
        os.kill(shard.pid, signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        while not os.path.exists(path):
            if time.monotonic() > deadline:
                raise RuntimeError("service did not write its spans")
            time.sleep(0.005)

    def live_pids(self) -> list[int]:
        return [shard.pid for shard in self.started if shard.is_alive]

    def stop_all(self) -> None:
        for shard in self.started:
            shard.terminate(timeout=30.0)  # joins; kills a wedged child


# ----------------------------------------------------------------------
# Closed-loop traffic
# ----------------------------------------------------------------------
async def drive(info, workload: Workload, plans, frames, expect_status: int):
    """Run every connection's sessions; returns per-record results.

    Returns ``(latencies_s, bad, sent)``: ack latency per record, the
    number of records whose ack was not *expect_status* for their seq,
    and the number of records sent.
    """
    from repro.pipeline.service import ServiceSession

    latencies: list[float] = []
    counters = {"bad": 0, "sent": 0}

    async def connection(sessions) -> None:
        for producer_id, records in sessions:
            session = ServiceSession(
                info.host,
                info.port,
                key=KEY,
                producer_id=producer_id,
                m=report_width(workload),
                round_id=ROUND_ID,
            )
            await session.connect()
            try:
                inflight = []
                head = 0

                async def collect() -> None:
                    nonlocal head
                    seq, sent_at = inflight[head]
                    head += 1
                    ack = await session.read_ack(seq)
                    latencies.append(time.perf_counter() - sent_at)
                    if ack.status != expect_status or ack.seq != seq:
                        counters["bad"] += 1

                for seq, index in records:
                    while len(inflight) - head >= WINDOW:
                        await collect()
                    inflight.append((seq, time.perf_counter()))
                    await session.send_nowait(frames[index], seq)
                    counters["sent"] += 1
                while head < len(inflight):
                    await collect()
            finally:
                await session.close()

    await asyncio.gather(*(connection(sessions) for sessions in plans))
    return latencies, counters["bad"], counters["sent"]


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = min(len(ordered) - 1, max(0, int(np.ceil(q * len(ordered))) - 1))
    return ordered[rank]

