"""Exactly-once service costs: ingest, recovery, and group-commit scope.

Three numbers gate the service design:

* **authenticated ingest** — the full exactly-once path (HMAC handshake,
  per-record spill fsync + ledger fsync, per-record acks) must stay
  within 2.2x of a raw socket path on the *same* frames (no handshake,
  no durability, one ack per stream); both are measured here back to
  back and the ratio is recorded. (Typical measurement is ~1.8-1.9x; the
  bar carries ~15% headroom because both sides of the ratio are
  fsync-noise-dominated minima, and the multi-round commit scheduler
  trades a scheduling hop per batch on this single-connection path for
  its cross-connection coalescing.)
* **recovery latency** — how long a restart takes to load the ledger,
  truncate the spill to the committed offset, and rebuild the round:
  once with the round's checkpoint removed (every spilled frame
  replayed) and once resuming from it (only the tail past it).
* **cross-connection group commit** — the multi-round scenario: 8
  producers pipelining into a hosted round must ingest at least 1.3x
  faster with round-scoped commit coalescing (one fsync pair covering
  every session's staged batches) than with the per-connection
  baseline (``commit_scope="connection"``) on the same frames.

Rates are Mbit/s of wire payload, comparable to ``bench_collect``.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import struct
import tempfile
import time

import pytest

from repro import OptimizedUnaryEncoding
from repro.datasets import zipf_items
from repro.kernels import FAST
from repro.pipeline import (
    CollectionService,
    CountAccumulator,
    KeyRegistry,
    ServiceLimits,
    send_records,
    stream_counts,
)
from repro.pipeline.collect import wire
from repro.pipeline.collect.framing import read_frame_bytes
from repro.pipeline.collect.store import ShardStore
from repro.pipeline.service import ShardFleet, aggregate_round, send_records_routed
from repro.pipeline.service.rounds import SERVICE_SHARD_ID

N_USERS = 40_000
DOMAIN = 2_000
CHUNK = 2_048
KEY = "benchmark-round-key-0123"

# Scale-out scenario shape.  The smoke profile (BENCH_SCALEOUT_SMOKE=1,
# `make bench-scaleout-smoke`) shrinks the fleet and the population so
# `make check` can afford the run; the full profile is the recorded
# benchmark: >= 4 shard processes, >= 200 routed producers.
SO_SMOKE = os.environ.get("BENCH_SCALEOUT_SMOKE") == "1"
SO_SHARDS = 2 if SO_SMOKE else 4
SO_PRODUCERS = 16 if SO_SMOKE else 200
SO_FRAMES_PER_PRODUCER = 2 if SO_SMOKE else 4
SO_DOMAIN = 64 if SO_SMOKE else 256
SO_CHUNK = 16 if SO_SMOKE else 32
SO_ROUND = 1
SO_KEY = "bench-scaleout-key-0456"
SO_CONTROL_KEY = "bench-scaleout-control"

# Live-rebalance scenario shape: 2 shards grow to 3 under streaming
# producers; the smoke profile (BENCH_REBALANCE_SMOKE=1, `make
# bench-rebalance-smoke`) shrinks the population for `make check`.
REB_SMOKE = os.environ.get("BENCH_REBALANCE_SMOKE") == "1"
REB_PRODUCERS = 12 if REB_SMOKE else 48
REB_FRAMES_PER_PRODUCER = 6 if REB_SMOKE else 16
REB_DOMAIN = 64
REB_CHUNK = 8
REB_ROUND = 2
REB_KEY = "bench-rebalance-key-0789"
REB_CONTROL_KEY = "bench-rebalance-control"

# Multi-round / group-commit scenario shape: many producers, many small
# records, so the commit pipeline (not the payload bytes) is the cost.
MR_PRODUCERS = 8
MR_DOMAIN = 256
MR_CHUNK = 64
MR_FRAMES_PER_PRODUCER = 96
MR_ROUNDS = ({"m": MR_DOMAIN, "round_id": 1}, {"m": MR_DOMAIN, "round_id": 2})


@pytest.fixture(scope="module")
def frames():
    """The round's packed chunk frames, identical for every path."""
    mechanism = OptimizedUnaryEncoding(1.5, DOMAIN)
    items = zipf_items(N_USERS, DOMAIN, rng=0)
    collected: list[bytes] = []
    stream_counts(
        mechanism,
        items,
        chunk_size=CHUNK,
        rng=FAST.make_generator(1),
        packed=True,
        sampler=FAST,
        chunk_sink=lambda rows: collected.append(wire.dump_chunk(rows, DOMAIN)),
    )
    return collected


@pytest.fixture()
def scratch_roots():
    roots: list[str] = []

    def make() -> str:
        root = tempfile.mkdtemp(prefix="bench_service_")
        roots.append(root)
        return root

    yield make
    for root in roots:
        shutil.rmtree(root, ignore_errors=True)


def _service_ingest(frames, root) -> CollectionService:
    async def run() -> CollectionService:
        service = CollectionService(DOMAIN, key=KEY, store_root=root + "/r")
        host, port = await service.serve()
        try:
            await send_records(
                host, port, frames, key=KEY, producer_id="bench", m=DOMAIN
            )
        finally:
            await service.close()
        return service

    return asyncio.run(run())


def _raw_socket_ingest(frames) -> CountAccumulator:
    """The baseline: one unauthenticated, non-durable stream.

    The server decodes every frame into a staging accumulator, merges it
    into the round at EOF and acks the frame count in 8 bytes; there is
    no handshake, spill, ledger or fsync.
    """
    live = CountAccumulator(DOMAIN)

    async def handle(reader, writer):
        staging = CountAccumulator(DOMAIN)
        count = 0
        while (frame := await read_frame_bytes(reader)) is not None:
            staging.absorb_frame(wire.loads(frame))
            count += 1
        live.merge(staging)
        writer.write(struct.pack("<Q", count))
        await writer.drain()
        writer.close()

    async def run() -> int:
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            reader, writer = await asyncio.open_connection(host, port)
            for frame in frames:
                writer.write(frame)
            await writer.drain()
            writer.write_eof()
            (acked,) = struct.unpack("<Q", await reader.readexactly(8))
            writer.close()
        finally:
            server.close()
            await server.wait_closed()
        return acked

    assert asyncio.run(run()) == len(frames)
    return live


def bench_service_ingest(
    benchmark, frames, scratch_roots, record_result, record_json, repeat
):
    """Authenticated exactly-once ingest vs the raw socket baseline."""

    def ingest_into_fresh_round() -> CollectionService:
        # The service refuses to overwrite existing round state, so each
        # benchmark iteration gets its own scratch root.
        return _service_ingest(frames, scratch_roots())

    service = benchmark(ingest_into_fresh_round)
    secs = benchmark.stats["mean"]
    assert service.records_merged == len(frames)

    # The raw path on the very same frames, for the ratio.  Both
    # sides of the ratio use their best observation: fsync and
    # scheduling noise dominate the tails on shared machines, and the
    # bar is about the protocol's cost, not the disk's worst mood.
    raw_times = []
    for _ in range(repeat(5)):
        start = time.perf_counter()
        raw = _raw_socket_ingest(frames)
        raw_times.append(time.perf_counter() - start)
    assert raw.digest() == service.accumulator.digest()
    raw_secs = min(raw_times)

    wire_bits = 8 * sum(len(frame) for frame in frames)
    ratio = benchmark.stats["min"] / raw_secs
    record_json(
        "service_ingest",
        n=N_USERS,
        m=DOMAIN,
        secs=secs,
        bits_per_sec=wire_bits / secs,
        frames=len(frames),
        raw_socket_secs=raw_secs,
        raw_socket_bits_per_sec=wire_bits / raw_secs,
        slowdown_vs_raw_socket=ratio,
    )
    record_result(
        "service_ingest",
        "authenticated exactly-once ingest (handshake + fsync'd ledger): "
        f"n={N_USERS}, m={DOMAIN}, {len(frames)} records\n"
        f"mean {secs * 1e3:.1f}ms -> {wire_bits / secs / 1e6:,.0f} Mbit/s wire\n"
        f"raw socket (no auth/durability): {raw_secs * 1e3:.1f}ms "
        f"-> {wire_bits / raw_secs / 1e6:,.0f} Mbit/s wire\n"
        f"exactly-once overhead: {ratio:.2f}x (acceptance bar: <= 2.2x)",
    )
    assert ratio <= 2.2, (
        f"authenticated ingest is {ratio:.2f}x the raw socket path; "
        "the acceptance bar is 2.2x"
    )


@pytest.fixture(scope="module")
def multiround_workload():
    """Per-producer frame streams for two concurrent hosted rounds."""
    mechanism = OptimizedUnaryEncoding(1.5, MR_DOMAIN)
    per_producer = []
    for index in range(MR_PRODUCERS):
        round_id = 1 + index % 2
        items = zipf_items(
            MR_CHUNK * MR_FRAMES_PER_PRODUCER, MR_DOMAIN, rng=index
        )
        collected: list[bytes] = []
        stream_counts(
            mechanism,
            items,
            chunk_size=MR_CHUNK,
            rng=FAST.make_generator(100 + index),
            packed=True,
            round_id=round_id,
            sampler=FAST,
            chunk_sink=lambda rows, rid=round_id: collected.append(
                wire.dump_chunk(rows, MR_DOMAIN, round_id=rid)
            ),
        )
        per_producer.append((f"node-{index}", round_id, collected))
    keys = KeyRegistry(
        {
            producer: f"bench-producer-key-{producer}"
            for producer, _rid, _frames in per_producer
        }
    )
    return per_producer, keys


def _multiround_ingest(per_producer, keys, root, scope) -> CollectionService:
    limits = ServiceLimits(commit_scope=scope, max_commit_batch=8)

    async def run() -> CollectionService:
        service = CollectionService(
            rounds=list(MR_ROUNDS),
            keys=keys,
            store_root=root,
            limits=limits,
        )
        host, port = await service.serve()
        try:
            await asyncio.gather(
                *(
                    send_records(
                        host,
                        port,
                        frames,
                        key=f"bench-producer-key-{producer}",
                        producer_id=producer,
                        m=MR_DOMAIN,
                        round_id=round_id,
                    )
                    for producer, round_id, frames in per_producer
                )
            )
        finally:
            await service.close()
        return service

    return asyncio.run(run())


def bench_service_multiround_group_commit(
    benchmark, multiround_workload, scratch_roots, record_result, record_json, repeat
):
    """Cross-connection group commit vs the per-connection baseline.

    Two hosted rounds, 8 producers with per-producer keys pipelining
    concurrently.  ``commit_scope="round"`` coalesces every session's
    staged batches under one spill-fsync + ledger-fsync pair; the
    baseline pays one pair per connection batch.  The acceptance bar is
    >= 1.3x ingest throughput for the coalesced path.
    """
    per_producer, keys = multiround_workload
    total_frames = sum(len(frames) for _p, _r, frames in per_producer)

    service = benchmark(
        lambda: _multiround_ingest(
            per_producer, keys, scratch_roots() + "/rounds", "round"
        )
    )
    assert service.records_merged == total_frames
    coalesced = sum(
        state.scheduler.cross_connection_batches
        for state in service.registry.rounds()
    )
    commits_round = sum(
        state.scheduler.commits for state in service.registry.rounds()
    )
    assert coalesced > 0, "no cross-connection coalescing happened at all"
    round_secs = benchmark.stats["min"]

    # The per-connection baseline on the very same frames; best-of like
    # the raw-socket comparison above (fsync noise dominates tails).
    baseline_times = []
    for _ in range(repeat(3)):
        start = time.perf_counter()
        baseline = _multiround_ingest(
            per_producer, keys, scratch_roots() + "/rounds", "connection"
        )
        baseline_times.append(time.perf_counter() - start)
    assert baseline.records_merged == total_frames
    commits_conn = sum(
        state.scheduler.commits for state in baseline.registry.rounds()
    )
    baseline_secs = min(baseline_times)

    wire_bits = 8 * sum(
        len(frame) for _p, _r, frames in per_producer for frame in frames
    )
    speedup = baseline_secs / round_secs
    record_json(
        "service_multiround_group_commit",
        n=total_frames * MR_CHUNK,
        m=MR_DOMAIN,
        secs=round_secs,
        bits_per_sec=wire_bits / round_secs,
        producers=MR_PRODUCERS,
        rounds=len(MR_ROUNDS),
        frames=total_frames,
        per_connection_secs=baseline_secs,
        speedup=speedup,
        commits_cross_connection=commits_round,
        commits_per_connection=commits_conn,
    )
    record_result(
        "service_multiround_group_commit",
        f"multi-round ingest, {MR_PRODUCERS} producers x "
        f"{MR_FRAMES_PER_PRODUCER} records over {len(MR_ROUNDS)} rounds\n"
        f"cross-connection commit: {round_secs * 1e3:.1f}ms "
        f"({commits_round} fsync pairs) -> "
        f"{wire_bits / round_secs / 1e6:,.0f} Mbit/s wire\n"
        f"per-connection commit:   {baseline_secs * 1e3:.1f}ms "
        f"({commits_conn} fsync pairs)\n"
        f"group-commit speedup: {speedup:.2f}x (acceptance bar: >= 1.3x)",
    )
    assert speedup >= 1.3, (
        f"cross-connection group commit is only {speedup:.2f}x the "
        "per-connection baseline; the acceptance bar is 1.3x"
    )


RECOVERY_MODES = {
    # name -> (keep the round's checkpoint?, result label)
    "full_replay": (
        False,
        "crash resume, checkpoint removed "
        "(ledger load + truncate + full spill replay)",
    ),
    "checkpointed": (
        True,
        "checkpointed resume (ledger load + truncate + checkpoint load "
        "+ tail replay)",
    ),
}


@pytest.mark.parametrize("mode", sorted(RECOVERY_MODES))
def bench_service_recovery(
    benchmark, mode, frames, scratch_roots, record_result, record_json
):
    """Restart latency, from the same on-disk round every time: with the
    checkpoint removed (every spilled frame replayed) and with it."""
    keep_checkpoint, label = RECOVERY_MODES[mode]
    scratch = scratch_roots()
    reference = _service_ingest(frames, scratch).accumulator.digest()
    pristine, root = scratch + "/r", scratch + "/resume"
    if not keep_checkpoint:
        os.unlink(ShardStore(pristine).checkpoint_path(SERVICE_SHARD_ID))

    def fresh_copy():
        # A resume rewrites the checkpoint after a replayed tail, so
        # every timed round starts from a copy of the pristine state.
        shutil.rmtree(root, ignore_errors=True)
        shutil.copytree(pristine, root)

    def recover() -> CollectionService:
        service = CollectionService(
            DOMAIN, key=KEY, store_root=root, resume=True
        )
        asyncio.run(service.abort())
        return service

    service = benchmark.pedantic(
        recover, setup=fresh_copy, rounds=5, iterations=1
    )
    assert service.recovered_records == len(frames)
    assert service.accumulator.digest() == reference
    replayed = service.round(0).replayed_records
    assert replayed == (0 if keep_checkpoint else len(frames))
    secs = benchmark.stats["mean"]
    # Replay throughput only means something when frames were replayed.
    rate = 8 * service.bytes_ingested / secs if replayed else None
    name = "service_recovery" + ("_checkpointed" if keep_checkpoint else "")
    record_json(
        name,
        n=N_USERS,
        m=DOMAIN,
        secs=secs,
        bits_per_sec=rate,
        records=service.recovered_records,
        replayed_records=replayed,
    )
    record_result(
        name,
        f"{label}: n={N_USERS}, m={DOMAIN}, {service.recovered_records} "
        f"records, {replayed} replayed\n"
        f"mean {secs * 1e3:.1f}ms over 5 rounds"
        + (f" -> {rate / 1e6:,.0f} Mbit/s wire" if rate else ""),
    )


@pytest.fixture(scope="module")
def scaleout_workload():
    """Per-producer frame streams for the sharded round."""
    mechanism = OptimizedUnaryEncoding(1.5, SO_DOMAIN)
    per_producer = []
    for index in range(SO_PRODUCERS):
        items = zipf_items(
            SO_CHUNK * SO_FRAMES_PER_PRODUCER, SO_DOMAIN, rng=1000 + index
        )
        collected: list[bytes] = []
        stream_counts(
            mechanism,
            items,
            chunk_size=SO_CHUNK,
            rng=FAST.make_generator(2000 + index),
            packed=True,
            round_id=SO_ROUND,
            sampler=FAST,
            chunk_sink=lambda rows: collected.append(
                wire.dump_chunk(rows, SO_DOMAIN, round_id=SO_ROUND)
            ),
        )
        per_producer.append((f"edge-{index:04d}", collected))
    return per_producer


def _fleet_ingest(per_producer, shard_names, root) -> float:
    """Wall-clock seconds to route every producer into a shard fleet,
    then drain + aggregate (the full round cost, not just the sends)."""

    async def run() -> float:
        fleet = ShardFleet(
            shard_names,
            fleet_root=root,
            rounds=[{"m": SO_DOMAIN, "round_id": SO_ROUND}],
            key=SO_KEY,
            control_key=SO_CONTROL_KEY,
        )
        table = await fleet.start()
        try:
            start = time.perf_counter()
            await asyncio.gather(
                *(
                    send_records_routed(
                        table,
                        frames,
                        key=SO_KEY,
                        producer_id=producer,
                        m=SO_DOMAIN,
                        round_id=SO_ROUND,
                    )
                    for producer, frames in per_producer
                )
            )
            result = await aggregate_round(
                fleet.infos(),
                control_key=SO_CONTROL_KEY,
                round_id=SO_ROUND,
            )
            secs = time.perf_counter() - start
            expected = sum(len(frames) for _p, frames in per_producer)
            assert result.records_merged == expected
            assert result.accumulator.n == expected * SO_CHUNK
            return secs
        finally:
            fleet.stop()

    return asyncio.run(run())


def bench_service_scaleout(
    scaleout_workload, scratch_roots, record_result, record_json, repeat
):
    """Routed ingest across K shard processes vs one shard process.

    >= 4 shards, >= 200 producers (2 shards, 16 producers under the
    smoke profile), every producer's stream routed by consistent hash,
    the round aggregated at the end — against the identical workload
    through a single shard process.  The >= 3x throughput bar needs
    cores for the shards to land on, so it is asserted only where the
    hardware can express the parallelism (and never in smoke mode);
    the measured speedup and the core count are recorded regardless.
    """
    per_producer = scaleout_workload
    shard_names = [f"shard-{chr(ord('a') + i)}" for i in range(SO_SHARDS)]
    attempts = 1 if SO_SMOKE else repeat(2)
    fleet_secs = min(
        _fleet_ingest(per_producer, shard_names, scratch_roots() + "/fleet")
        for _ in range(attempts)
    )
    solo_secs = min(
        _fleet_ingest(per_producer, ["solo"], scratch_roots() + "/solo")
        for _ in range(attempts)
    )

    wire_bits = 8 * sum(
        len(frame) for _p, frames in per_producer for frame in frames
    )
    speedup = solo_secs / fleet_secs
    cores = os.cpu_count() or 1
    record_json(
        "service_scaleout",
        n=SO_PRODUCERS * SO_FRAMES_PER_PRODUCER * SO_CHUNK,
        m=SO_DOMAIN,
        secs=fleet_secs,
        bits_per_sec=wire_bits / fleet_secs,
        shards=SO_SHARDS,
        producers=SO_PRODUCERS,
        frames=SO_PRODUCERS * SO_FRAMES_PER_PRODUCER,
        single_shard_secs=solo_secs,
        speedup_vs_single_shard=speedup,
        cpu_count=cores,
        smoke=SO_SMOKE,
    )
    record_result(
        "service_scaleout",
        f"scale-out ingest, {SO_PRODUCERS} routed producers x "
        f"{SO_FRAMES_PER_PRODUCER} records over {SO_SHARDS} shard "
        f"processes (m={SO_DOMAIN}, {cores} cores)\n"
        f"fleet:        {fleet_secs * 1e3:.1f}ms -> "
        f"{wire_bits / fleet_secs / 1e6:,.0f} Mbit/s wire\n"
        f"single shard: {solo_secs * 1e3:.1f}ms -> "
        f"{wire_bits / solo_secs / 1e6:,.0f} Mbit/s wire\n"
        f"scale-out speedup: {speedup:.2f}x "
        f"(acceptance bar: >= 3x, asserted only with >= {SO_SHARDS + 1} "
        "cores)",
    )
    if not SO_SMOKE and cores >= SO_SHARDS + 1:
        assert speedup >= 3.0, (
            f"{SO_SHARDS} shard processes deliver only {speedup:.2f}x the "
            "single-shard throughput on hardware with enough cores; the "
            "acceptance bar is 3x"
        )


def _rebalance_frames(producer_id: str) -> list[bytes]:
    """Deterministic per-producer chunk frames for the rebalance run."""
    import hashlib

    import numpy as np

    seed = int.from_bytes(
        hashlib.sha256(producer_id.encode()).digest()[:4], "little"
    )
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(REB_FRAMES_PER_PRODUCER):
        bits = (rng.random((REB_CHUNK, REB_DOMAIN)) < 0.5).astype(np.uint8)
        frames.append(
            wire.dump_chunk(
                np.packbits(bits, axis=1), REB_DOMAIN, round_id=REB_ROUND
            )
        )
    return frames


def bench_service_rebalance(scratch_roots, record_result, record_json):
    """Live rebalance cost: grow 2 shards to 3 under producer traffic.

    Producers stream records continuously while the coordinator admits
    a third shard (``join_shard``: open the round on it, push the
    epoch-bumped table, migrate every moved producer's committed
    records).  Two costs are recorded: the migration's total wall time,
    and the longest gap between any two consecutive record acks across
    all producers during the run — the observed stop-the-world pause
    (each source shard's commit pipeline pauses while its records are
    copied out).  Correctness is asserted, not timed: every record ends
    the round counted exactly once.
    """
    from repro.exceptions import MovedError, ServiceError
    from repro.pipeline.service import RoundCoordinator

    async def run():
        fleet = ShardFleet(
            ["alpha", "beta"],
            fleet_root=scratch_roots() + "/rebalance",
            rounds=[],
            key=REB_KEY,
            control_key=REB_CONTROL_KEY,
        )
        table = await fleet.start()
        try:
            coordinator = RoundCoordinator(
                fleet.infos(), control_key=REB_CONTROL_KEY, epoch=table.epoch
            )
            await coordinator.register_round(REB_DOMAIN, REB_ROUND)
            shared = {"table": coordinator.table}
            ack_times: list[float] = []

            async def stream(producer_id: str) -> None:
                for seq, frame in enumerate(_rebalance_frames(producer_id)):
                    for _attempt in range(40):
                        try:
                            await send_records_routed(
                                shared["table"],
                                [frame],
                                key=REB_KEY,
                                producer_id=producer_id,
                                m=REB_DOMAIN,
                                round_id=REB_ROUND,
                                start_seq=seq,
                                raise_on_refusal=False,
                                control_key=REB_CONTROL_KEY,
                            )
                            break
                        except (
                            MovedError,
                            ServiceError,
                            ConnectionError,
                            OSError,
                        ):
                            await asyncio.sleep(0.02)
                    ack_times.append(time.perf_counter())
                    await asyncio.sleep(0.01)

            producers = [f"edge-{i:03d}" for i in range(REB_PRODUCERS)]
            tasks = [
                asyncio.ensure_future(stream(producer))
                for producer in producers
            ]
            await asyncio.sleep(0.1)  # let traffic establish first

            info = await fleet.add_shard("gamma")
            migrate_start = time.perf_counter()
            stats = await coordinator.join_shard(info)
            migrate_secs = time.perf_counter() - migrate_start
            shared["table"] = coordinator.table
            await asyncio.gather(*tasks)

            await coordinator.drain(REB_ROUND)
            await coordinator.close_round(REB_ROUND)
            result = await aggregate_round(
                coordinator.table.shards(),
                control_key=REB_CONTROL_KEY,
                round_id=REB_ROUND,
                fan_in=2,
            )
            expected = REB_PRODUCERS * REB_FRAMES_PER_PRODUCER
            assert result.records_merged == expected
            assert result.accumulator.n == expected * REB_CHUNK

            # The observed pause: the longest ack silence that overlaps
            # the migration window (gaps wholly outside it are just the
            # producers' own pacing).
            times = sorted(ack_times)
            migrate_end = migrate_start + migrate_secs
            pause = 0.0
            for before, after in zip(times, times[1:]):
                if after >= migrate_start and before <= migrate_end:
                    pause = max(pause, after - before)
            return migrate_secs, pause, stats
        finally:
            fleet.stop()

    migrate_secs, pause_secs, stats = asyncio.run(run())
    record_json(
        "service_rebalance",
        n=REB_PRODUCERS * REB_FRAMES_PER_PRODUCER * REB_CHUNK,
        m=REB_DOMAIN,
        secs=migrate_secs,
        producers=REB_PRODUCERS,
        shards_before=2,
        shards_after=3,
        records_moved=stats["installed"],
        resend_duplicates=stats["duplicates"],
        migration_pause_secs=pause_secs,
        smoke=REB_SMOKE,
    )
    record_result(
        "service_rebalance",
        f"live rebalance, 2 -> 3 shards under {REB_PRODUCERS} streaming "
        f"producers (m={REB_DOMAIN})\n"
        f"migration wall time: {migrate_secs * 1e3:.1f}ms "
        f"({stats['installed']} records moved, "
        f"{stats['duplicates']} resend duplicates)\n"
        f"observed ack pause during migration: {pause_secs * 1e3:.1f}ms",
    )
