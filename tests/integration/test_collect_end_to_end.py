"""End-to-end: durable and networked collection match in-memory exactly.

The acceptance bar for the collection subsystem: on the same seed, the
spill→replay path and the service-ingest path must produce *estimates
bit-identical* to the in-memory ``stream_counts`` path — not close, not
statistically indistinguishable: identical float64 arrays, because every
path aggregates the very same integer counts.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.mechanisms import OptimizedUnaryEncoding
from repro.pipeline import (
    CollectionService,
    ShardedRunner,
    ShardStore,
    send_records,
    shard_bounds,
)
from repro.pipeline.collect import wire

M, N, CHUNK, SHARDS, SEED = 24, 900, 128, 3, 42
KEY = "0123456789abcdef"


@pytest.fixture(params=["bitexact", "fast"])
def sampler(request) -> str:
    return request.param


@pytest.fixture
def workload():
    mechanism = OptimizedUnaryEncoding(2.0, M)
    items = np.random.default_rng(7).integers(M, size=N)
    return mechanism, items


async def _ship(store_root, producer_frames) -> CollectionService:
    """Ship each producer's frames to a fresh service; return it closed."""
    service = CollectionService(M, key=KEY, store_root=str(store_root))
    host, port = await service.serve()
    try:
        ack_lists = await asyncio.gather(
            *(
                send_records(
                    host, port, frames, key=KEY, producer_id=f"shard-{index}", m=M
                )
                for index, frames in enumerate(producer_frames)
            )
        )
    finally:
        await service.close()
    assert all(
        ack.status == wire.ACK_MERGED for acks in ack_lists for ack in acks
    )
    return service


def _in_memory_reference(mechanism, items, sampler):
    """The plain sharded in-memory run every other path must reproduce."""
    return ShardedRunner(
        mechanism,
        num_shards=SHARDS,
        chunk_size=CHUNK,
        packed=True,
        processes=1,
        sampler=sampler,
    ).run(items, seed=SEED)


class TestSpillReplayPath:
    def test_estimates_bit_identical(self, workload, sampler, tmp_path):
        mechanism, items = workload
        reference = _in_memory_reference(mechanism, items, sampler)
        runner = ShardedRunner(
            mechanism,
            num_shards=SHARDS,
            chunk_size=CHUNK,
            packed=True,
            processes=1,
            sampler=sampler,
        )
        live = runner.run(items, seed=SEED, spill_dir=str(tmp_path / "round"))
        store = ShardStore(str(tmp_path / "round"))
        replayed = store.replay()

        assert live.digest() == reference.digest()
        assert replayed.digest() == reference.digest()
        # Bit-identical estimates, not merely close:
        assert np.array_equal(
            replayed.estimate(mechanism), reference.estimate(mechanism)
        )
        audit = store.audit()
        assert len(audit) == SHARDS
        assert all(entry["match"] for entry in audit.values())


class TestSocketIngestPath:
    def test_estimates_bit_identical(self, workload, sampler, tmp_path):
        """Each shard streams per-chunk records to the service over a
        localhost socket; the service's round equals the in-memory one."""
        mechanism, items = workload
        reference = _in_memory_reference(mechanism, items, sampler)

        # Reproduce the reference's exact per-shard chunk streams: same
        # shard bounds, same spawned child seeds, same chunk size.
        children = np.random.SeedSequence(SEED).spawn(SHARDS)
        from repro.kernels import resolve_sampler
        from repro.pipeline import iter_report_chunks

        config = resolve_sampler(sampler)
        shard_frames = []
        for (start, stop), child in zip(shard_bounds(N, SHARDS), children):
            frames = [
                wire.dump_chunk(chunk, M)
                for chunk in iter_report_chunks(
                    mechanism,
                    items[start:stop],
                    chunk_size=CHUNK,
                    rng=config.make_generator(child),
                    packed=True,
                    sampler=config,
                )
            ]
            shard_frames.append(frames)

        service = asyncio.run(_ship(tmp_path / "service", shard_frames))
        assert service.accumulator.digest() == reference.digest()
        assert np.array_equal(
            service.accumulator.estimate(mechanism),
            reference.estimate(mechanism),
        )


class TestSnapshotRelayPath:
    def test_worker_snapshots_over_socket_match(self, workload, sampler, tmp_path):
        """PrivCount shape: shards spill locally, ship only snapshots; the
        service's merge equals the reference bit for bit."""
        mechanism, items = workload
        reference = _in_memory_reference(mechanism, items, sampler)
        runner = ShardedRunner(
            mechanism,
            num_shards=SHARDS,
            chunk_size=CHUNK,
            packed=True,
            processes=1,
            sampler=sampler,
        )
        runner.run(items, seed=SEED, spill_dir=str(tmp_path / "round"))
        store = ShardStore(str(tmp_path / "round"))

        snapshots = [[store.load_snapshot(i)] for i in store.shard_ids()]
        service = asyncio.run(_ship(tmp_path / "service", snapshots))
        assert service.accumulator.digest() == reference.digest()
        assert np.array_equal(
            service.accumulator.estimate(mechanism),
            reference.estimate(mechanism),
        )
