"""Faults around round checkpoints: the checkpoint is advisory.

A checkpoint only ever shortens a replay.  Whatever happens to it — a
write that fails with ENOSPC/EIO, a process killed right after one was
written, a crash torn through its temp file or through the spill and
ledger writes around it — every acknowledged record is counted exactly
once, and the resumed round is bit-identical to the single-pass
``stream_counts`` reference once producers blindly resend.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import tempfile
import time

import fault_harness
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kernels import resolve_sampler
from repro.mechanisms import OptimizedUnaryEncoding
from repro.pipeline import (
    CollectionService,
    CountAccumulator,
    iter_report_chunks,
    send_records,
    shard_bounds,
    stream_counts,
)
from repro.pipeline.collect import wire
from repro.pipeline.collect.store import ShardStore
from repro.pipeline.service import ShardProcess, rounds
from repro.pipeline.service.rounds import SERVICE_SHARD_ID, round_namespace

M, N, CHUNK, PRODUCERS, SEED = 16, 240, 16, 2, 29
KEY = "checkpoint-fault-key"


@pytest.fixture(scope="module")
def workload():
    """Per-producer record frames plus the merged single-pass reference."""
    mechanism = OptimizedUnaryEncoding(2.0, M)
    items = np.random.default_rng(SEED).integers(M, size=N)
    config = resolve_sampler("fast")
    children = np.random.SeedSequence(SEED).spawn(PRODUCERS)
    frames, references = [], []
    for (start, stop), child in zip(shard_bounds(N, PRODUCERS), children):
        frames.append(
            [
                wire.dump_chunk(chunk, M, round_id=1)
                for chunk in iter_report_chunks(
                    mechanism,
                    items[start:stop],
                    chunk_size=CHUNK,
                    rng=config.make_generator(child),
                    packed=True,
                    sampler=config,
                )
            ]
        )
        references.append(
            stream_counts(
                mechanism,
                items[start:stop],
                chunk_size=CHUNK,
                rng=config.make_generator(child),
                packed=True,
                round_id=1,
                sampler=config,
            )
        )
    merged = CountAccumulator(M, round_id=1)
    for reference in references:
        merged.merge(reference)
    return frames, references, merged


ROUND = {"m": M, "round_id": 1}


async def _send_all(host, port, frames, *, max_inflight=64):
    statuses = []
    for index, producer_frames in enumerate(frames):
        acks = await send_records(
            host, port, producer_frames, key=KEY, producer_id=f"p{index}",
            m=M, round_id=1, max_inflight=max_inflight,
        )
        statuses.extend(ack.status for ack in acks)
    return statuses


def _ingest_until_fault(injector, root, frames, **send):
    """Serve and send until the armed fault fires (or everything lands);
    a fatal fault tears the service down as a dead process would."""

    async def main():
        service = CollectionService(rounds=[ROUND], key=KEY, store_root=root)
        host, port = await service.serve()
        statuses = []
        try:
            statuses = await _send_all(host, port, frames, **send)
        except Exception:
            pass  # the fault firing mid-send is the point
        if not injector.crashed:
            # A fault armed past the ingest may fire at shutdown.
            with contextlib.suppress(fault_harness.FaultInjected):
                await service.abort()
        if injector.crashed:
            await fault_harness.abandon(service)
        return service, statuses

    return asyncio.run(main())


def _resume(root):
    """Resume and abort: the recovered round, nothing resent."""
    service = CollectionService(
        rounds=[ROUND], key=KEY, store_root=root, resume=True
    )
    asyncio.run(service.abort())
    return service.round(1)


def _resume_and_resend(root, frames):
    async def main():
        service = CollectionService(
            rounds=[ROUND], key=KEY, store_root=root, resume=True
        )
        host, port = await service.serve()
        try:
            statuses = await _send_all(host, port, frames)
        finally:
            await service.close()
        return service.round(1), statuses

    return asyncio.run(main())


def _checkpoint_path(root) -> str:
    return ShardStore(os.path.join(root, round_namespace(1))).checkpoint_path(
        SERVICE_SHARD_ID
    )


class TestCheckpointWriteErrors:
    @pytest.mark.parametrize(
        "arm",
        [
            pytest.param(
                lambda inj: inj.io_error_on_write(".checkpoint", nth=1),
                id="enospc-on-write",
            ),
            pytest.param(
                lambda inj: inj.io_error_on_fsync(".checkpoint", nth=2),
                id="eio-on-fsync",
            ),
        ],
    )
    def test_failed_checkpoint_write_never_fails_a_commit(
        self, arm, fault_injector, workload, tmp_path, monkeypatch
    ):
        frames, _, reference = workload
        monkeypatch.setattr(rounds, "CHECKPOINT_RECORDS", 4)
        arm(fault_injector)
        root = str(tmp_path / "rounds")
        # One record per commit: a checkpoint every fourth commit, so
        # later checkpoints succeed after the failed one.
        service, statuses = _ingest_until_fault(
            fault_injector, root, frames, max_inflight=1
        )
        assert fault_injector.fired, "the armed fault never fired"
        assert not fault_injector.crashed
        total = sum(len(producer) for producer in frames)
        assert statuses == [wire.ACK_MERGED] * total
        state = service.round(1)
        assert state.accumulator.digest() == reference.digest()
        errors = state.stats()["checkpoint_errors"]
        assert errors["count"] == 1
        assert "simulated IO error" in errors["last"]
        # The failed write left no temp file behind.
        directory = os.path.dirname(_checkpoint_path(root))
        assert not [name for name in os.listdir(directory) if name.endswith(".tmp")]
        fault_injector.disarm()
        resumed = _resume(root)
        assert resumed.replayed_records <= rounds.CHECKPOINT_RECORDS
        assert resumed.accumulator.digest() == reference.digest()


class TestKillAfterCheckpoint:
    def test_kill_between_checkpoint_write_and_next_commit(
        self, workload, tmp_path, monkeypatch
    ):
        """SIGKILL a shard process right after its committer wrote a
        checkpoint covering every acked record: resume replays nothing,
        and the next producer's records plus a blind resend of the first
        land exactly once."""
        frames, references, reference = workload
        # Forked children inherit the patched cadence: every commit
        # rewrites the checkpoint.
        monkeypatch.setattr(rounds, "CHECKPOINT_RECORDS", 1)
        root = str(tmp_path / "shard")
        shard = ShardProcess("ckpt", store_root=root, rounds=[ROUND], key=KEY)
        try:
            info = shard.start()
            statuses = asyncio.run(
                _send_all(info.host, info.port, frames[:1])
            )
            assert statuses == [wire.ACK_MERGED] * len(frames[0])
            store = ShardStore(os.path.dirname(_checkpoint_path(root)))
            deadline = time.monotonic() + 10.0
            while True:
                loaded = store.load_checkpoint(SERVICE_SHARD_ID)
                if loaded is not None and loaded[0].n == references[0].n:
                    break
                assert time.monotonic() < deadline, "no covering checkpoint"
                time.sleep(0.01)
        finally:
            shard.kill()
        state = _resume(root)
        assert state.replayed_records == 0
        assert state.accumulator.digest() == references[0].digest()
        state, statuses = _resume_and_resend(root, frames)
        assert statuses == (
            [wire.ACK_DUPLICATE] * len(frames[0])
            + [wire.ACK_MERGED] * len(frames[1])
        )
        assert state.accumulator.digest() == reference.digest()


_CRASHES = {
    "torn": lambda inj, target, nth: inj.torn_write(target, nth=nth),
    "fsync": lambda inj, target, nth: inj.crash_on_fsync(target, nth=nth),
}


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    cadence=st.integers(1, 6),
    target=st.sampled_from([".chunks", "round.ledger", ".checkpoint"]),
    crash=st.sampled_from(sorted(_CRASHES)),
    nth=st.integers(1, 12),
)
def test_any_crash_point_any_checkpoint_position(
    workload, cadence, target, crash, nth
):
    """Crash point x checkpoint position: the checkpointed resume equals
    a full replay of the same ledger, decodes no more than the ledger
    holds, and blind resends then land the exact reference."""
    frames, _, reference = workload
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(rounds, "CHECKPOINT_RECORDS", cadence)
        injector = fault_harness.FaultInjector()
        injector.install(mp, tmp)
        _CRASHES[crash](injector, target, nth)
        root = os.path.join(tmp, "rounds")
        _ingest_until_fault(injector, root, frames)
        injector.disarm()

        checkpointed = _resume(root)
        committed = len(checkpointed.ledger)
        assert checkpointed.replayed_records <= committed
        with contextlib.suppress(FileNotFoundError):
            os.unlink(_checkpoint_path(root))
        full = _resume(root)
        assert full.replayed_records == committed
        assert checkpointed.accumulator.digest() == full.accumulator.digest()

        state, statuses = _resume_and_resend(root, frames)
        assert statuses.count(wire.ACK_DUPLICATE) == committed
        assert state.accumulator.digest() == reference.digest()
