"""Round checkpoints: resume from the count state, replay only the tail.

Every case resumes to the digest of the single-pass ``stream_counts``
reference (or of the reference restricted to the producers the round
still counts), and checks how much spill the resume had to decode:
``RoundState.replayed_records`` is the tail past the checkpoint it
started from, or every ledgered record when no checkpoint was usable.
"""

from __future__ import annotations

import asyncio
import os

import numpy as np
import pytest

from repro.kernels import resolve_sampler
from repro.mechanisms import OptimizedUnaryEncoding
from repro.pipeline import (
    CollectionService,
    iter_report_chunks,
    send_records,
    shard_bounds,
    stream_counts,
)
from repro.pipeline.collect import wire
from repro.pipeline.collect.store import ShardStore
from repro.pipeline.service import ServiceLimits, rounds
from repro.pipeline.service.rounds import SERVICE_SHARD_ID, RoundState

M, N, CHUNK, PRODUCERS, SEED = 16, 480, 16, 2, 5
KEY = "checkpoint-test-key"


@pytest.fixture(scope="module")
def workload():
    """Per-producer record frames and per-producer references."""
    mechanism = OptimizedUnaryEncoding(2.0, M)
    items = np.random.default_rng(SEED).integers(M, size=N)
    config = resolve_sampler("fast")
    children = np.random.SeedSequence(SEED).spawn(PRODUCERS)
    frames, references = [], []
    for (start, stop), child in zip(shard_bounds(N, PRODUCERS), children):
        frames.append(
            [
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
        )
        references.append(
            stream_counts(
                mechanism,
                items[start:stop],
                chunk_size=CHUNK,
                rng=config.make_generator(child),
                packed=True,
                sampler=config,
            )
        )
    return frames, references


def _merged(references):
    merged = None
    for reference in references:
        merged = (
            reference.counts() if merged is None else merged + reference.counts()
        )
    return merged, sum(reference.n for reference in references)


def _digest_of(references) -> str:
    from repro.pipeline import CountAccumulator

    counts, n = _merged(references)
    return CountAccumulator.from_state(M, counts, n).digest()


def _ingest(root, frames, *, graceful: bool, resume: bool = False):
    """Send every producer's frames; close gracefully or abort."""

    async def main():
        service = CollectionService(M, key=KEY, store_root=root, resume=resume)
        host, port = await service.serve()
        statuses = []
        try:
            for index, producer_frames in enumerate(frames):
                acks = await send_records(
                    host, port, producer_frames, key=KEY,
                    producer_id=f"p{index}", m=M,
                )
                statuses.extend(ack.status for ack in acks)
        finally:
            await (service.close() if graceful else service.abort())
        return service, statuses

    return asyncio.run(main())


def _resume(root) -> RoundState:
    service = CollectionService(M, key=KEY, store_root=root, resume=True)
    asyncio.run(service.abort())
    return service.round(0)


class TestCheckpointedResume:
    def test_graceful_close_resumes_without_replay(self, workload, tmp_path):
        frames, references = workload
        root = str(tmp_path / "round")
        _ingest(root, frames, graceful=True)
        store = ShardStore(root)
        assert os.path.exists(store.checkpoint_path(SERVICE_SHARD_ID))
        # The checkpoint replaced the service round's unread snapshot.
        assert not os.path.exists(store.snapshot_path(SERVICE_SHARD_ID))
        state = _resume(root)
        total = sum(len(producer) for producer in frames)
        assert state.replayed_records == 0
        assert state.recovered_records == total
        assert state.accumulator.digest() == _digest_of(references)
        # The audit reads the checkpoint as the shard's stored state.
        assert store.audit()[SERVICE_SHARD_ID]["match"] is True

    def test_crash_resume_replays_at_most_the_cadence(
        self, workload, tmp_path, monkeypatch
    ):
        frames, references = workload
        monkeypatch.setattr(rounds, "CHECKPOINT_RECORDS", 4)
        root = str(tmp_path / "round")
        service, _ = _ingest(root, frames, graceful=False)
        total = sum(len(producer) for producer in frames)
        assert service.round(0).checkpoint_errors == 0
        state = _resume(root)
        assert state.replayed_records <= rounds.CHECKPOINT_RECORDS
        assert state.recovered_records == total
        assert state.accumulator.digest() == _digest_of(references)
        # Blind resend after the checkpointed resume: all duplicates.
        service, statuses = _ingest(root, frames, graceful=True, resume=True)
        assert statuses == [wire.ACK_DUPLICATE] * total
        assert service.accumulator.digest() == _digest_of(references)

    def test_byte_cadence_alone_triggers_checkpoints(
        self, workload, tmp_path, monkeypatch
    ):
        frames, references = workload
        monkeypatch.setattr(rounds, "CHECKPOINT_BYTES", 3 * len(frames[0][0]))
        root = str(tmp_path / "round")
        _ingest(root, frames, graceful=False)
        state = _resume(root)
        assert state.replayed_records < 3
        assert state.accumulator.digest() == _digest_of(references)

    def test_committer_checkpoints_at_the_module_cadence(self, tmp_path):
        """At the shipped constant: more than CHECKPOINT_RECORDS records
        commit, the process dies, and resume decodes only the tail."""
        rng = np.random.default_rng(3)
        width = (M + 7) // 8
        frames = [
            wire.dump_chunk(rng.integers(0, 256, (2, width), dtype=np.uint8), M)
            for _ in range(rounds.CHECKPOINT_RECORDS + 77)
        ]
        root = str(tmp_path / "round")
        service, statuses = _ingest(root, [frames], graceful=False)
        assert statuses == [wire.ACK_MERGED] * len(frames)
        state = _resume(root)
        assert 0 < state.replayed_records <= rounds.CHECKPOINT_RECORDS
        assert state.replayed_records < len(frames)
        assert state.accumulator.digest() == service.accumulator.digest()

    def test_resume_rewrites_the_checkpoint_after_a_tail(
        self, workload, tmp_path
    ):
        frames, references = workload
        root = str(tmp_path / "round")
        _ingest(root, frames, graceful=False)  # cadence not reached
        first = _resume(root)
        total = sum(len(producer) for producer in frames)
        assert first.replayed_records == total  # no checkpoint yet
        second = _resume(root)
        assert second.replayed_records == 0
        assert second.accumulator.digest() == _digest_of(references)

    def test_stats_report_replay_and_checkpoint_errors(self, workload, tmp_path):
        frames, _ = workload
        root = str(tmp_path / "round")
        _ingest(root, frames, graceful=True)
        stats = _resume(root).stats()
        assert stats["replayed_records"] == 0
        assert stats["checkpoint_errors"] == {"count": 0, "last": None}


class TestUnusableCheckpoints:
    @pytest.mark.parametrize(
        "damage",
        ["torn", "crc", "empty", "garbage", "wrong-magic"],
    )
    def test_damaged_checkpoint_means_full_replay(
        self, workload, tmp_path, damage
    ):
        frames, references = workload
        root = str(tmp_path / "round")
        _ingest(root, frames, graceful=True)
        path = ShardStore(root).checkpoint_path(SERVICE_SHARD_ID)
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        if damage == "torn":
            blob = blob[: len(blob) - 9]
        elif damage == "crc":
            blob[len(blob) // 2] ^= 0x40
        elif damage == "empty":
            blob = bytearray()
        elif damage == "garbage":
            blob = bytearray(os.urandom(len(blob)))
        else:
            blob[:4] = b"XXXX"
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        state = _resume(root)
        total = sum(len(producer) for producer in frames)
        assert state.replayed_records == total
        assert state.accumulator.digest() == _digest_of(references)

    def test_previous_incarnation_checkpoint_is_rejected(
        self, workload, tmp_path
    ):
        """Spill and ledger removed, checkpoint kept: the next incarnation
        of the round never starts from the old count state, even when
        its ledger is longer than the checkpoint's and ends in the same
        frames."""
        frames, references = workload
        root = str(tmp_path / "round")
        # Old incarnation: only p1's records, closed with a checkpoint.
        _ingest(root, [[], frames[1]], graceful=True)
        store = ShardStore(root)
        for path in (
            store.chunk_path(SERVICE_SHARD_ID),
            store.index_path(SERVICE_SHARD_ID),
            os.path.join(root, rounds.LEDGER_FILENAME),
        ):
            os.unlink(path)
        assert os.path.exists(store.checkpoint_path(SERVICE_SHARD_ID))
        # New incarnation: p0 first, then the same p1 frames; aborted,
        # so the old checkpoint is what a resume finds.
        _ingest(root, frames, graceful=False)
        state = _resume(root)
        total = sum(len(producer) for producer in frames)
        assert state.replayed_records == total
        assert state.accumulator.digest() == _digest_of(references)

    def test_same_tail_different_prefix_is_rejected(self, workload, tmp_path):
        """A checkpoint whose last covered entry matches (same index,
        same spill_end, same frame) but whose earlier frames differ."""
        frames, references = workload
        root = str(tmp_path / "round")
        # Old incarnation: p1's first frame under p0's seqs, then p0's
        # record 1..: same sizes, same last frame, different counts.
        old = [[frames[1][0]] + frames[0][1:]]
        _ingest(root, old, graceful=True)
        store = ShardStore(root)
        for path in (
            store.chunk_path(SERVICE_SHARD_ID),
            store.index_path(SERVICE_SHARD_ID),
            os.path.join(root, rounds.LEDGER_FILENAME),
        ):
            os.unlink(path)
        _ingest(root, [frames[0]], graceful=False)
        state = _resume(root)
        assert state.replayed_records == len(frames[0])
        assert state.accumulator.digest() == _digest_of(references[:1])

    def test_checkpoint_under_another_exclusion_set_is_ignored(
        self, workload, tmp_path
    ):
        """migrate-out and migrate-back each change the exclusion set, so
        each rebuild (and a restart after it) replays in full."""
        frames, references = workload
        root = str(tmp_path / "round")
        _ingest(root, frames, graceful=True)  # checkpoint: nobody excluded
        store = ShardStore(root)
        path = store.checkpoint_path(SERVICE_SHARD_ID)
        with open(path, "rb") as handle:
            unexcluded_checkpoint = handle.read()
        total = sum(len(producer) for producer in frames)

        service = CollectionService(M, key=KEY, store_root=root, resume=True)
        state = service.round(0)
        assert state.replayed_records == 0
        moved = state.migrate_out(["p1"], epoch=1)
        assert len(moved) == len(frames[1])
        assert state.replayed_records == total  # the checkpoint was ignored
        assert state.accumulator.digest() == _digest_of(references[:1])
        asyncio.run(service.abort())

        # A restart under {p1} ignores a checkpoint taken under {}.
        with open(path, "wb") as handle:
            handle.write(unexcluded_checkpoint)
        service = CollectionService(M, key=KEY, store_root=root, resume=True)
        state = service.round(0)
        assert state.replayed_records == total
        assert state.accumulator.digest() == _digest_of(references[:1])
        # The rebuild wrote a {p1} checkpoint; migrating p1 back lifts
        # the exclusion, so that checkpoint is ignored in turn.
        result = state.absorb_migrated(moved)
        assert result == {"installed": 0, "duplicates": len(frames[1])}
        assert state.replayed_records == total
        assert state.accumulator.digest() == _digest_of(references)
        asyncio.run(service.close())

        state = _resume(root)
        assert state.replayed_records == 0
        assert state.accumulator.digest() == _digest_of(references)


class TestRelease:
    def _open(self, root, *, resume=False) -> RoundState:
        return RoundState(M, 0, ShardStore(root), ServiceLimits(), resume=resume)

    def test_release_removes_checkpoint_and_leftover_tmp(self, tmp_path):
        root = str(tmp_path / "round")
        state = self._open(root)
        checkpoint = state.store.checkpoint_path(SERVICE_SHARD_ID)
        for path in (checkpoint, checkpoint + ".k3x9.tmp"):
            with open(path, "wb") as handle:
                handle.write(b"left behind")
        state.release()
        assert not os.path.exists(root)

    def test_release_keeps_preexisting_checkpoint(self, workload, tmp_path):
        frames, _ = workload
        root = str(tmp_path / "round")
        _ingest(root, frames, graceful=True)
        state = self._open(root, resume=True)
        state.release()
        assert os.path.exists(state.store.checkpoint_path(SERVICE_SHARD_ID))
