"""Tests for the disk-backed ShardStore: spill, replay, audit."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.exceptions import ValidationError, WireFormatError
from repro.pipeline import CountAccumulator, ShardStore
from repro.pipeline.collect import wire


def _spill_one_shard(store, shard_id, bits, *, m, round_id=0, chunk=3):
    """Spill *bits* (k x m 0/1) in small chunks and snapshot the result."""
    acc = CountAccumulator(m, round_id=round_id)
    with store.writer(shard_id, m, round_id=round_id) as writer:
        for start in range(0, len(bits), chunk):
            rows = np.packbits(bits[start : start + chunk], axis=1)
            writer.write(rows)
            acc.add_packed_reports(rows)
    store.write_snapshot(shard_id, acc)
    return acc


class TestSpillReplay:
    def test_replay_shard_reproduces_counts(self, tmp_path, rng):
        m = 21
        store = ShardStore(tmp_path / "round")
        bits = (rng.random((17, m)) < 0.3).astype(np.uint8)
        acc = _spill_one_shard(store, 0, bits, m=m)
        replayed = store.replay_shard(0)
        assert replayed.digest() == acc.digest()
        assert np.array_equal(replayed.counts(), bits.sum(axis=0))

    def test_replay_merges_all_shards(self, tmp_path, rng):
        m = 10
        store = ShardStore(tmp_path / "round")
        total = CountAccumulator(m)
        for shard_id in range(3):
            bits = (rng.random((8, m)) < 0.5).astype(np.uint8)
            total.merge(_spill_one_shard(store, shard_id, bits, m=m))
        assert store.shard_ids() == [0, 1, 2]
        assert store.replay().digest() == total.digest()

    def test_empty_shard_replays_to_empty_accumulator(self, tmp_path):
        store = ShardStore(tmp_path / "round")
        with store.writer(4, 12, round_id=9):
            pass  # no chunks written
        replayed = store.replay_shard(4)
        assert replayed.n == 0 and replayed.m == 12 and replayed.round_id == 9

    def test_replay_missing_shard_rejected(self, tmp_path):
        store = ShardStore(tmp_path / "round")
        with pytest.raises(ValidationError, match="no spilled chunks"):
            store.replay_shard(0)

    def test_replay_empty_store_rejected(self, tmp_path):
        store = ShardStore(tmp_path / "round")
        with pytest.raises(ValidationError, match="no spilled shards"):
            store.replay()

    def test_closed_writer_rejects_writes(self, tmp_path):
        store = ShardStore(tmp_path / "round")
        writer = store.writer(0, 8)
        writer.close()
        with pytest.raises(ValidationError, match="closed"):
            writer.write(np.zeros((1, 1), dtype=np.uint8))

    def test_mixed_round_chunk_file_rejected(self, tmp_path):
        store = ShardStore(tmp_path / "round")
        rows = np.zeros((2, 1), dtype=np.uint8)
        with open(store.chunk_path(0), "wb") as handle:
            handle.write(wire.dump_chunk(rows, 8, round_id=0))
            handle.write(wire.dump_chunk(rows, 8, round_id=1))
        with pytest.raises(WireFormatError, match="mixes"):
            store.replay_shard(0)

    def test_snapshot_frame_in_chunk_file_rejected(self, tmp_path):
        store = ShardStore(tmp_path / "round")
        with open(store.chunk_path(0), "wb") as handle:
            wire.write_frame(handle, CountAccumulator(8))
        with pytest.raises(WireFormatError, match="non-chunk"):
            store.replay_shard(0)


class TestAudit:
    def test_audit_passes_on_faithful_spill(self, tmp_path, rng):
        m = 9
        store = ShardStore(tmp_path / "round")
        for shard_id in range(2):
            bits = (rng.random((11, m)) < 0.4).astype(np.uint8)
            _spill_one_shard(store, shard_id, bits, m=m)
        audit = store.audit()
        assert set(audit) == {0, 1}
        assert all(entry["match"] for entry in audit.values())
        assert all(
            entry["snapshot_digest"] == entry["replay_digest"]
            for entry in audit.values()
        )

    def test_audit_catches_tampered_snapshot(self, tmp_path, rng):
        """A snapshot that disagrees with its spilled chunks must fail."""
        m = 9
        store = ShardStore(tmp_path / "round")
        bits = (rng.random((11, m)) < 0.4).astype(np.uint8)
        _spill_one_shard(store, 0, bits, m=m)
        forged = CountAccumulator(m)
        forged.add_reports(np.ones((3, m), dtype=np.int8))
        store.write_snapshot(0, forged)
        audit = store.audit()
        assert audit[0]["match"] is False

    def test_audit_flags_missing_snapshot(self, tmp_path, rng):
        store = ShardStore(tmp_path / "round")
        with store.writer(0, 8) as writer:
            writer.write(np.zeros((2, 1), dtype=np.uint8))
        audit = store.audit()
        assert audit[0]["snapshot_digest"] is None
        assert audit[0]["match"] is False

    def test_corrupted_spill_file_fails_loudly(self, tmp_path, rng):
        """Bit rot in a spill file must surface as WireFormatError, not as
        silently different counts."""
        m = 16
        store = ShardStore(tmp_path / "round")
        bits = (rng.random((20, m)) < 0.5).astype(np.uint8)
        _spill_one_shard(store, 0, bits, m=m)
        path = store.chunk_path(0)
        with open(path, "r+b") as handle:
            handle.seek(wire.HEADER_SIZE + 1)  # inside the first payload
            byte = handle.read(1)
            handle.seek(wire.HEADER_SIZE + 1)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(WireFormatError, match="checksum"):
            store.replay_shard(0)

    def test_truncated_spill_file_fails_loudly(self, tmp_path, rng):
        """A spill file cut off mid-frame (crashed writer) must not replay
        as merely a shorter round."""
        m = 16
        store = ShardStore(tmp_path / "round")
        bits = (rng.random((20, m)) < 0.5).astype(np.uint8)
        _spill_one_shard(store, 0, bits, m=m)
        path = store.chunk_path(0)
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[:-7])
        with pytest.raises(WireFormatError, match="truncated"):
            store.replay_shard(0)


class TestCheckpointFile:
    def test_round_trip(self, tmp_path, rng):
        m = 12
        store = ShardStore(tmp_path / "round")
        acc = CountAccumulator(m, round_id=3)
        acc.add_reports((rng.random((9, m)) < 0.5).astype(np.int8))
        store.write_checkpoint(0, wire.dumps(acc), b"position")
        state, position = store.load_checkpoint(0)
        assert state.digest() == acc.digest()
        assert position == b"position"

    def test_missing_or_damaged_checkpoint_loads_as_none(self, tmp_path):
        store = ShardStore(tmp_path / "round")
        assert store.load_checkpoint(0) is None
        path = store.write_checkpoint(0, wire.dumps(CountAccumulator(4)), b"p")
        with open(path, "rb") as handle:
            blob = handle.read()
        for damaged in (blob[:-1], blob[:6], blob[:-3] + b"xyz"):
            with open(path, "wb") as handle:
                handle.write(damaged)
            assert store.load_checkpoint(0) is None

    def test_snapshot_file_wins_over_checkpoint(self, tmp_path, rng):
        m = 8
        store = ShardStore(tmp_path / "round")
        bits = (rng.random((6, m)) < 0.5).astype(np.uint8)
        acc = _spill_one_shard(store, 0, bits, m=m)
        store.write_checkpoint(0, wire.dumps(CountAccumulator(m)), b"")
        assert store.load_snapshot(0).digest() == acc.digest()
        assert store.audit()[0]["match"]

    def test_checkpoint_stands_in_for_a_missing_snapshot(self, tmp_path, rng):
        m = 8
        store = ShardStore(tmp_path / "round")
        bits = (rng.random((6, m)) < 0.5).astype(np.uint8)
        acc = _spill_one_shard(store, 0, bits, m=m)
        os.unlink(store.snapshot_path(0))
        store.write_checkpoint(0, wire.dumps(acc), b"")
        assert store.load_snapshot(0).digest() == acc.digest()
        assert store.audit()[0]["match"]


class TestBookkeeping:
    def test_spilled_bytes_counts_chunk_files_only(self, tmp_path, rng):
        import os

        m = 8
        store = ShardStore(tmp_path / "round")
        bits = (rng.random((6, m)) < 0.5).astype(np.uint8)
        _spill_one_shard(store, 0, bits, m=m)
        assert store.spilled_bytes() == os.path.getsize(store.chunk_path(0))

    def test_writer_tracks_rows_and_frames(self, tmp_path):
        store = ShardStore(tmp_path / "round")
        with store.writer(0, 8) as writer:
            writer.write(np.zeros((3, 1), dtype=np.uint8))
            writer.write(np.zeros((2, 1), dtype=np.uint8))
            assert writer.rows_written == 5
            assert writer.frames_written == 2
            assert writer.bytes_written > 0


class TestForeignFilesIgnored:
    def test_shard_ids_skip_non_shard_names(self, tmp_path, rng):
        store = ShardStore(tmp_path / "round")
        bits = (rng.random((5, 8)) < 0.5).astype(np.uint8)
        _spill_one_shard(store, 0, bits, m=8)
        # operator litter that must not break the round
        (tmp_path / "round" / "shard_00001_old.chunks").write_bytes(b"backup")
        (tmp_path / "round" / "notes.txt").write_text("scratch")
        assert store.shard_ids() == [0]
        assert store.replay().n == 5
        assert store.audit()[0]["match"]


class TestReplayAndAudit:
    def test_single_pass_equals_separate_calls(self, tmp_path, rng):
        m = 11
        store = ShardStore(tmp_path / "round")
        for shard_id in range(3):
            bits = (rng.random((9, m)) < 0.4).astype(np.uint8)
            _spill_one_shard(store, shard_id, bits, m=m)
        merged, report = store.replay_and_audit()
        assert merged.digest() == store.replay().digest()
        assert report == store.audit()
        assert all(entry["match"] for entry in report.values())

    def test_empty_store_rejected(self, tmp_path):
        store = ShardStore(tmp_path / "round")
        with pytest.raises(ValidationError, match="no spilled shards"):
            store.replay_and_audit()
