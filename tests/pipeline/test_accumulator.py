"""Unit tests for the mergeable CountAccumulator."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import OptimizedUnaryEncoding
from repro.estimation import RoundEstimate, merge_round_estimates
from repro.exceptions import ValidationError
from repro.mechanisms import GeneralizedRandomizedResponse
from repro.pipeline import CountAccumulator


class TestIngestion:
    def test_add_reports_accumulates(self):
        acc = CountAccumulator(3)
        acc.add_reports([[1, 0, 1], [0, 0, 1]])
        assert acc.n == 2
        assert acc.counts().tolist() == [1, 0, 2]

    def test_add_reports_rejects_non_binary(self):
        acc = CountAccumulator(2)
        with pytest.raises(ValidationError, match="0/1"):
            acc.add_reports([[1, 2]])

    def test_add_reports_rejects_wrong_width(self):
        acc = CountAccumulator(2)
        with pytest.raises(ValidationError, match="shape"):
            acc.add_reports([[1, 0, 1]])

    def test_counts_returns_copy(self):
        acc = CountAccumulator(2)
        acc.add_reports([[1, 1]])
        acc.counts()[0] = 99
        assert acc.counts().tolist() == [1, 1]

    def test_packed_round_trip_matches_unpacked(self, rng):
        m = 21  # deliberately not a multiple of 8: trailing pad bits
        reports = (rng.random((40, m)) < 0.3).astype(np.int8)
        plain = CountAccumulator(m)
        plain.add_reports(reports)
        packed = CountAccumulator(m)
        packed.add_packed_reports(np.packbits(reports, axis=1))
        assert np.array_equal(plain.counts(), packed.counts())
        assert plain.n == packed.n == 40

    def test_packed_rejects_wrong_dtype(self):
        acc = CountAccumulator(8)
        with pytest.raises(ValidationError, match="uint8"):
            acc.add_packed_reports(np.zeros((2, 1), dtype=np.int64))

    def test_packed_rejects_wrong_width(self):
        acc = CountAccumulator(17)  # needs 3 packed bytes
        with pytest.raises(ValidationError, match="shape"):
            acc.add_packed_reports(np.zeros((2, 2), dtype=np.uint8))

    def test_add_categories_histograms(self):
        acc = CountAccumulator(4)
        acc.add_categories(np.array([0, 2, 2, 3]))
        assert acc.n == 4
        assert acc.counts().tolist() == [1, 0, 2, 1]

    def test_add_categories_rejects_out_of_domain(self):
        acc = CountAccumulator(4)
        with pytest.raises(ValidationError, match="domain"):
            acc.add_categories(np.array([0, 4]))


class TestMerge:
    def test_shard_split_equals_single_pass(self, rng):
        """Exact mergeability: any shard partition yields identical state."""
        m, n = 16, 200
        reports = (rng.random((n, m)) < 0.4).astype(np.int8)
        single = CountAccumulator(m)
        single.add_reports(reports)
        for split in (1, 57, 100, 199):
            left, right = CountAccumulator(m), CountAccumulator(m)
            left.add_reports(reports[:split])
            right.add_reports(reports[split:])
            merged = CountAccumulator.merge_all([left, right])
            assert np.array_equal(merged.counts(), single.counts())
            assert merged.n == single.n == n

    def test_merge_returns_self_for_chaining(self):
        a, b = CountAccumulator(2), CountAccumulator(2)
        assert a.merge(b) is a

    def test_merge_rejects_width_mismatch(self):
        with pytest.raises(ValidationError, match="width"):
            CountAccumulator(2).merge(CountAccumulator(3))

    def test_merge_rejects_round_mismatch(self):
        with pytest.raises(ValidationError, match="round"):
            CountAccumulator(2, round_id=0).merge(CountAccumulator(2, round_id=1))

    def test_merge_all_rejects_empty(self):
        with pytest.raises(ValidationError, match="no accumulators"):
            CountAccumulator.merge_all([])

    def test_pickle_round_trip(self):
        """Accumulators cross process boundaries intact (sharded driver)."""
        acc = CountAccumulator(3, round_id=7)
        acc.add_reports([[1, 0, 1]])
        clone = pickle.loads(pickle.dumps(acc))
        assert clone.round_id == 7 and clone.n == 1
        assert np.array_equal(clone.counts(), acc.counts())


class TestEstimation:
    def test_estimate_unary_is_calibrated(self, rng):
        m, n = 8, 30_000
        mech = OptimizedUnaryEncoding(3.0, m)
        items = rng.integers(m, size=n)
        acc = CountAccumulator(m)
        acc.add_reports(mech.perturb_many(items, rng))
        truth = np.bincount(items, minlength=m)
        assert np.allclose(acc.estimate(mech), truth, atol=6 * np.sqrt(n))

    def test_estimate_categorical_grr(self, rng):
        m, n = 6, 30_000
        mech = GeneralizedRandomizedResponse(3.0, m)
        items = rng.integers(m, size=n)
        acc = CountAccumulator(m)
        acc.add_categories(mech.perturb_many(items, rng))
        truth = np.bincount(items, minlength=m)
        assert np.allclose(acc.estimate(mech), truth, atol=6 * np.sqrt(n))

    def test_round_estimates_feed_cross_round_merge(self, rng):
        """Two rounds' accumulators combine via merge_round_estimates."""
        m, n = 5, 20_000
        mech = OptimizedUnaryEncoding(2.0, m)
        items = rng.integers(m, size=n)
        rounds = []
        for round_id in range(2):
            acc = CountAccumulator(m, round_id=round_id)
            acc.add_reports(mech.perturb_many(items, rng))
            rounds.append(acc.to_round_estimate(mech))
        assert all(isinstance(r, RoundEstimate) for r in rounds)
        merged, variance = merge_round_estimates(rounds)
        truth = np.bincount(items, minlength=m)
        assert np.allclose(merged, truth, atol=6 * np.sqrt(n))
        assert np.all(variance < rounds[0].noise_variance)

    def test_estimate_empty_accumulator_rejected(self):
        mech = OptimizedUnaryEncoding(2.0, 4)
        with pytest.raises(ValidationError, match="empty"):
            CountAccumulator(4).estimate(mech)

    def test_estimate_unsupported_mechanism_rejected(self):
        acc = CountAccumulator(2)
        acc.add_reports([[1, 0]])
        with pytest.raises(ValidationError, match="estimator"):
            acc.estimate(object())


class TestBinaryRRStreaming:
    def test_estimate_binary_rr(self, rng):
        """BRR has no q attribute; the symmetric q = 1 - p fallback applies."""
        from repro.mechanisms import BinaryRandomizedResponse
        from repro.pipeline import stream_counts

        mech = BinaryRandomizedResponse(3.0)
        bits = (rng.random(30_000) < 0.25).astype(np.int64)
        acc = stream_counts(mech, bits, chunk_size=4_000, rng=rng)
        truth = np.bincount(bits, minlength=2)
        assert np.allclose(acc.estimate(mech), truth, atol=6 * np.sqrt(bits.size))


class TestHashDomainMechanismRejected:
    def test_olh_estimate_raises_instead_of_miscalibrating(self):
        """OLH exposes p/q but needs hash-domain calibration; the
        accumulator must refuse rather than silently return biased numbers."""
        from repro.mechanisms.local_hashing import OptimizedLocalHashing

        olh = OptimizedLocalHashing(1.0, m=10)
        acc = CountAccumulator(10)
        acc.add_categories(np.arange(10))
        with pytest.raises(ValidationError, match="estimator"):
            acc.estimate(olh)


class TestMergeEdgeCases:
    def test_merge_empty_into_filled_is_identity(self):
        acc = CountAccumulator(3)
        acc.add_reports([[1, 0, 1], [1, 1, 0]])
        before = acc.digest()
        acc.merge(CountAccumulator(3))
        assert acc.digest() == before and acc.n == 2

    def test_merge_filled_into_empty_copies_state(self):
        filled = CountAccumulator(3)
        filled.add_reports([[1, 0, 1]])
        empty = CountAccumulator(3)
        empty.merge(filled)
        assert empty.n == 1
        assert np.array_equal(empty.counts(), filled.counts())

    def test_merge_two_empties_stays_empty(self):
        merged = CountAccumulator.merge_all(
            [CountAccumulator(4), CountAccumulator(4)]
        )
        assert merged.n == 0 and merged.counts().tolist() == [0, 0, 0, 0]

    def test_merge_rejects_non_accumulator(self):
        with pytest.raises(ValidationError, match="can only merge"):
            CountAccumulator(2).merge({"counts": [1, 2]})


class TestPackedEdgeCases:
    @pytest.mark.parametrize("m", [1, 7, 9, 21, 63])
    def test_non_multiple_of_8_widths_round_trip(self, m, rng):
        """Every pad-bit geometry counts identically packed or not."""
        reports = (rng.random((25, m)) < 0.5).astype(np.int8)
        plain = CountAccumulator(m)
        plain.add_reports(reports)
        packed = CountAccumulator(m)
        packed.add_packed_reports(np.packbits(reports, axis=1))
        assert np.array_equal(plain.counts(), packed.counts())

    def test_zero_row_packed_chunk_is_noop(self):
        acc = CountAccumulator(12)
        acc.add_packed_reports(np.empty((0, 2), dtype=np.uint8))
        assert acc.n == 0 and acc.counts().tolist() == [0] * 12


class TestFromState:
    def test_round_trips_state(self):
        acc = CountAccumulator.from_state(
            4, np.array([3, 0, 2, 1]), 3, round_id=5
        )
        assert acc.m == 4 and acc.n == 3 and acc.round_id == 5
        assert acc.counts().tolist() == [3, 0, 2, 1]

    def test_rebuilt_state_keeps_ingesting(self):
        acc = CountAccumulator.from_state(2, np.array([1, 0]), 1)
        acc.add_reports([[1, 1]])
        assert acc.n == 2 and acc.counts().tolist() == [2, 1]

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError, match="shape"):
            CountAccumulator.from_state(3, np.array([1, 2]), 2)

    def test_rejects_float_counts(self):
        with pytest.raises(ValidationError, match="integers"):
            CountAccumulator.from_state(2, np.array([1.0, 0.5]), 2)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValidationError, match=r"\[0, n"):
            CountAccumulator.from_state(2, np.array([-1, 0]), 2)

    def test_rejects_counts_exceeding_n(self):
        """No ingestion path can produce a per-bit count above n."""
        with pytest.raises(ValidationError, match=r"\[0, n"):
            CountAccumulator.from_state(2, np.array([3, 0]), 2)

    def test_rejects_negative_n(self):
        with pytest.raises(ValidationError, match="non-negative"):
            CountAccumulator.from_state(2, np.array([0, 0]), -1)


class TestDigest:
    def test_equal_state_equal_digest(self):
        one = CountAccumulator(3, round_id=2)
        one.add_reports([[1, 0, 1]])
        two = CountAccumulator.from_state(3, np.array([1, 0, 1]), 1, round_id=2)
        assert one.digest() == two.digest()

    @pytest.mark.parametrize(
        "other",
        [
            CountAccumulator.from_state(3, np.array([1, 0, 1]), 1, round_id=0),
            CountAccumulator.from_state(3, np.array([1, 1, 1]), 1, round_id=2),
            CountAccumulator.from_state(3, np.array([1, 0, 1]), 2, round_id=2),
            CountAccumulator(4, round_id=2),
        ],
    )
    def test_any_field_change_changes_digest(self, other):
        base = CountAccumulator.from_state(3, np.array([1, 0, 1]), 1, round_id=2)
        assert base.digest() != other.digest()

    def test_digest_is_64_hex_chars(self):
        digest = CountAccumulator(2).digest()
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")


class TestPackedWidthMismatch:
    def test_wider_producer_rejected(self, rng):
        """m=16 reports packed into 2 bytes must not feed an m=12 round."""
        reports = np.ones((4, 16), dtype=np.int8)  # bits 12-15 set
        acc = CountAccumulator(12)
        with pytest.raises(ValidationError, match="widths disagree"):
            acc.add_packed_reports(np.packbits(reports, axis=1))

    def test_same_width_pad_bits_accepted(self, rng):
        reports = (rng.random((4, 12)) < 0.5).astype(np.int8)
        acc = CountAccumulator(12)
        acc.add_packed_reports(np.packbits(reports, axis=1))
        assert acc.n == 4


class TestAbsorbFrame:
    """The merge rule the service applies to every decoded frame."""

    @staticmethod
    def _snapshot(m=8, n=6, round_id=0, seed=0) -> CountAccumulator:
        rng = np.random.default_rng(seed)
        acc = CountAccumulator(m, round_id=round_id)
        acc.add_reports((rng.random((n, m)) < 0.5).astype(np.int8))
        return acc

    @staticmethod
    def _chunk(m=8, k=4, round_id=0, seed=1):
        from repro.pipeline.collect import wire

        rng = np.random.default_rng(seed)
        bits = (rng.random((k, m)) < 0.5).astype(np.uint8)
        return wire.PackedChunk(
            m=m, round_id=round_id, rows=np.packbits(bits, axis=1)
        )

    def test_snapshot_and_chunk_interleave(self):
        acc = CountAccumulator(8)
        snap, chunk = self._snapshot(), self._chunk()
        acc.absorb_frame(snap)
        acc.absorb_frame(chunk)
        expected = CountAccumulator(8)
        expected.merge(snap)
        expected.add_packed_reports(chunk.rows)
        assert acc.digest() == expected.digest()
        assert acc.n == 10

    def test_wrong_width_chunk_refused(self):
        with pytest.raises(ValidationError, match="width"):
            CountAccumulator(8).absorb_frame(self._chunk(m=16))

    def test_wrong_round_chunk_refused(self):
        with pytest.raises(ValidationError, match="round"):
            CountAccumulator(8, round_id=0).absorb_frame(self._chunk(round_id=3))

    def test_wrong_round_snapshot_refused(self):
        with pytest.raises(ValidationError, match="round"):
            CountAccumulator(8, round_id=0).absorb_frame(
                self._snapshot(round_id=1)
            )

    def test_corrupt_frame_refused(self):
        from repro.exceptions import WireFormatError
        from repro.pipeline.collect import wire

        frame = bytearray(wire.dumps(self._snapshot()))
        frame[-1] ^= 0xFF
        acc = CountAccumulator(8)
        with pytest.raises(WireFormatError, match="checksum"):
            acc.absorb_frame(wire.loads(bytes(frame)))
        assert acc.n == 0

    def test_unknown_object_refused(self):
        with pytest.raises(ValidationError, match="cannot ingest"):
            CountAccumulator(8).absorb_frame([1, 2, 3])

    def test_decoded_bytes_and_views_absorb_alike(self):
        # A frame decoded from bytes, a bytearray or a memoryview (the
        # zero-copy path hands read-only row views) merges identically.
        from repro.pipeline.collect import wire

        frames = [wire.dumps(self._snapshot(seed=2)), wire.dumps(self._chunk(seed=3))]
        digests = set()
        for wrap in (bytes, bytearray, memoryview):
            acc = CountAccumulator(8)
            for frame in frames:
                acc.absorb_frame(wire.loads(wrap(frame)))
            digests.add(acc.digest())
        assert len(digests) == 1

    def test_refused_frame_leaves_state_untouched(self):
        acc = CountAccumulator(8)
        acc.absorb_frame(self._snapshot(seed=4))
        before = acc.digest()
        for bad in (self._chunk(m=16), self._chunk(round_id=2), self._snapshot(m=16)):
            with pytest.raises(ValidationError):
                acc.absorb_frame(bad)
        assert acc.digest() == before
