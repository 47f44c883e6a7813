"""Tests for the idempotency ledger: dedup, durability, torn-tail repair."""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.exceptions import LedgerError
from repro.pipeline.service.ledger import DIGEST_SIZE, IdempotencyLedger


def _digest(tag: bytes) -> bytes:
    return hashlib.sha256(tag).digest()


@pytest.fixture
def ledger_path(tmp_path) -> str:
    return str(tmp_path / "round.ledger")


def _committed(path: str, entries) -> IdempotencyLedger:
    ledger = IdempotencyLedger(path)
    ledger.load()
    for producer, seq, tag, end in entries:
        ledger.append(producer, seq, _digest(tag), end)
    ledger.sync()
    ledger.close()
    return ledger


class TestRecordFlow:
    def test_append_then_seen(self, ledger_path):
        ledger = IdempotencyLedger(ledger_path)
        assert ledger.load() == 0
        ledger.append("p", 0, _digest(b"a"), 100)
        entry = ledger.seen("p", 0)
        assert entry.digest == _digest(b"a") and entry.spill_end == 100
        assert ledger.seen("p", 1) is None
        assert ledger.seen("q", 0) is None
        ledger.close()

    def test_double_append_refused(self, ledger_path):
        ledger = IdempotencyLedger(ledger_path)
        ledger.load()
        ledger.append("p", 0, _digest(b"a"), 100)
        with pytest.raises(LedgerError, match="already ledgered"):
            ledger.append("p", 0, _digest(b"b"), 200)
        ledger.close()

    def test_wrong_digest_size_refused(self, ledger_path):
        ledger = IdempotencyLedger(ledger_path)
        ledger.load()
        with pytest.raises(LedgerError, match=f"{DIGEST_SIZE} bytes"):
            ledger.append("p", 0, b"short", 10)
        ledger.close()

    def test_append_before_load_refused(self, ledger_path):
        with pytest.raises(LedgerError, match="not open"):
            IdempotencyLedger(ledger_path).append("p", 0, _digest(b"a"), 1)


class TestPersistence:
    def test_reload_round_trip(self, ledger_path):
        entries = [
            ("edge-1", 0, b"a", 90),
            ("edge-1", 1, b"b", 180),
            ("edge-2", 0, b"c", 260),
        ]
        _committed(ledger_path, entries)
        reloaded = IdempotencyLedger(ledger_path)
        assert reloaded.load() == 3
        assert reloaded.committed_offset == 260
        for producer, seq, tag, end in entries:
            entry = reloaded.seen(producer, seq)
            assert entry.digest == _digest(tag)
            assert entry.spill_end == end
        assert [e.seq for e in reloaded.entries()] == [0, 1, 0]
        reloaded.close()

    def test_missing_file_loads_empty(self, ledger_path):
        ledger = IdempotencyLedger(ledger_path)
        assert ledger.load() == 0
        assert ledger.committed_offset == 0
        ledger.close()

    def test_unicode_producer_ids_round_trip(self, ledger_path):
        _committed(ledger_path, [("producteur-été", 7, b"x", 50)])
        reloaded = IdempotencyLedger(ledger_path)
        reloaded.load()
        assert reloaded.seen("producteur-été", 7) is not None
        reloaded.close()


class TestTornTailRecovery:
    def test_torn_tail_is_truncated(self, ledger_path):
        _committed(ledger_path, [("p", 0, b"a", 90), ("p", 1, b"b", 180)])
        intact = os.path.getsize(ledger_path)
        with open(ledger_path, "ab") as handle:
            handle.write(b"\x00\x01\x02")  # crash mid-append
        reloaded = IdempotencyLedger(ledger_path)
        assert reloaded.load() == 2
        assert reloaded.recovered_bytes_discarded == 3
        assert os.path.getsize(ledger_path) == intact
        assert reloaded.committed_offset == 180
        reloaded.close()

    def test_corrupt_entry_stops_the_parse(self, ledger_path):
        _committed(ledger_path, [("p", 0, b"a", 90), ("p", 1, b"b", 180)])
        size = os.path.getsize(ledger_path)
        with open(ledger_path, "r+b") as handle:
            handle.seek(size // 2 + 6)  # inside the second entry
            handle.write(b"\xff")
        reloaded = IdempotencyLedger(ledger_path)
        assert reloaded.load() == 1
        assert reloaded.seen("p", 0) is not None
        assert reloaded.seen("p", 1) is None
        assert reloaded.committed_offset == 90
        reloaded.close()

    def test_appending_after_recovery_works(self, ledger_path):
        _committed(ledger_path, [("p", 0, b"a", 90)])
        with open(ledger_path, "ab") as handle:
            handle.write(b"torn")
        ledger = IdempotencyLedger(ledger_path)
        ledger.load()
        ledger.append("p", 1, _digest(b"b"), 180)
        ledger.sync()
        ledger.close()
        reloaded = IdempotencyLedger(ledger_path)
        assert reloaded.load() == 2
        reloaded.close()

    def test_duplicate_committed_entries_are_corruption(self, ledger_path):
        _committed(ledger_path, [("p", 0, b"a", 90)])
        blob = open(ledger_path, "rb").read()
        with open(ledger_path, "ab") as handle:
            handle.write(blob)  # the same entry twice cannot happen honestly
        reloaded = IdempotencyLedger(ledger_path)
        with pytest.raises(LedgerError, match="two entries"):
            reloaded.load()


class TestChainDigest:
    ENTRIES = [("p", 0, b"a", 10), ("q", 0, b"b", 25), ("p", 1, b"c", 31)]

    def test_chain_covers_entries_as_the_file_stores_them(self, ledger_path):
        ledger = _committed(ledger_path, self.ENTRIES)
        with open(ledger_path, "rb") as handle:
            blob = handle.read()
        bodies, offset = [], 0
        for producer, _seq, _tag, _end in self.ENTRIES:
            size = 4 + 2 + 8 + 8 + DIGEST_SIZE + len(producer)
            bodies.append(blob[offset + 4 : offset + size])  # minus the CRC
            offset += size
        assert ledger.chain_digest() == hashlib.sha256(b"".join(bodies)).digest()
        assert ledger.chain_digest(2) == hashlib.sha256(
            b"".join(bodies[:2])
        ).digest()
        assert ledger.last().digest == _digest(b"c")

    def test_chain_binds_producer_and_seq(self, ledger_path, tmp_path):
        ledger = _committed(ledger_path, self.ENTRIES)
        # Same frames at the same offsets, other producers and seqs.
        swapped = [("r", 0, b"a", 10), ("q", 0, b"b", 25), ("p", 2, b"c", 31)]
        other = _committed(str(tmp_path / "other.ledger"), swapped)
        assert other.chain_digest() != ledger.chain_digest()

    def test_reload_and_rollback_keep_the_chain(self, ledger_path):
        full = _committed(ledger_path, self.ENTRIES).chain_digest()
        ledger = IdempotencyLedger(ledger_path)
        ledger.load()
        assert ledger.chain_digest() == full
        before = ledger.chain_digest()
        mark = ledger.mark()
        ledger.append("r", 0, _digest(b"d"), 40)
        assert ledger.chain_digest() != before
        ledger.rollback(mark, [("r", 0)])
        assert ledger.chain_digest() == before
        assert ledger.chain_digest(3) == before
        ledger.close()
