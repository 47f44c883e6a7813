"""Append-only idempotency ledger: the service's exactly-once memory.

Every merged record leaves one entry — ``(producer_id, seq, digest,
spill_end)`` — appended and fsync'd *before* the producer's ack goes
out.  That ordering is the whole protocol:

* ack received by a producer ⟹ the entry (and, because the spill is
  fsync'd first, the frame bytes it points at) survive a crash;
* entry present ⟹ a resend of the same ``(producer_id, seq)`` is
  acknowledged as a duplicate and **not** re-merged;
* entry absent ⟹ the frame was never acked, so the producer's blind
  resend merges exactly once.

``spill_end`` records the spill-file offset after the frame was
appended, making the ledger the round's commit log: on restart,
:meth:`IdempotencyLedger.committed_offset` is the high-water mark the
spill is truncated back to — frames spilled but never ledgered (crash
in the window between the two fsyncs) are dropped and will be resent.

On-disk format: self-delimiting binary entries

``[ u32 CRC32 of the rest ][ u16 producer_len ][ u64 seq ]
  [ u64 spill_end ][ 32 B frame digest ][ producer utf-8 ]``

A torn tail (crash mid-append) fails the length or CRC check and is
truncated away on load; entries before it are untouched.  Everything is
little-endian, matching the wire format.
"""

from __future__ import annotations

import hashlib
import os
import struct
import zlib
from dataclasses import dataclass
from itertools import islice

from ...exceptions import LedgerError

__all__ = ["IdempotencyLedger", "LedgerEntry", "DIGEST_SIZE"]

DIGEST_SIZE = 32  # SHA-256 of the record's core-frame bytes
_HEAD = struct.Struct("<IHQQ")  # crc, producer_len, seq, spill_end


def _entry_body(producer: bytes, seq: int, spill_end: int, digest: bytes) -> bytes:
    """One entry as the file stores it after its CRC."""
    return struct.pack("<HQQ", len(producer), seq, spill_end) + digest + producer


@dataclass(frozen=True)
class LedgerEntry:
    """One committed record: who sent it, which slot, which bytes."""

    producer_id: str
    seq: int
    digest: bytes
    spill_end: int


class IdempotencyLedger:
    """Crash-safe dedup index over ``(producer_id, seq)``.

    Usage: :meth:`load` once (recovering a torn tail), then
    :meth:`seen` / :meth:`append` / :meth:`sync` per record.  The
    in-memory index is a dict, so dedup lookups are O(1) regardless of
    round size; the file is only ever appended to or tail-truncated.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._entries: dict[tuple[str, int], LedgerEntry] = {}
        self._handle = None
        self.committed_offset = 0
        self.recovered_bytes_discarded = 0
        # Running SHA-256 over the entries' bodies, in commit order.
        self._chain = hashlib.sha256()

    # ------------------------------------------------------------------
    # Loading / recovery
    # ------------------------------------------------------------------
    def _parse(self, blob: bytes) -> int:
        """Fill the index from *blob*; returns the valid byte length."""
        offset = 0
        while offset < len(blob):
            head = blob[offset : offset + _HEAD.size]
            if len(head) < _HEAD.size:
                break  # torn mid-head
            crc, producer_len, seq, spill_end = _HEAD.unpack(head)
            end = offset + _HEAD.size + DIGEST_SIZE + producer_len
            if end > len(blob):
                break  # torn mid-entry
            body = blob[offset + 4 : end]
            if crc != zlib.crc32(body):
                break  # torn (or corrupted) entry; nothing after is trusted
            digest = blob[
                offset + _HEAD.size : offset + _HEAD.size + DIGEST_SIZE
            ]
            try:
                producer_id = blob[offset + _HEAD.size + DIGEST_SIZE : end].decode(
                    "utf-8"
                )
            except UnicodeDecodeError:
                break
            entry = LedgerEntry(
                producer_id=producer_id,
                seq=seq,
                digest=digest,
                spill_end=spill_end,
            )
            key = (producer_id, seq)
            if key in self._entries:
                raise LedgerError(
                    f"ledger {self.path} holds two entries for producer "
                    f"{producer_id!r} seq {seq}; the file is corrupt beyond "
                    "tail-truncation repair"
                )
            self._entries[key] = entry
            self._chain.update(body)
            self.committed_offset = max(self.committed_offset, spill_end)
            offset = end
        return offset

    def load(self) -> int:
        """Read the ledger, truncating a torn tail; returns entry count.

        Opens the file for appending afterwards, so the ledger is ready
        for new records as soon as it has loaded.
        """
        if self._handle is not None:
            raise LedgerError(f"ledger {self.path} is already open")
        blob = b""
        if os.path.exists(self.path):
            with open(self.path, "rb") as handle:
                blob = handle.read()
        valid = self._parse(blob)
        self.recovered_bytes_discarded = len(blob) - valid
        if self.recovered_bytes_discarded:
            with open(self.path, "r+b") as handle:
                handle.truncate(valid)
        self._handle = open(self.path, "ab")
        return len(self._entries)

    # ------------------------------------------------------------------
    # Record flow
    # ------------------------------------------------------------------
    def seen(self, producer_id: str, seq: int) -> LedgerEntry | None:
        """The committed entry for ``(producer_id, seq)``, if any."""
        return self._entries.get((producer_id, int(seq)))

    def append(
        self, producer_id: str, seq: int, digest: bytes, spill_end: int
    ) -> LedgerEntry:
        """Stage one committed record (call :meth:`sync` before acking)."""
        if self._handle is None:
            raise LedgerError(f"ledger {self.path} is not open; call load()")
        digest = bytes(digest)
        if len(digest) != DIGEST_SIZE:
            raise LedgerError(
                f"ledger digests are {DIGEST_SIZE} bytes, got {len(digest)}"
            )
        key = (producer_id, int(seq))
        if key in self._entries:
            raise LedgerError(
                f"producer {producer_id!r} seq {seq} is already ledgered; "
                "check seen() before append()"
            )
        body = _entry_body(
            producer_id.encode("utf-8"), int(seq), int(spill_end), digest
        )
        self._handle.write(struct.pack("<I", zlib.crc32(body)) + body)
        entry = LedgerEntry(
            producer_id=producer_id,
            seq=int(seq),
            digest=digest,
            spill_end=int(spill_end),
        )
        self._entries[key] = entry
        self._chain.update(body)
        self.committed_offset = max(self.committed_offset, int(spill_end))
        return entry

    def sync(self) -> None:
        """Flush and fsync staged entries; the commit point before ack."""
        if self._handle is None:
            raise LedgerError(f"ledger {self.path} is not open; call load()")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def mark(self) -> int:
        """Flushed file size now — a rollback point for a batch append."""
        if self._handle is None:
            raise LedgerError(f"ledger {self.path} is not open; call load()")
        self._handle.flush()
        return os.fstat(self._handle.fileno()).st_size

    def rollback(self, mark: int, keys) -> None:
        """Undo a failed batch: drop *keys* from the index and truncate
        the file back to *mark* (from :meth:`mark` before the batch).

        The repair path when an append/fsync fails partway through a
        group commit — without it, entries for frames that were never
        acknowledged (or file bytes that never fsync'd) would poison
        the round.
        """
        if self._handle is None:
            raise LedgerError(f"ledger {self.path} is not open; call load()")
        for key in keys:
            self._entries.pop((key[0], int(key[1])), None)
        self._chain = self._chain_over(self._entries.values())
        self._handle.flush()
        os.ftruncate(self._handle.fileno(), int(mark))
        self.committed_offset = max(
            (entry.spill_end for entry in self._entries.values()), default=0
        )

    def close(self) -> None:
        if self._handle is None:
            return
        handle, self._handle = self._handle, None
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[str, int]) -> bool:
        return key in self._entries

    @staticmethod
    def _chain_over(entries):
        return hashlib.sha256(
            b"".join(
                _entry_body(
                    entry.producer_id.encode("utf-8"),
                    entry.seq,
                    entry.spill_end,
                    entry.digest,
                )
                for entry in entries
            )
        )

    def chain_digest(self, count: int | None = None) -> bytes:
        """SHA-256 over the first *count* entries (all of them by
        default) as the file encodes them, in commit order: equal chain
        digests mean the same producers' records committed with the
        same bytes in the same order."""
        if count is None or count == len(self._entries):
            return self._chain.copy().digest()
        return self._chain_over(
            islice(self._entries.values(), int(count))
        ).digest()

    def last(self) -> LedgerEntry | None:
        """The most recently committed entry (``None`` when empty)."""
        return next(reversed(self._entries.values()), None)

    def entries(self) -> list[LedgerEntry]:
        """All committed entries, in insertion (= commit) order."""
        return list(self._entries.values())

    def producer_totals(self) -> dict[str, tuple[int, int]]:
        """Committed ``(records, frame_bytes)`` per producer.

        Resume seeds each producer's cross-connection quota meter from
        this, so a restart never forgives budget a producer already
        spent — the quota ledger *is* the idempotency ledger.  Byte
        totals fall out of the entries' ``spill_end`` offsets: entries
        commit in spill order, so each entry's frame size is its
        ``spill_end`` minus the previous entry's.
        """
        totals: dict[str, tuple[int, int]] = {}
        previous_end = 0
        for entry in self._entries.values():
            records, nbytes = totals.get(entry.producer_id, (0, 0))
            totals[entry.producer_id] = (
                records + 1,
                nbytes + entry.spill_end - previous_end,
            )
            previous_end = entry.spill_end
        return totals
