"""Disk-backed shard store: spill packed chunks, aggregate out-of-core.

A collection round at production scale cannot keep every report chunk in
memory, and a collector that discards chunks after counting them cannot
be audited.  :class:`ShardStore` solves both: each shard's packed report
chunks are spilled to an append-only file of wire-format frames as they
are produced, the shard's final accumulator snapshot is written next to
them, and the whole round can later be re-aggregated *out of core* —
one chunk resident at a time — and checked digest-for-digest against
the snapshots without re-contacting a single user.

Layout under the store root::

    round/
        shard_00000.chunks     concatenated chunk frames (append-only)
        shard_00000.index      frame-boundary sidecar (durable writers)
        shard_00000.snapshot   one snapshot frame, written at shard end
        shard_00000.checkpoint a snapshot frame plus the log position it
                               covers (service rounds, see checkpoints)
        shard_00001.chunks
        ...

Chunk files are self-describing (every frame carries ``m`` and
``round_id``), so a store can be replayed by a process that knows
nothing but the directory path.

Crash safety: snapshots are written atomically (temp file +
``os.replace``), so a crash can never leave a torn snapshot frame.  A
*durable* :class:`ShardChunkWriter` additionally appends each frame's
end offset to a ``.index`` sidecar and exposes :meth:`~ShardChunkWriter.
sync` for fsync-before-ack protocols; :meth:`ShardStore.recover_shard`
then truncates a crashed spill back to its last complete frame (index
fast path plus a frame-scan fallback for spills written without one),
so a restart resumes the shard instead of failing on a partial frame.

Checkpoints: a service round's spill is an append-only log that a
restart would otherwise re-decode from byte zero.  A *checkpoint* is an
atomically replaced, CRC-checked file holding one snapshot frame plus
an opaque *position* blob naming how much of the log that snapshot
covers (:meth:`ShardStore.write_checkpoint`).  It is advisory: a
missing, torn, or corrupted checkpoint loads as ``None`` and the caller
replays from the start of the spill instead.
"""

from __future__ import annotations

import mmap
import os
import re
import struct
import tempfile
import zlib

import numpy as np

from ...exceptions import ValidationError, WireFormatError
from ...kernels import packed_width
from ..accumulator import CountAccumulator
from . import wire

__all__ = ["ShardStore", "ShardChunkWriter", "atomic_write_bytes"]

_CHUNK_SUFFIX = ".chunks"
_INDEX_SUFFIX = ".index"
_SNAPSHOT_SUFFIX = ".snapshot"
_CHECKPOINT_SUFFIX = ".checkpoint"
_INDEX_ENTRY = struct.Struct("<Q")
# Checkpoint file: magic and the CRC32 of the body, then the body: the
# position blob's length, the blob, and one snapshot frame.
_CHECKPOINT_HEAD = struct.Struct("<4sI")
_CHECKPOINT_MAGIC = b"IDCP"
_U32 = struct.Struct("<I")

# Replay releases consumed mmap pages back to the OS in windows of this
# many bytes (page-aligned), so a multi-gigabyte spill replays with a
# bounded resident set instead of faulting the whole file into memory.
_REPLAY_RELEASE_BYTES = 4 * 1024 * 1024


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Atomically replace *path* with *payload* (temp file + rename).

    The shared torn-write guard: snapshots here, accumulator saves in
    :mod:`repro.io`, and index rewrites during recovery all go through
    this one helper, so a crash can never leave any of them half
    written.
    """
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    os.close(fd)
    try:
        # Reopened by name through open(), like every other durable file
        # here, so fault-injection harnesses that wrap open() cover it.
        with open(tmp_path, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


class ShardChunkWriter:
    """Append-only writer of one shard's chunk frames.

    Close (or use as a context manager) to flush; a shard that produced
    no chunks still ends up with one empty chunk frame so the file pins
    ``(m, round_id)`` and replays to an empty accumulator rather than
    failing as frameless.

    Parameters
    ----------
    durable:
        Keep a ``.index`` sidecar of frame end offsets and enable
        :meth:`sync` (flush + fsync of both files).  This is what lets a
        service acknowledge a frame only once it can survive a crash,
        and what :meth:`ShardStore.recover_shard` uses to find the last
        complete frame without decoding the whole spill.
    resume:
        Append to an existing spill instead of starting one.  Run
        :meth:`ShardStore.recover_shard` first so the file ends on a
        frame boundary; the writer trusts the current end of file.
    """

    def __init__(
        self,
        path: str,
        m: int,
        *,
        round_id: int = 0,
        durable: bool = False,
        resume: bool = False,
    ) -> None:
        self.path = path
        self.m = int(m)
        self.round_id = int(round_id)
        self.durable = bool(durable)
        self.rows_written = 0
        self.bytes_written = 0
        self.frames_written = 0
        mode = "ab" if resume else "wb"
        self._handle = open(path, mode)
        self._offset = os.path.getsize(path) if resume else 0
        self._index = None
        if self.durable:
            self._index = open(path + _INDEX_SUFFIX, mode)

    @property
    def end_offset(self) -> int:
        """Current end-of-spill offset (a frame boundary after writes)."""
        return self._offset

    def append_frame(self, frame: bytes) -> int:
        """Append one already-encoded frame verbatim; returns its size.

        The raw-bytes entry point for services that spill the exact
        frame a producer sent (so ledgered digests match the file
        contents byte for byte).  The caller is responsible for having
        validated the frame; :meth:`write` is the validating path.
        """
        if self._handle is None:
            raise ValidationError(f"writer for {self.path} is closed")
        self._handle.write(frame)
        self._offset += len(frame)
        if self._index is not None:
            self._index.write(_INDEX_ENTRY.pack(self._offset))
        self.bytes_written += len(frame)
        self.frames_written += 1
        return len(frame)

    def write(self, rows) -> int:
        """Append one packed chunk; returns frame bytes written."""
        if self._handle is None:
            raise ValidationError(f"writer for {self.path} is closed")
        frame = wire.dump_chunk(rows, self.m, round_id=self.round_id)
        self.append_frame(frame)
        self.rows_written += len(rows)
        return len(frame)

    def rollback(self, offset: int) -> None:
        """Undo appends past *offset* (a prior frame boundary).

        The repair path for a multi-frame append that failed partway
        (e.g. an fsync error mid group-commit): truncate the spill back
        to the last known-good boundary so appended-but-uncommitted
        frames can never be mistaken for committed state.  Index
        entries beyond the boundary are truncated too (entries are
        strictly increasing, so they form a suffix).
        """
        if self._handle is None:
            raise ValidationError(f"writer for {self.path} is closed")
        offset = int(offset)
        if offset < 0 or offset > self._offset:
            raise ValidationError(
                f"cannot roll back to offset {offset}: spill ends at "
                f"{self._offset}"
            )
        self._handle.flush()
        os.ftruncate(self._handle.fileno(), offset)
        self._offset = offset
        if self._index is not None:
            self._index.flush()
            with open(self.path + _INDEX_SUFFIX, "rb") as handle:
                blob = handle.read()
            blob = blob[: len(blob) - len(blob) % _INDEX_ENTRY.size]
            keep = 0
            for (entry,) in _INDEX_ENTRY.iter_unpack(blob):
                if entry > offset:
                    break
                keep += 1
            os.ftruncate(self._index.fileno(), keep * _INDEX_ENTRY.size)

    def sync(self) -> None:
        """Flush and fsync the spill; flush (only) the index.

        After ``sync`` returns, every appended frame survives a crash —
        the precondition for acknowledging it to a producer.  The index
        sidecar is deliberately *not* fsync'd on the hot path: recovery
        treats it as a fast path and frame-scans any unindexed tail, so
        a lost index entry costs recovery time, never correctness — and
        skipping its fsync removes a third of the per-commit fsyncs.
        """
        if self._handle is None:
            raise ValidationError(f"writer for {self.path} is closed")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        if self._index is not None:
            self._index.flush()

    def close(self, *, finalize: bool = True) -> None:
        """Close the writer.

        With *finalize* (the default) an empty spill gets its one empty
        chunk frame so the file pins ``(m, round_id)``.  ``finalize=
        False`` skips that — the teardown for a writer whose round
        never came to exist (a failed multi-round service constructor
        must be able to drop handles without manufacturing state).
        """
        if self._handle is None:
            return
        if finalize and self.frames_written == 0 and self._offset == 0:
            self.write(np.empty((0, packed_width(self.m)), dtype=np.uint8))
        handle, self._handle = self._handle, None
        handle.close()
        if self._index is not None:
            index, self._index = self._index, None
            index.close()

    def __enter__(self) -> "ShardChunkWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ShardStore:
    """Per-shard spill files plus snapshots, with replay and audit.

    Parameters
    ----------
    root:
        Directory holding the round's spill files; created if missing.
        One store = one collection round (frames carry their round tag,
        and replay refuses mixed rounds).
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    def namespaced(self, name) -> "ShardStore":
        """A child store rooted at ``<root>/<name>``.

        The multi-round service hosts one round per namespace
        (``round_00007/``, ...) under a single operator-facing
        directory; each namespace is a complete, self-contained store —
        its own spill files, snapshots, and (for a service round)
        ledger — so rounds can be archived, audited, or deleted
        independently.  Namespace names must be path-safe: exactly one
        new directory level, no separators or traversal.
        """
        name = str(name)
        if (
            not name
            or name in (".", "..")
            or "/" in name
            or "\\" in name
            or os.sep in name
        ):
            raise ValidationError(
                f"store namespace must be a single path-safe component, "
                f"got {name!r}"
            )
        return ShardStore(os.path.join(self.root, name))

    # ------------------------------------------------------------------
    # Paths and discovery
    # ------------------------------------------------------------------
    def chunk_path(self, shard_id: int) -> str:
        return os.path.join(self.root, f"shard_{int(shard_id):05d}{_CHUNK_SUFFIX}")

    def index_path(self, shard_id: int) -> str:
        return self.chunk_path(shard_id) + _INDEX_SUFFIX

    def snapshot_path(self, shard_id: int) -> str:
        return os.path.join(self.root, f"shard_{int(shard_id):05d}{_SNAPSHOT_SUFFIX}")

    def checkpoint_path(self, shard_id: int) -> str:
        return os.path.join(
            self.root, f"shard_{int(shard_id):05d}{_CHECKPOINT_SUFFIX}"
        )

    def shard_ids(self) -> list[int]:
        """Sorted ids of every shard with a spilled chunk file.

        Only exact ``shard_<digits>.chunks`` names count; foreign files
        an operator drops into the directory (backups, editor litter)
        are ignored rather than crashing every store operation.
        """
        ids = []
        for name in os.listdir(self.root):
            match = re.fullmatch(r"shard_(\d+)" + re.escape(_CHUNK_SUFFIX), name)
            if match:
                ids.append(int(match.group(1)))
        return sorted(ids)

    def spilled_bytes(self) -> int:
        """Total size of all spilled chunk files (snapshots excluded)."""
        return sum(
            os.path.getsize(self.chunk_path(shard_id))
            for shard_id in self.shard_ids()
        )

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def writer(
        self,
        shard_id: int,
        m: int,
        *,
        round_id: int = 0,
        durable: bool = False,
        resume: bool = False,
    ) -> ShardChunkWriter:
        """Open an append-only chunk writer for one shard."""
        return ShardChunkWriter(
            self.chunk_path(shard_id),
            m,
            round_id=round_id,
            durable=durable,
            resume=resume,
        )

    def write_snapshot(self, shard_id: int, accumulator: CountAccumulator) -> str:
        """Persist one shard's final accumulator state; returns the path.

        The write is atomic (temp file + ``os.replace``): readers see
        either the previous snapshot or the new one, never a torn frame.
        """
        path = self.snapshot_path(shard_id)
        atomic_write_bytes(path, wire.dumps(accumulator))
        return path

    def write_checkpoint(self, shard_id: int, frame: bytes, position: bytes) -> str:
        """Atomically replace one shard's checkpoint; returns the path.

        *frame* is an encoded snapshot frame (``wire.dumps`` of the
        state); *position* is the caller's description of the log prefix
        that state covers, stored verbatim and returned by
        :meth:`load_checkpoint`.
        """
        body = _U32.pack(len(position)) + position + frame
        path = self.checkpoint_path(shard_id)
        head = _CHECKPOINT_HEAD.pack(_CHECKPOINT_MAGIC, zlib.crc32(body))
        atomic_write_bytes(path, head + body)
        return path

    def load_checkpoint(self, shard_id: int):
        """``(state, position)`` from one shard's checkpoint, or ``None``.

        ``None`` covers every way a checkpoint can be unusable — absent,
        unreadable, torn, CRC-bad, or holding an undecodable frame —
        because a checkpoint only ever shortens a replay; whether its
        *position* still matches the log is the caller's check.
        """
        try:
            with open(self.checkpoint_path(shard_id), "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        if len(blob) < _CHECKPOINT_HEAD.size + _U32.size:
            return None
        magic, crc = _CHECKPOINT_HEAD.unpack_from(blob)
        body = memoryview(blob)[_CHECKPOINT_HEAD.size :]
        if magic != _CHECKPOINT_MAGIC or zlib.crc32(body) != crc:
            return None
        (position_len,) = _U32.unpack_from(body)
        position = bytes(body[_U32.size : _U32.size + position_len])
        if len(position) != position_len:
            return None
        try:
            state = wire.loads(body[_U32.size + position_len :])
        except (WireFormatError, ValidationError):
            return None
        return state, position

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def _read_index(self, shard_id: int, file_size: int) -> list[int]:
        """Frame end offsets from the ``.index`` sidecar, crash-tolerant.

        A torn trailing entry (crash mid index append) is dropped, as is
        any offset beyond the chunk file's actual size (index flushed
        ahead of a chunk write that never hit the disk) or out of order.
        """
        path = self.index_path(shard_id)
        if not os.path.exists(path):
            return []
        with open(path, "rb") as handle:
            blob = handle.read()
        blob = blob[: len(blob) - len(blob) % _INDEX_ENTRY.size]
        offsets: list[int] = []
        for (offset,) in _INDEX_ENTRY.iter_unpack(blob):
            if offset > file_size or (offsets and offset <= offsets[-1]):
                break
            offsets.append(offset)
        return offsets

    def recover_shard(
        self, shard_id: int, *, committed_offset: int | None = None
    ) -> dict:
        """Truncate a crashed shard spill back to complete-frame state.

        Finds the last frame boundary — the ``.index`` sidecar is the
        fast path, then a frame-by-frame scan of any unindexed tail — and
        truncates both the chunk file and the sidecar there, discarding a
        partial frame torn by a crash.  With *committed_offset* (a
        service's ledger high-water mark) the spill is instead cut at
        exactly that boundary, so frames that were spilled but never
        acknowledged are dropped and a producer's blind resend cannot
        double-count them.

        Returns ``{"offset", "frames", "discarded_bytes"}`` for the
        recovered spill.
        """
        path = self.chunk_path(shard_id)
        if not os.path.exists(path):
            if committed_offset not in (None, 0):
                raise ValidationError(
                    f"cannot recover shard {shard_id}: ledger commits "
                    f"{committed_offset} spill bytes but no chunk file "
                    f"exists under {self.root}"
                )
            return {"offset": 0, "frames": 0, "discarded_bytes": 0}
        file_size = os.path.getsize(path)
        offsets = self._read_index(shard_id, file_size)
        end = offsets[-1] if offsets else 0
        frames = len(offsets)
        # Scan the unindexed tail (non-durable writers have no index at
        # all) for further complete frames.
        with open(path, "rb") as handle:
            handle.seek(end)
            while True:
                try:
                    if wire.read_frame(handle) is None:
                        break
                except WireFormatError:
                    break
                end = handle.tell()
                frames += 1
                offsets.append(end)
        if committed_offset is not None:
            if committed_offset > end:
                raise ValidationError(
                    f"cannot recover shard {shard_id}: ledger commits "
                    f"offset {committed_offset} but only {end} bytes of "
                    "complete frames survive on disk"
                )
            if committed_offset not in offsets and committed_offset != 0:
                raise ValidationError(
                    f"cannot recover shard {shard_id}: committed offset "
                    f"{committed_offset} is not a frame boundary"
                )
            while offsets and offsets[-1] > committed_offset:
                offsets.pop()
                frames -= 1
            end = committed_offset
        discarded = file_size - end
        if discarded:
            with open(path, "r+b") as handle:
                handle.truncate(end)
        if os.path.exists(self.index_path(shard_id)):
            atomic_write_bytes(
                self.index_path(shard_id),
                b"".join(_INDEX_ENTRY.pack(offset) for offset in offsets),
            )
        return {"offset": end, "frames": frames, "discarded_bytes": discarded}

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _stored_state(self, shard_id: int):
        """The shard's snapshot, else its checkpoint's state, else None."""
        path = self.snapshot_path(shard_id)
        if os.path.exists(path):
            with open(path, "rb") as handle:
                return wire.loads(handle.read())
        checkpoint = self.load_checkpoint(shard_id)
        return None if checkpoint is None else checkpoint[0]

    def load_snapshot(self, shard_id: int) -> CountAccumulator:
        """Load one shard's snapshot frame (its checkpoint's state when
        the shard has no snapshot file, as a service round does)."""
        state = self._stored_state(shard_id)
        if state is None:
            raise ValidationError(f"no snapshot for shard {shard_id} under {self.root}")
        return state

    def replay_shard(self, shard_id: int) -> CountAccumulator:
        """Re-aggregate one shard from its spilled chunks, out of core.

        The spill file is mmap'd and decoded in place: each chunk's rows
        are a read-only numpy view over the mapped pages (never a
        per-frame ``bytes`` copy), and the consumed prefix is released
        back to the OS (``madvise(MADV_DONTNEED)``) as the walk passes
        it, so peak resident memory stays bounded by the release window
        regardless of spill size.
        """
        path = self.chunk_path(shard_id)
        if not os.path.exists(path):
            raise ValidationError(
                f"no spilled chunks for shard {shard_id} under {self.root}"
            )
        if os.path.getsize(path) == 0:
            raise WireFormatError(f"{path} holds no frames")
        accumulator = None
        with open(path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        try:
            view = memoryview(mapped)
            try:
                offset, released, size = 0, 0, len(view)
                can_release = hasattr(mapped, "madvise") and hasattr(
                    mmap, "MADV_DONTNEED"
                )
                while offset < size:
                    chunk, offset = wire.decode_frame_at(view, offset)
                    if not isinstance(chunk, wire.PackedChunk):
                        raise WireFormatError(
                            f"{path} holds a non-chunk frame "
                            f"({type(chunk).__name__}); chunk files carry "
                            "packed report chunks only"
                        )
                    if accumulator is None:
                        accumulator = CountAccumulator(
                            chunk.m, round_id=chunk.round_id
                        )
                    elif (
                        chunk.m != accumulator.m
                        or chunk.round_id != accumulator.round_id
                    ):
                        raise WireFormatError(
                            f"{path} mixes (m={chunk.m}, "
                            f"round={chunk.round_id}) into a "
                            f"(m={accumulator.m}, "
                            f"round={accumulator.round_id}) shard"
                        )
                    accumulator.add_packed_reports(chunk.rows)
                    # Drop the rows view before releasing its pages.
                    chunk = None
                    if can_release:
                        boundary = offset - offset % mmap.PAGESIZE
                        if boundary - released >= _REPLAY_RELEASE_BYTES:
                            mapped.madvise(
                                mmap.MADV_DONTNEED, released, boundary - released
                            )
                            released = boundary
            finally:
                # The exported buffer must go before the map can close.
                del view
        finally:
            try:
                mapped.close()
            except BufferError:
                # An escaping error left a decoded view aliasing the map;
                # the OS reclaims it when those references are collected.
                pass
        return accumulator

    def replay(self) -> CountAccumulator:
        """Re-aggregate the whole round: replay every shard and merge."""
        ids = self.shard_ids()
        if not ids:
            raise ValidationError(f"no spilled shards under {self.root}")
        return CountAccumulator.merge_all(
            self.replay_shard(shard_id) for shard_id in ids
        )

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------
    def audit(self) -> dict[int, dict]:
        """Replay every shard and compare digests against its snapshot.

        Returns ``{shard_id: {"snapshot_digest", "replay_digest",
        "match"}}``; a shard with neither a snapshot nor a checkpoint
        gets ``snapshot_digest None`` and ``match False``.  A full-round
        pass means the spilled chunks reproduce each reported shard
        state bit for bit.

        Needing the round's merged state as well?  Use
        :meth:`replay_and_audit` — it decodes every chunk file once
        instead of twice.
        """
        return self.replay_and_audit()[1]

    def replay_and_audit(self) -> tuple[CountAccumulator, dict[int, dict]]:
        """One out-of-core pass: the merged round plus the audit report.

        Equivalent to ``(replay(), audit())`` but each spilled chunk
        file is decoded, CRC-checked, and popcounted exactly once — at
        production spill sizes the decode pass dominates, so callers
        that want both must not pay it twice.
        """
        merged: CountAccumulator | None = None
        report: dict[int, dict] = {}
        for shard_id in self.shard_ids():
            replayed = self.replay_shard(shard_id)
            stored = self._stored_state(shard_id)
            snapshot_digest = None if stored is None else stored.digest()
            report[shard_id] = {
                "snapshot_digest": snapshot_digest,
                "replay_digest": replayed.digest(),
                "match": snapshot_digest == replayed.digest(),
            }
            merged = replayed if merged is None else merged.merge(replayed)
        if merged is None:
            raise ValidationError(f"no spilled shards under {self.root}")
        return merged, report
