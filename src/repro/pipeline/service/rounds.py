"""Hosted rounds: per-round durable state and the multiplexing registry.

A multi-tenant collection service runs many measurement rounds at once —
different widths, different producer populations, different lifetimes.
Everything one round owns lives in a :class:`RoundState`:

* geometry ``(m, round_id)`` that every session and record must match;
* a :class:`~repro.pipeline.collect.store.ShardStore` namespace holding
  the round's spill, ``.index`` sidecar, checkpoint, and idempotency
  ledger — rounds never share files, so archiving or deleting one round
  cannot touch another;
* the live :class:`~repro.pipeline.accumulator.CountAccumulator`;
* a :class:`~.commit.GroupCommitScheduler` — the round's single durable
  commit pipeline, which is what lets group commit coalesce across
  *connections* (every session of the round feeds the same scheduler);
* per-producer and whole-round quota meters that survive reconnects
  (and, via the ledger, restarts);
* a 16-byte *registration token*, minted when the round is opened and
  folded into every session proof of a scoped (multi-round) service, so
  a proof for one incarnation of round 7 can never be spent on a later
  re-registration of round 7.

:class:`RoundRegistry` is the router: ``round_id`` → :class:`RoundState`
for every hosted round, with loud refusal of duplicate registrations.
Sessions resolve their round exactly once, at HELLO time; after that
every stage/commit/ack path works against the resolved round alone,
which is the structural reason records can never cross-merge between
rounds (the property suite pins this).
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import struct

from ...exceptions import LedgerError, ValidationError, WireFormatError
from ...kernels import check_packed_rows
from ..accumulator import CountAccumulator
from ..collect import wire
from ..collect.store import ShardStore, atomic_write_bytes
from .auth import fresh_nonce, keeper_party_label
from .commit import GroupCommitScheduler
from .ledger import IdempotencyLedger
from .lifecycle import CLOSED, DRAINING, RETIRED, SERVING, RoundLifecycle
from .quotas import ProducerQuota, RoundQuota, ServiceLimits
from .shares import (
    ROLE_BLINDED,
    ROLE_KEEPER,
    BlindedAccumulator,
    add_member,
    empty_member_digest,
    encode_member_digest,
)

__all__ = [
    "RoundState",
    "RoundRegistry",
    "LEDGER_FILENAME",
    "EXCLUSIONS_FILENAME",
    "SERVICE_SHARD_ID",
    "MODE_COLLECT",
    "MODE_BLINDED",
    "MODE_KEEPER",
    "ROUND_MODES",
    "CHECKPOINT_RECORDS",
    "CHECKPOINT_BYTES",
    "round_namespace",
]

LEDGER_FILENAME = "round.ledger"
#: Sidecar naming producers migrated OFF this shard (``{producer:
#: routing_epoch}``).  Their ledger entries stay (dedup + equivocation
#: still work against them) but their records are no longer part of
#: this shard's accumulator, membership digest, or counters — the new
#: owner's are.  Durable so a restarted shard replays the same split.
EXCLUSIONS_FILENAME = "round.excluded"
SERVICE_SHARD_ID = 0

# A hosted round's aggregation mode: "collect" is the classic plaintext
# collector; "blinded" and "keeper" are the two split-trust roles (see
# :mod:`.shares`) — a blinded collector absorbs BlindedCounts frames,
# a share keeper absorbs BlindingShare frames, and neither can decode
# anything alone.
MODE_COLLECT = "collect"
MODE_BLINDED = "blinded"
MODE_KEEPER = "keeper"
ROUND_MODES = (MODE_COLLECT, MODE_BLINDED, MODE_KEEPER)

# Checkpoint cadence: the committer rewrites the round's checkpoint once
# this many records, or this many spill bytes, have committed since the
# last one, so a restart replays at most about that much spill.  Replay
# decodes ~270 MB/s of 256 KiB frames, ~160 MB/s of 128 KiB frames and
# ~17k frames/s of 4 KiB ones (one core of a 2-vCPU guest), so either
# bound keeps a tail at or under ~0.1 s.
CHECKPOINT_RECORDS = 1024
CHECKPOINT_BYTES = 16 * 1024 * 1024
# The ledger position a checkpoint covers: entry count, that entry's
# spill_end and frame digest, the digest of the excluded producer set,
# and the ledger's chain digest over the covered entries.
_CHECKPOINT_POSITION = struct.Struct("<QQ32s32s32s")


def round_namespace(round_id: int) -> str:
    """The store namespace a hosted round's files live under."""
    return f"round_{int(round_id):05d}"


class RoundState:
    """One hosted round: geometry, durable state, commit pipeline."""

    def __init__(
        self,
        m: int,
        round_id: int,
        store: ShardStore,
        limits: ServiceLimits,
        *,
        resume: bool = False,
        scoped: bool = False,
        token: bytes | None = None,
        mode: str = MODE_COLLECT,
        keeper_id: str | None = None,
    ) -> None:
        self.m = int(m)
        if self.m <= 0:
            raise ValidationError(f"round width m must be positive, got {m}")
        self.round_id = int(round_id)
        self.limits = limits
        self.store = store
        if mode not in ROUND_MODES:
            raise ValidationError(
                f"round mode must be one of {ROUND_MODES}, got {mode!r}"
            )
        self.mode = mode
        if mode == MODE_KEEPER:
            if not keeper_id:
                raise ValidationError(
                    "a keeper-mode round needs a non-empty keeper_id (the "
                    "identity producers bind their share streams to)"
                )
            self.keeper_id = str(keeper_id)
        else:
            if keeper_id is not None:
                raise ValidationError(
                    f"keeper_id is only meaningful for {MODE_KEEPER!r} "
                    f"rounds, got keeper_id={keeper_id!r} with mode={mode!r}"
                )
            self.keeper_id = None
        self.ledger = IdempotencyLedger(
            os.path.join(store.root, LEDGER_FILENAME)
        )
        # Producers migrated off this shard: ledgered but not counted.
        self._exclusions_path = os.path.join(store.root, EXCLUSIONS_FILENAME)
        self.excluded: dict[str, int] = {}
        if os.path.exists(self._exclusions_path):
            try:
                with open(self._exclusions_path, "rb") as handle:
                    payload = json.loads(handle.read().decode("utf-8"))
                self.excluded = {
                    str(producer): int(epoch)
                    for producer, epoch in payload["producers"].items()
                }
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise LedgerError(
                    f"exclusions sidecar {self._exclusions_path} is "
                    f"unreadable ({exc}); refusing to resume a migrated "
                    "round with an unknown producer split"
                ) from exc
        self.accumulator = self._fresh_accumulator()
        # Order-independent digest of the committed record set (see
        # shares.member_stamp) — maintained in EVERY mode so a split-
        # trust combine can certify that collector and keepers hold
        # exactly the same records before any decode is attempted.
        self.member_digest = empty_member_digest()
        # The registration token: fresh every time the round is opened,
        # so session proofs are scoped to this exact incarnation.  An
        # unscoped (single-round, legacy-wire) round keeps it empty and
        # its challenges stay version-2 byte-identical.  A coordinator
        # passes *token* explicitly so every shard hosting a slice of
        # the round challenges with the SAME incarnation token.
        if token is not None:
            token = bytes(token)
            if len(token) != 16:
                raise ValidationError(
                    f"round token must be 16 bytes, got {len(token)}"
                )
            self.token = token
        else:
            self.token = fresh_nonce() if scoped else b""
        self.lifecycle = RoundLifecycle(self.round_id)

        self.records_merged = 0
        self.records_duplicate = 0
        self.records_refused = 0
        self.bytes_ingested = 0
        self.producers_seen: set[str] = set()
        self.recovered_records = 0
        self.recovered_spill_bytes_discarded = 0
        # Spill frames the last recovery or rebuild decoded (the tail
        # past the checkpoint it started from).
        self.replayed_records = 0
        self.checkpoint_errors = 0
        self.last_checkpoint_error: str | None = None
        # (entry count, spill_end) of the last checkpoint captured.
        self._checkpointed = (0, 0)

        existing = os.path.exists(self.ledger.path) or os.path.exists(
            self.store.chunk_path(SERVICE_SHARD_ID)
        )
        self.preexisting = existing
        if existing and not resume:
            raise ValidationError(
                f"{self.store.root} already holds round state "
                f"({LEDGER_FILENAME} / spill); pass resume=True to recover "
                "it, or point the service at a fresh directory"
            )
        self._recover()
        self.writer = self.store.writer(
            SERVICE_SHARD_ID,
            self.m,
            round_id=self.round_id,
            durable=True,
            resume=True,
        )
        self.scheduler = GroupCommitScheduler(self, limits)
        self.quota = RoundQuota(limits, self.round_id)
        self.quota.bytes_used = self.bytes_ingested
        self.quota.records_used = self.records_merged
        self._producer_quotas: dict[str, ProducerQuota] = {}
        # Quotas meter *committed* records, so the ledger reconstructs
        # every meter exactly — a restart forgives nothing, and (because
        # resends dedup before they are charged) forgives resends too.
        for producer_id, (records, nbytes) in (
            self.ledger.producer_totals().items()
        ):
            if producer_id in self.excluded:
                continue  # migrated off this shard; the new owner meters
            meter = self.producer_quota(producer_id)
            meter.frames_used = records
            meter.bytes_used = nbytes
        self._closed = False

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Rebuild round state from ledger + spill (both may be absent)."""
        count = self.ledger.load()
        recovered = self.store.recover_shard(
            SERVICE_SHARD_ID, committed_offset=self.ledger.committed_offset
        )
        if recovered["frames"] != count:
            raise LedgerError(
                f"ledger commits {count} records but the recovered spill "
                f"holds {recovered['frames']} frames; round state under "
                f"{self.store.root} is inconsistent"
            )
        self.recovered_spill_bytes_discarded = recovered["discarded_bytes"]
        self._replay_committed()
        self.recovered_records = self.records_merged

    def _fresh_accumulator(self):
        if self.mode == MODE_COLLECT:
            return CountAccumulator(self.m, round_id=self.round_id)
        role = ROLE_BLINDED if self.mode == MODE_BLINDED else ROLE_KEEPER
        return BlindedAccumulator(self.m, round_id=self.round_id, role=role)

    def _replay_committed(self) -> None:
        """Recompute live state from the ledger + spill, minus exclusions.

        The ledger is the membership authority: replaying it in commit
        order rebuilds the accumulator, counters, and member digest
        exactly — and because ledger order equals spill order (one
        committer appends both), zipping entries against the spill's
        frames attributes every frame to its producer, which is how
        records of migrated-off producers are skipped.  The accumulator
        starts from the round's checkpoint when that still describes a
        prefix of this ledger under this exclusion set, so only the
        spill past it is decoded.  Recovery and both migration paths go
        through here, so the post-migration state is byte-for-byte what
        a restart would compute.
        """
        entries = self.ledger.entries()
        start, state = self._checkpoint_prefix(entries)
        accumulator = state if start else self._fresh_accumulator()
        tail = entries[start:]
        chunk_path = self.store.chunk_path(SERVICE_SHARD_ID)
        if tail and os.path.exists(chunk_path):
            with open(chunk_path, "rb") as handle:
                handle.seek(entries[start - 1].spill_end if start else 0)
                for entry, obj in zip(tail, wire.iter_frames(handle)):
                    if entry.producer_id in self.excluded:
                        continue
                    accumulator.absorb_frame(obj)
        self.accumulator = accumulator
        self.replayed_records = len(tail)
        self.member_digest = empty_member_digest()
        merged = 0
        kept_bytes = 0
        previous_end = 0
        for entry in entries:
            size = entry.spill_end - previous_end
            previous_end = entry.spill_end
            if entry.producer_id in self.excluded:
                continue
            merged += 1
            kept_bytes += size
            self.note_member(entry.producer_id, entry.seq)
        self.records_merged = merged
        self.bytes_ingested = kept_bytes
        # Producers that only ever opened sessions (no committed record)
        # stay visible unless they too were migrated away.
        self.producers_seen = {
            producer
            for producer in (
                self.producers_seen
                | {entry.producer_id for entry in entries}
            )
            if producer not in self.excluded
        }
        self._checkpointed = (len(entries), self.ledger.committed_offset)
        if tail:
            self.write_checkpoint(self.capture_checkpoint())

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def _exclusions_digest(self) -> bytes:
        return hashlib.sha256(
            json.dumps(sorted(self.excluded)).encode("utf-8")
        ).digest()

    def _checkpoint_prefix(self, entries):
        """``(count, state)`` from a checkpoint that covers this ledger.

        It covers the first *count* entries when its covered entry is
        ``entries[count - 1]`` (same ``spill_end``, same frame digest),
        those entries chain to its chain digest, it was taken under the
        same exclusion set, and its state has this round's mode and
        geometry.  Anything else — including no checkpoint at all — is
        ``(0, None)``.
        """
        unusable = (0, None)
        loaded = self.store.load_checkpoint(SERVICE_SHARD_ID)
        if loaded is None:
            return unusable
        state, position = loaded
        if len(position) != _CHECKPOINT_POSITION.size:
            return unusable
        count, spill_end, digest, excluded, chain = (
            _CHECKPOINT_POSITION.unpack(position)
        )
        if not 0 < count <= len(entries):
            return unusable
        expected = {
            MODE_COLLECT: CountAccumulator,
            MODE_BLINDED: wire.BlindedCounts,
            MODE_KEEPER: wire.BlindingShare,
        }[self.mode]
        entry = entries[count - 1]
        if (
            not isinstance(state, expected)
            or state.m != self.m
            or state.round_id != self.round_id
            or entry.spill_end != spill_end
            or entry.digest != digest
            or excluded != self._exclusions_digest()
            or chain != self.ledger.chain_digest(count)
        ):
            return unusable
        if self.mode != MODE_COLLECT:
            state = BlindedAccumulator.from_frame(state)
        return count, state

    def checkpoint_due(self) -> bool:
        """Has the commit log outgrown the last checkpoint's cadence?"""
        count, spill_end = self._checkpointed
        return (
            len(self.ledger) - count >= CHECKPOINT_RECORDS
            or self.ledger.committed_offset - spill_end >= CHECKPOINT_BYTES
        )

    def capture_checkpoint(self) -> tuple[bytes, bytes] | None:
        """The round's count state now, with the ledger position it
        covers, ready for :meth:`write_checkpoint` (``None`` while the
        ledger is empty: there is nothing to skip)."""
        last = self.ledger.last()
        if last is None:
            return None
        state = (
            self.accumulator
            if self.mode == MODE_COLLECT
            else self.accumulator.state_frame()
        )
        position = _CHECKPOINT_POSITION.pack(
            len(self.ledger),
            last.spill_end,
            last.digest,
            self._exclusions_digest(),
            self.ledger.chain_digest(),
        )
        self._checkpointed = (len(self.ledger), last.spill_end)
        return wire.dumps(state), position

    def write_checkpoint(self, captured: tuple[bytes, bytes] | None) -> None:
        """Persist a captured checkpoint.  Never raises: spill and
        ledger stay the durability authority, so a failed write is
        counted (see :meth:`stats`) and only lengthens the next replay."""
        if captured is None:
            return
        try:
            self.store.write_checkpoint(SERVICE_SHARD_ID, *captured)
        except Exception as exc:  # the committer must keep committing
            self.checkpoint_errors += 1
            self.last_checkpoint_error = str(exc)

    # ------------------------------------------------------------------
    # Party label and membership
    # ------------------------------------------------------------------
    @property
    def party(self) -> bytes:
        """The party label sessions of this round must bind in their
        proofs: empty for collect/blinded rounds (wire-compatible with
        earlier protocol versions), the keeper label for keeper rounds —
        so a proof minted for the collector is unspendable at a keeper
        and each keeper's proofs are distinct."""
        if self.mode == MODE_KEEPER:
            return keeper_party_label(self.keeper_id)
        return b""

    def note_member(self, producer_id: str, seq: int) -> None:
        """Fold one committed record into the membership digest."""
        add_member(self.member_digest, producer_id, seq)

    # ------------------------------------------------------------------
    # Quota scoping
    # ------------------------------------------------------------------
    def producer_quota(self, producer_id: str) -> ProducerQuota:
        """The producer's cross-connection meter on this round."""
        meter = self._producer_quotas.get(producer_id)
        if meter is None:
            meter = ProducerQuota(self.limits, producer_id)
            self._producer_quotas[producer_id] = meter
        return meter

    def refund_uncommitted(self, producer_id: str, items: list[dict]) -> None:
        """Return quota charges for staged records that never committed.

        Idempotent per item (the charge marker is cleared on refund):
        called by the commit scheduler after every batch (covering
        commit-time dedup losses and rolled-back batches) and by the
        session teardown for staged-but-never-submitted records.
        Without this, a producer whose connection died mid-batch would
        pay for those records *twice* when it resends them — and a
        producer near its cap could be locked out by charges for
        records that were never committed at all.
        """
        for item in items:
            charge = item.get("charged")
            if charge and item["status"] != "merged":
                self.producer_quota(producer_id).refund(charge)
                self.quota.refund(charge)
                item["charged"] = None

    # ------------------------------------------------------------------
    # Live migration (shard-to-shard producer moves under traffic)
    # ------------------------------------------------------------------
    def _write_exclusions(self) -> None:
        payload = json.dumps(
            {"producers": self.excluded}, sort_keys=True
        ).encode("utf-8")
        atomic_write_bytes(self._exclusions_path, payload)

    def migrate_out(
        self, producers, epoch: int
    ) -> list[tuple[str, int, bytes, bytes]]:
        """Evict *producers*' committed records for transfer elsewhere.

        Returns ``(producer_id, seq, digest, frame_bytes)`` for every
        ledgered record of *producers* — already-excluded ones included,
        so re-running after a half-applied migration (coordinator died
        between ``migrate-out`` and ``migrate-in``) re-returns the same
        entries and the whole flow is idempotent.  Marks the producers
        excluded (durably, via the sidecar) and rebuilds the live
        accumulator without their records.

        Synchronous on purpose: callers hold the round scheduler's
        ``paused()`` context, and with no ``await`` inside, nothing can
        interleave between the ledger read, the exclusion write, and
        the state rebuild.
        """
        producers = {str(producer) for producer in producers}
        epoch = int(epoch)
        entries = self.ledger.entries()
        moved: list[tuple[str, int, bytes, bytes]] = []
        if any(entry.producer_id in producers for entry in entries):
            chunk_path = self.store.chunk_path(SERVICE_SHARD_ID)
            with open(chunk_path, "rb") as handle:
                blob = handle.read()
            previous_end = 0
            for entry in entries:
                start, previous_end = previous_end, entry.spill_end
                if entry.producer_id in producers:
                    moved.append(
                        (
                            entry.producer_id,
                            entry.seq,
                            entry.digest,
                            blob[start : entry.spill_end],
                        )
                    )
        newly = {p for p in producers if p not in self.excluded}
        if producers:
            for producer in producers:
                self.excluded[producer] = epoch
            self._write_exclusions()
        if newly:
            self._replay_committed()
            for producer in list(self._producer_quotas):
                if producer in self.excluded:
                    del self._producer_quotas[producer]
            self.quota.bytes_used = self.bytes_ingested
            self.quota.records_used = self.records_merged
        return moved

    def absorb_migrated(self, records) -> dict:
        """Install records migrated from another shard, exactly once.

        *records* is an iterable of ``(producer_id, seq, digest,
        frame_bytes)`` as returned by :meth:`migrate_out` on the old
        owner.  Every frame is digest-verified before anything is
        written; records already ledgered here (a re-run transfer, or a
        producer that blind-resent to this shard before the transfer
        landed) are skipped as duplicates — same digest required, a
        mismatch is equivocation and refuses the whole transfer.

        Synchronous for the same atomicity reason as
        :meth:`migrate_out`; durability ordering matches the commit
        pipeline (all frames appended, spill fsync, ledger appends,
        ledger fsync, then merges).
        """
        self.lifecycle.require(SERVING)
        checked: list[tuple[str, int, bytes, bytes]] = []
        unexcluded: set[str] = set()
        for producer_id, seq, digest, frame in records:
            producer_id, seq = str(producer_id), int(seq)
            digest, frame = bytes(digest), bytes(frame)
            if hashlib.sha256(frame).digest() != digest:
                raise ValidationError(
                    f"migrated record {producer_id!r}/{seq} failed its "
                    "digest check; refusing the transfer"
                )
            if producer_id in self.excluded:
                unexcluded.add(producer_id)
            checked.append((producer_id, seq, digest, frame))
        if unexcluded:
            # A producer migrating BACK: lift its exclusion first (its
            # locally ledgered records re-enter the accumulator), so
            # the ledger dedup below is exact rather than double-merging
            # what this shard already holds.
            for producer in unexcluded:
                del self.excluded[producer]
            self._write_exclusions()
            self._replay_committed()
            self.quota.bytes_used = self.bytes_ingested
            self.quota.records_used = self.records_merged
        staged: list[tuple[str, int, bytes, int, bytes]] = []
        batch_digests: dict[tuple[str, int], bytes] = {}
        duplicates = 0
        spill_mark = self.writer.end_offset
        ledger_mark = self.ledger.mark()
        appended_keys: list[tuple[str, int]] = []
        try:
            for producer_id, seq, digest, frame in checked:
                key = (producer_id, seq)
                known = self.ledger.seen(producer_id, seq)
                known_digest = (
                    known.digest if known is not None
                    else batch_digests.get(key)
                )
                if known_digest is not None:
                    if known_digest != digest:
                        raise ValidationError(
                            f"migrated record {producer_id!r}/{seq} "
                            "equivocates with a record this shard already "
                            "committed; refusing the transfer"
                        )
                    duplicates += 1
                    continue
                inner = wire.loads(frame)
                self.validate_inner(inner)
                self.writer.append_frame(frame)
                batch_digests[key] = digest
                staged.append(
                    (producer_id, seq, digest, self.writer.end_offset, frame)
                )
            if staged:
                self.writer.sync()
                for producer_id, seq, digest, spill_end, _frame in staged:
                    self.ledger.append(producer_id, seq, digest, spill_end)
                    appended_keys.append((producer_id, seq))
                self.ledger.sync()
        except BaseException as exc:
            try:
                if appended_keys:
                    self.ledger.rollback(ledger_mark, appended_keys)
                self.writer.rollback(spill_mark)
            except BaseException as repair_exc:
                raise LedgerError(
                    f"migrate-in failed ({exc}) and rolling the spill "
                    f"back failed too ({repair_exc}); restart the shard "
                    "with resume=True"
                ) from exc
            raise
        for producer_id, seq, _digest, _spill_end, frame in staged:
            self.accumulator.absorb_frame(wire.loads(frame))
            self.note_member(producer_id, seq)
            self.records_merged += 1
            self.bytes_ingested += len(frame)
            self.producers_seen.add(producer_id)
            meter = self.producer_quota(producer_id)
            meter.frames_used += 1
            meter.bytes_used += len(frame)
            self.quota.records_used += 1
            self.quota.bytes_used += len(frame)
        if staged:
            self.write_checkpoint(self.capture_checkpoint())
        return {"installed": len(staged), "duplicates": duplicates}

    # ------------------------------------------------------------------
    # Record staging (everything decidable without the commit pipeline)
    # ------------------------------------------------------------------
    def validate_inner(self, obj) -> None:
        """Pre-commit validation, mirroring every check the later merge
        would make — so a record that reaches the ledger can never fail
        to merge (a ledgered-but-unmergeable record would poison every
        subsequent restart's replay)."""
        if self.mode != MODE_COLLECT:
            expected = (
                wire.BlindedCounts
                if self.mode == MODE_BLINDED
                else wire.BlindingShare
            )
            if not isinstance(obj, expected):
                raise ValidationError(
                    f"a {self.mode} round accepts only "
                    f"{expected.__name__} records, got {type(obj).__name__}"
                )
            if obj.m != self.m or obj.round_id != self.round_id:
                raise ValidationError(
                    f"record is for (m={obj.m}, round={obj.round_id}); "
                    f"this round collects (m={self.m}, "
                    f"round={self.round_id})"
                )
            return
        if isinstance(obj, CountAccumulator):
            matches = obj.m == self.m and obj.round_id == self.round_id
        elif isinstance(obj, wire.PackedChunk):
            matches = obj.m == self.m and obj.round_id == self.round_id
            if matches:
                check_packed_rows(obj.rows, self.m)
        else:
            raise ValidationError(
                f"records must wrap a snapshot or packed chunk, got "
                f"{type(obj).__name__}"
            )
        if not matches:
            raise ValidationError(
                f"record is for (m={obj.m}, round={obj.round_id}); this "
                f"round collects (m={self.m}, round={self.round_id})"
            )

    def stage_record(
        self,
        producer_id: str,
        record: wire.Record,
        staged_frames: dict[int, bytes],
    ) -> dict:
        """Classify one record for its batch: fresh, duplicate, refused.

        Everything that can be decided without the commit pipeline
        happens here — envelope/round checks, dedup against the ledger
        *and* against records staged earlier in the same connection
        batch, and full inner validation for fresh records.  SHA-256
        digests are *not* computed on the fresh path: the round's
        commit scheduler hashes whole batches on the executor,
        overlapped with the next batch's network reads.  The commit
        also re-checks the ledger (another connection of the same
        producer may commit the same seq first).
        """
        seq = record.seq
        if not self.lifecycle.accepts_records:
            return {
                "status": "refused",
                "seq": seq,
                "detail": (
                    f"round {self.round_id} is {self.lifecycle.phase}; "
                    "records are only accepted while serving"
                ),
            }
        if producer_id in self.excluded:
            return {
                "status": "refused",
                "seq": seq,
                "detail": (
                    f"producer {producer_id!r} was migrated off this shard "
                    f"at routing epoch {self.excluded[producer_id]}; "
                    "reconnect via the current routing table"
                ),
            }
        if record.m != self.m or record.round_id != self.round_id:
            return {
                "status": "refused",
                "seq": seq,
                "detail": (
                    f"record envelope is for (m={record.m}, round="
                    f"{record.round_id}), not this round"
                ),
            }
        previous = staged_frames.get(seq)
        if previous is not None:
            # Same seq twice in one burst: byte equality decides.
            if previous != record.frame:
                return {
                    "status": "refused",
                    "seq": seq,
                    "detail": (
                        f"equivocation: seq {seq} is already committed "
                        "with different frame bytes"
                    ),
                }
            return {"status": "duplicate", "seq": seq}
        entry = self.ledger.seen(producer_id, seq)
        if entry is not None:
            # Resend path: the digest comparison against the committed
            # entry is deferred to the batch commit, which hashes on
            # the executor — a producer blind-resending a large round
            # must not stall the event loop for every other session.
            return {
                "status": "verify-dup",
                "seq": seq,
                "frame": record.frame,
                "known_digest": entry.digest,
            }
        try:
            inner = record.decode()
            self.validate_inner(inner)
        except (WireFormatError, ValidationError) as exc:
            return {"status": "refused", "seq": seq, "detail": str(exc)}
        return {
            "status": "fresh",
            "seq": seq,
            "frame": record.frame,
            "inner": inner,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def serve(self) -> None:
        """Move ``open -> serving``: sessions and records may flow."""
        self.lifecycle.transition(SERVING)

    def drain(self) -> None:
        """Move to ``draining``: refuse new sessions and new records
        while batches already staged or in the commit pipeline still
        commit and are acked.  Callers await :meth:`close` (or just the
        scheduler) to observe the drain finishing."""
        self.lifecycle.transition(DRAINING)

    def retire(self) -> None:
        """Move ``closed -> retired``: the durably closed round's
        handles are already freed by :meth:`close`; after this the
        registry forgets the round and its id may be re-registered (as
        a new incarnation with a fresh token).  Loud unless closed —
        retiring a round that is still serving would strand its
        producers with no durable close."""
        self.lifecycle.transition(RETIRED)

    def release(self) -> None:
        """Constructor-failure teardown: drop handles, undo creation.

        When a multi-round service fails partway through opening its
        rounds (a later spec is bad, a round id is duplicated), the
        rounds already opened must not leak file handles — and, if they
        did not exist before this attempt, must not leave freshly
        created state behind that would force ``resume=True`` on the
        operator's corrected rerun.  Pre-existing state is left exactly
        as found.
        """
        self.writer.close(finalize=False)
        self.ledger.close()
        if not self.preexisting:
            checkpoint = self.store.checkpoint_path(SERVICE_SHARD_ID)
            for path in (
                self.store.chunk_path(SERVICE_SHARD_ID),
                self.store.index_path(SERVICE_SHARD_ID),
                self.ledger.path,
                checkpoint,
                *glob.glob(glob.escape(checkpoint) + ".*.tmp"),
            ):
                try:
                    os.unlink(path)
                except OSError:
                    pass
            try:
                os.rmdir(self.store.root)
            except OSError:
                pass  # shared or non-empty root (single-round layout)
        self._closed = True

    async def close(self, *, snapshot: bool = True) -> None:
        """Drain the commit pipeline and durably close the round.

        With *snapshot* the round's final accumulator state is written
        atomically next to the spill as its checkpoint (graceful
        shutdown; the next resume replays nothing); without it the
        files close as-is (crash-adjacent teardown — everything
        acknowledged is already fsync'd, so resume recovers it).
        """
        await self.scheduler.close()
        if self._closed:
            return
        self._closed = True
        if self.lifecycle.phase not in (CLOSED, RETIRED):
            self.lifecycle.transition(CLOSED)
        if snapshot:
            self.writer.sync()
            self.writer.close()
            self.write_checkpoint(self.capture_checkpoint())
        else:
            self.writer.close()
        self.ledger.close()

    def stats(self) -> dict:
        """Operator-facing counters for this round."""
        return {
            "m": self.m,
            "round_id": self.round_id,
            "mode": self.mode,
            "keeper_id": self.keeper_id,
            "member_digest": encode_member_digest(self.member_digest),
            "phase": self.lifecycle.phase,
            "n": self.accumulator.n,
            "records_merged": self.records_merged,
            "records_duplicate": self.records_duplicate,
            "records_refused": self.records_refused,
            "bytes_ingested": self.bytes_ingested,
            "producers": sorted(self.producers_seen),
            "producers_excluded": sorted(self.excluded),
            "recovered_records": self.recovered_records,
            "recovered_spill_bytes_discarded": (
                self.recovered_spill_bytes_discarded
            ),
            "replayed_records": self.replayed_records,
            "checkpoint_errors": {
                "count": self.checkpoint_errors,
                "last": self.last_checkpoint_error,
            },
            "commits": self.scheduler.commits,
            "cross_connection_batches": (
                self.scheduler.cross_connection_batches
            ),
        }


class RoundRegistry:
    """``round_id`` → :class:`RoundState` router for a hosted service.

    The registry is deliberately dumb: it opens rounds, finds rounds,
    and enumerates rounds.  All correctness-critical state lives in the
    :class:`RoundState` a session resolves at HELLO time — after that
    resolution nothing consults the registry again, so no registry
    operation (including opening new rounds mid-flight) can redirect an
    established session.
    """

    def __init__(self) -> None:
        self._rounds: dict[int, RoundState] = {}

    def open_round(
        self,
        m: int,
        round_id: int,
        store: ShardStore,
        limits: ServiceLimits,
        *,
        resume: bool = False,
        scoped: bool = True,
        token: bytes | None = None,
        serve: bool = True,
        mode: str = MODE_COLLECT,
        keeper_id: str | None = None,
    ) -> RoundState:
        """Create, recover (with *resume*), and register one round.

        With *serve* (the default) the round moves straight
        ``open -> serving`` — the behavior of a standalone service,
        where hosting a round means serving it.  A coordinator-managed
        shard passes the coordinator's *token* so every shard of the
        round challenges with the same incarnation token.
        """
        round_id = int(round_id)
        if round_id in self._rounds:
            raise ValidationError(
                f"round {round_id} is already hosted; round ids must be "
                "unique within a service"
            )
        state = RoundState(
            m,
            round_id,
            store,
            limits,
            resume=resume,
            scoped=scoped,
            token=token,
            mode=mode,
            keeper_id=keeper_id,
        )
        if serve:
            state.serve()
        self._rounds[round_id] = state
        return state

    def get(self, round_id: int) -> RoundState | None:
        return self._rounds.get(int(round_id))

    def retire(self, round_id: int) -> RoundState:
        """Retire a *closed* round and forget it (loud otherwise).

        After this the round id is free to re-register — as a new
        incarnation whose fresh token keeps old session proofs dead.
        """
        state = self._rounds.get(int(round_id))
        if state is None:
            raise ValidationError(
                f"round {round_id} is not hosted; hosted rounds: "
                f"{sorted(self._rounds)}"
            )
        state.retire()
        del self._rounds[int(round_id)]
        return state

    def rounds(self) -> list[RoundState]:
        """All hosted rounds, ordered by round id."""
        return [self._rounds[key] for key in sorted(self._rounds)]

    def round_ids(self) -> list[int]:
        return sorted(self._rounds)

    def __len__(self) -> int:
        return len(self._rounds)

    def __contains__(self, round_id: int) -> bool:
        return int(round_id) in self._rounds
