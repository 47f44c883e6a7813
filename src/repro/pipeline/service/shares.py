"""Split-trust aggregation: additive blinding across a share-keeper tier.

The collection tier through PR 6 is durable and scaled out, but every
collector still *sees* what it aggregates: a single compromised shard
leaks each producer's packed report beyond the LDP guarantee.  This
module removes that single point of trust with a PrivCount-style
additive secret-sharing tally over the existing machinery:

* The producer popcounts each packed chunk into a length-``m`` count
  vector and **blinds it word-wise mod 2^64**: for every share keeper
  ``j`` it derives a secret ``K_pj`` (HMAC over the stable round
  transcript, :func:`~.auth.derive_share_secret`, keyed by the
  producer's key at *keeper j's own registry* — a key the collector
  never holds) and adds the keeper's per-seq blinding words.  The
  collector receives only ``counts + sum_j R_j``; keeper ``j`` receives
  only ``R_j``.
* Each party accumulates its stream in a :class:`BlindedAccumulator`
  mod 2^64 — plain uint64 addition, so the whole exactly-once stack
  (sessions, idempotency ledger, group commit, spill recovery) carries
  share frames unchanged.
* The tally decodes **only** when all N keeper states combine with the
  blinded collector state (:func:`combine_accumulators`, backed by
  :func:`repro.estimation.merge.combine_shares`): the blinding cancels
  exactly and the result is bit-identical to a direct unblinded tally.
  Any single party's complete state — spill, ledger, accumulator —
  is a sum of uniformly random words, indistinguishable from noise.

Blinding words are derived from *stable* transcript fields only
(``m``, ``round_id``, ``producer_id``, ``keeper_id``, ``seq``) — never
session nonces or round tokens — so a blind resend is byte-identical
(the ledger's equivocation check keeps working) and a keeper restart
replays to exactly the same state.

The *membership digest* (:func:`member_stamp`) is the loudness
mechanism: every party folds a per-record stamp
``sha256(producer_id, seq)`` into four mod-2^64 lanes.  Equal digests
across all parties certify they committed exactly the same record set;
a keeper that lost a record (or is missing entirely) fails the combine
with a clear error instead of decoding uniform garbage as counts.
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import struct

import numpy as np

from ...exceptions import ValidationError
from ...kernels import packed_column_counts, packed_width
from ..accumulator import CountAccumulator
from ..collect import wire
from .auth import derive_share_secret, keeper_party_label
from .client import send_records

__all__ = [
    "ROLE_BLINDED",
    "ROLE_KEEPER",
    "BlindedAccumulator",
    "blinding_words",
    "chunk_count_words",
    "blind_report_chunk",
    "member_stamp",
    "empty_member_digest",
    "add_member",
    "encode_member_digest",
    "decode_member_digest",
    "combine_accumulators",
    "send_split_trust",
]

ROLE_BLINDED = "blinded"
ROLE_KEEPER = "keeper"
_ROLES = (ROLE_BLINDED, ROLE_KEEPER)

_SEQ_LABEL = b"IDLP-share-seq"
_MEMBER_LABEL = b"IDLP-member-v5"
MEMBER_DIGEST_LANES = 4


# ----------------------------------------------------------------------
# Blinding streams
# ----------------------------------------------------------------------
def blinding_words(secret: bytes, seq: int, m: int) -> np.ndarray:
    """The length-``m`` uint64 blinding vector for one ``(secret, seq)``.

    Deterministic: producer and auditor derive identical words from the
    same share secret, which is what makes blind resends byte-identical
    and the combine exact.  The per-seq seed is
    ``HMAC(secret, "IDLP-share-seq" || LE64(seq))`` fed through numpy's
    ``SeedSequence``/PCG64, yielding full-range uniform uint64 words —
    each word individually a perfect one-time pad mod 2^64.
    """
    secret = bytes(secret)
    if not secret:
        raise ValidationError("share secret must be non-empty bytes")
    seq = int(seq)
    if seq < 0:
        raise ValidationError(f"seq must be non-negative, got {seq}")
    m = int(m)
    if m <= 0:
        raise ValidationError(f"m must be positive, got {m}")
    seed_bytes = hmac.new(
        secret, _SEQ_LABEL + struct.pack("<Q", seq), hashlib.sha256
    ).digest()
    seed = int.from_bytes(seed_bytes, "little")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return rng.integers(0, 1 << 64, size=m, dtype=np.uint64)


def chunk_count_words(rows, m: int) -> np.ndarray:
    """Popcount a packed chunk into uint64 per-bit count words.

    The same vertical-counting kernel the plain accumulator uses
    (:meth:`~repro.pipeline.accumulator.CountAccumulator.
    add_packed_reports`), with the same shape/dtype/pad-bit validation,
    but returning the counts as uint64 words ready for mod-2^64
    blinding.
    """
    m = int(m)
    if m <= 0:
        raise ValidationError(f"m must be positive, got {m}")
    matrix = np.asarray(rows)
    width = packed_width(m)
    if matrix.ndim != 2 or matrix.shape[1] != width:
        raise ValidationError(
            f"packed reports must have shape (k, {width}), got {matrix.shape}"
        )
    if matrix.dtype != np.uint8:
        raise ValidationError(
            f"packed reports must be uint8, got dtype {matrix.dtype}"
        )
    pad_bits = 8 * width - m
    if pad_bits and matrix.size and np.any(matrix[:, -1] & ((1 << pad_bits) - 1)):
        raise ValidationError(
            f"packed reports have set bits beyond m={m}; producer and "
            "round widths disagree"
        )
    return packed_column_counts(matrix, m).astype(np.uint64)


def blind_report_chunk(
    rows,
    *,
    m: int,
    round_id: int,
    seq: int,
    secrets: dict,
) -> tuple:
    """Split one packed chunk into a blinded frame plus keeper shares.

    Parameters
    ----------
    rows:
        ``k x ceil(m/8)`` uint8 packed report chunk (never transmitted;
        only its blinded popcount leaves the producer).
    secrets:
        ``keeper_id -> share secret`` (:func:`~.auth.derive_share_secret`
        output), one entry per share keeper.  Must be non-empty — a
        zero-keeper "split" would ship the plain counts.

    Returns
    -------
    ``(blinded, shares)`` where *blinded* is the
    :class:`~repro.pipeline.collect.wire.BlindedCounts` destined for the
    collector and *shares* maps ``keeper_id`` to that keeper's
    :class:`~repro.pipeline.collect.wire.BlindingShare`.  Word-wise mod
    2^64: ``blinded.words - sum(shares[j].words) == popcounts`` exactly.
    """
    if not isinstance(secrets, dict) or not secrets:
        raise ValidationError(
            "secrets must map at least one keeper_id to a share secret; "
            "blinding with zero keepers would ship the plain counts"
        )
    counts = chunk_count_words(rows, m)
    n = int(np.asarray(rows).shape[0])
    blinded_words = counts.copy()
    shares: dict[str, wire.BlindingShare] = {}
    with np.errstate(over="ignore"):
        for keeper_id in sorted(secrets):
            words = blinding_words(secrets[keeper_id], seq, m)
            blinded_words += words
            shares[keeper_id] = wire.BlindingShare(
                m=int(m), round_id=int(round_id), n=n, words=words
            )
    blinded = wire.BlindedCounts(
        m=int(m), round_id=int(round_id), n=n, words=blinded_words
    )
    return blinded, shares


# ----------------------------------------------------------------------
# Membership digest
# ----------------------------------------------------------------------
def member_stamp(producer_id: str, seq: int) -> np.ndarray:
    """Four uint64 lanes stamping one committed ``(producer, seq)``.

    Folding these into a mod-2^64 lane sum gives an order-independent
    digest of a party's committed record *set*; equal sums across the
    collector and every keeper certify the streams cover identical
    records, which is the precondition for the blinding to cancel.
    """
    pid = str(producer_id).encode("utf-8")
    if not pid:
        raise ValidationError("producer_id must be non-empty")
    if len(pid) > 0xFFFF:
        raise ValidationError("producer_id exceeds 65535 UTF-8 bytes")
    digest = hashlib.sha256(
        _MEMBER_LABEL + struct.pack("<H", len(pid)) + pid
        + struct.pack("<Q", int(seq))
    ).digest()
    return np.frombuffer(digest, dtype="<u8").astype(np.uint64)


def empty_member_digest() -> np.ndarray:
    """The digest of the empty record set."""
    return np.zeros(MEMBER_DIGEST_LANES, dtype=np.uint64)


def add_member(digest: np.ndarray, producer_id: str, seq: int) -> np.ndarray:
    """Fold one committed record's stamp into *digest* in place."""
    with np.errstate(over="ignore"):
        digest += member_stamp(producer_id, seq)
    return digest


def encode_member_digest(digest) -> str:
    """Hex form for control-plane bodies (covered by the reply MAC)."""
    digest = np.asarray(digest)
    if digest.shape != (MEMBER_DIGEST_LANES,) or digest.dtype != np.uint64:
        raise ValidationError(
            f"member digest must be {MEMBER_DIGEST_LANES} uint64 lanes, "
            f"got shape {digest.shape} dtype {digest.dtype}"
        )
    return np.ascontiguousarray(digest, dtype="<u8").tobytes().hex()


def decode_member_digest(text: str) -> np.ndarray:
    """Inverse of :func:`encode_member_digest` (loud on malformed input)."""
    try:
        raw = bytes.fromhex(str(text))
    except ValueError as exc:
        raise ValidationError(f"member digest is not hex: {text!r}") from exc
    if len(raw) != 8 * MEMBER_DIGEST_LANES:
        raise ValidationError(
            f"member digest must be {8 * MEMBER_DIGEST_LANES} bytes, "
            f"got {len(raw)}"
        )
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64)


# ----------------------------------------------------------------------
# Per-party accumulated state
# ----------------------------------------------------------------------
class BlindedAccumulator:
    """One party's mod-2^64 word sums: blinded collector or share keeper.

    The split-trust sibling of
    :class:`~repro.pipeline.accumulator.CountAccumulator`: same exact
    mergeable-counter discipline, but over uint64 words that wrap mod
    2^64 by construction (numpy's native uint64 arithmetic *is* the
    ring).  The ``role`` pins which frame kind the party may absorb —
    a keeper fed a blinded frame (or vice versa) is a topology bug and
    refuses loudly rather than silently poisoning the combine.
    """

    def __init__(
        self, m: int, *, round_id: int = 0, role: str = ROLE_BLINDED
    ) -> None:
        self.m = int(m)
        if self.m <= 0:
            raise ValidationError(f"m must be positive, got {m}")
        self.round_id = int(round_id)
        if role not in _ROLES:
            raise ValidationError(
                f"role must be one of {_ROLES}, got {role!r}"
            )
        self.role = role
        self._words = np.zeros(self.m, dtype=np.uint64)
        self._n = 0

    @property
    def n(self) -> int:
        """Total report rows the absorbed frames cover."""
        return self._n

    def words(self) -> np.ndarray:
        """Copy of the accumulated uint64 word sums."""
        return self._words.copy()

    def _expected_kind(self):
        return wire.BlindedCounts if self.role == ROLE_BLINDED else (
            wire.BlindingShare
        )

    def absorb_frame(self, obj) -> None:
        """Absorb one share frame of this party's role (loud otherwise)."""
        expected = self._expected_kind()
        if not isinstance(obj, expected):
            raise ValidationError(
                f"a {self.role} accumulator absorbs {expected.__name__} "
                f"frames, got {type(obj).__name__}"
            )
        if obj.m != self.m or obj.round_id != self.round_id:
            raise ValidationError(
                f"frame is for (m={obj.m}, round={obj.round_id}); this "
                f"accumulator holds (m={self.m}, round={self.round_id})"
            )
        with np.errstate(over="ignore"):
            self._words += np.asarray(obj.words, dtype=np.uint64)
        self._n += int(obj.n)

    def merge(self, other: "BlindedAccumulator") -> "BlindedAccumulator":
        """Absorb another shard's same-role state (exact mod 2^64)."""
        if not isinstance(other, BlindedAccumulator):
            raise ValidationError(
                f"can only merge BlindedAccumulator, got "
                f"{type(other).__name__}"
            )
        if other.role != self.role:
            raise ValidationError(
                f"cannot merge {other.role} state into {self.role} state"
            )
        if other.m != self.m or other.round_id != self.round_id:
            raise ValidationError(
                f"cannot merge (m={other.m}, round={other.round_id}) into "
                f"(m={self.m}, round={self.round_id})"
            )
        with np.errstate(over="ignore"):
            self._words += other._words
        self._n += other._n
        return self

    def digest(self) -> str:
        """SHA-256 hex digest of the canonical ``(role, m, round, n,
        words)`` state, the transfer-integrity check the aggregator
        compares against the control reply."""
        state = hashlib.sha256()
        state.update(self.role.encode("ascii") + b"\x00")
        state.update(struct.pack("<QqQ", self.m, self.round_id, self._n))
        state.update(np.ascontiguousarray(self._words, dtype="<u8").tobytes())
        return state.hexdigest()

    def state_frame(self):
        """This party's whole accumulated state as one share frame.

        The same v5 frames double as state transfer: ``n`` is the total
        rows covered, the payload the accumulated word sums.  Used for
        checkpoints and pull-state replies.
        """
        cls = self._expected_kind()
        return cls(
            m=self.m,
            round_id=self.round_id,
            n=self._n,
            words=self._words.copy(),
        )

    @classmethod
    def from_frame(cls, obj) -> "BlindedAccumulator":
        """Rebuild a party's state from its state-transfer frame."""
        if isinstance(obj, wire.BlindedCounts):
            role = ROLE_BLINDED
        elif isinstance(obj, wire.BlindingShare):
            role = ROLE_KEEPER
        else:
            raise ValidationError(
                "state frame must be BlindedCounts or BlindingShare, got "
                f"{type(obj).__name__}"
            )
        acc = cls(obj.m, round_id=obj.round_id, role=role)
        acc.absorb_frame(obj)
        return acc

    def __repr__(self) -> str:
        return (
            f"BlindedAccumulator(role={self.role!r}, m={self.m}, "
            f"n={self._n}, round_id={self.round_id})"
        )


# ----------------------------------------------------------------------
# Combine (decode)
# ----------------------------------------------------------------------
def combine_accumulators(blinded, keepers) -> CountAccumulator:
    """Decode the tally: blinded collector state minus every keeper.

    The only code path that ever produces plain counts in a split-trust
    round.  Refuses loudly when the parties disagree about geometry or
    coverage (``n``), and — via
    :func:`repro.estimation.merge.combine_shares` — when the residual
    words are not a valid count vector (the signature of a missing or
    corrupt keeper stream).
    """
    from ...estimation.merge import combine_shares

    if not isinstance(blinded, BlindedAccumulator) or (
        blinded.role != ROLE_BLINDED
    ):
        raise ValidationError(
            f"blinded must be a role-{ROLE_BLINDED!r} BlindedAccumulator, "
            f"got {blinded!r}"
        )
    keepers = list(keepers)
    for keeper in keepers:
        if not isinstance(keeper, BlindedAccumulator) or (
            keeper.role != ROLE_KEEPER
        ):
            raise ValidationError(
                f"every keeper must be a role-{ROLE_KEEPER!r} "
                f"BlindedAccumulator, got {keeper!r}"
            )
        if keeper.m != blinded.m or keeper.round_id != blinded.round_id:
            raise ValidationError(
                f"keeper state is for (m={keeper.m}, round="
                f"{keeper.round_id}); the blinded state holds "
                f"(m={blinded.m}, round={blinded.round_id})"
            )
        if keeper.n != blinded.n:
            raise ValidationError(
                f"keeper covers {keeper.n} rows but the blinded collector "
                f"covers {blinded.n}; the share streams are incomplete — "
                "refusing to decode"
            )
    counts = combine_shares(
        blinded.words(), [keeper.words() for keeper in keepers], n=blinded.n
    )
    return CountAccumulator.from_state(
        blinded.m, counts, blinded.n, round_id=blinded.round_id
    )


# ----------------------------------------------------------------------
# Producer orchestration
# ----------------------------------------------------------------------
async def send_split_trust(
    collector: tuple,
    keepers: dict,
    chunks,
    *,
    collector_key,
    keeper_keys: dict,
    producer_id: str,
    m: int,
    round_id: int = 0,
    start_seq: int = 0,
    max_inflight: int = 64,
) -> dict:
    """Blind *chunks* and ship each stream to its party, exactly-once.

    Parameters
    ----------
    collector:
        ``(host, port)`` of the blinded collector (or its routed shard).
    keepers:
        ``keeper_id -> (host, port)`` of every share keeper.  Must be
        non-empty.
    chunks:
        Iterable of packed uint8 report chunks; chunk ``i`` becomes
        record ``start_seq + i`` *on every party*, so the per-party
        idempotency ledgers line up and a blind resend of the whole
        call is free everywhere.
    collector_key / keeper_keys:
        The producer's key at the collector's registry, and its key at
        each keeper's own registry (``keeper_id -> key``).  Blinding
        secrets derive from the *keeper* keys only — the collector's key
        authenticates but can never unblind.

    Returns
    -------
    ``{"collector": [acks], "keepers": {keeper_id: [acks]}}``.
    """
    keepers = dict(keepers)
    if not keepers:
        raise ValidationError("split-trust needs at least one share keeper")
    keeper_keys = dict(keeper_keys)
    missing = sorted(set(keepers) - set(keeper_keys))
    if missing:
        raise ValidationError(
            f"no producer key supplied for share keeper(s) {missing}"
        )
    secrets = {
        keeper_id: derive_share_secret(
            keeper_keys[keeper_id],
            m=m,
            round_id=round_id,
            producer_id=producer_id,
            keeper_id=keeper_id,
        )
        for keeper_id in keepers
    }
    blinded_frames: list = []
    share_frames: dict[str, list] = {keeper_id: [] for keeper_id in keepers}
    for offset, rows in enumerate(chunks):
        blinded, shares = blind_report_chunk(
            rows,
            m=m,
            round_id=round_id,
            seq=int(start_seq) + offset,
            secrets=secrets,
        )
        blinded_frames.append(blinded)
        for keeper_id, share in shares.items():
            share_frames[keeper_id].append(share)

    host, port = collector

    async def ship_collector():
        return await send_records(
            host,
            port,
            blinded_frames,
            key=collector_key,
            producer_id=producer_id,
            m=m,
            round_id=round_id,
            start_seq=start_seq,
            max_inflight=max_inflight,
        )

    async def ship_keeper(keeper_id: str):
        keeper_host, keeper_port = keepers[keeper_id]
        return await send_records(
            keeper_host,
            keeper_port,
            share_frames[keeper_id],
            key=keeper_keys[keeper_id],
            producer_id=producer_id,
            m=m,
            round_id=round_id,
            start_seq=start_seq,
            max_inflight=max_inflight,
            party=keeper_party_label(keeper_id),
        )

    keeper_ids = sorted(keepers)
    results = await asyncio.gather(
        ship_collector(), *(ship_keeper(keeper_id) for keeper_id in keeper_ids)
    )
    return {
        "collector": results[0],
        "keepers": dict(zip(keeper_ids, results[1:])),
    }
