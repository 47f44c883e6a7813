"""Mergeable bounded-memory count accumulators.

A :class:`CountAccumulator` is the collector-side state of one streaming
round: per-bit 1-counts, the number of users absorbed, and round
metadata.  Its :meth:`~CountAccumulator.merge` is *exact* — integer
counter addition, in the style of PrivCount's mergeable counters — so
sharding users across processes (or collectors across machines) and
merging afterwards yields bit-identical state to a single sequential
pass over the same reports.

Memory is ``O(m)`` regardless of how many users stream through, which is
what lets :mod:`repro.pipeline.engine` run the exact per-user protocol
at paper scale (Kosarak: ``m = 41,270``, a million users) without ever
holding the ``n x m`` report matrix.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .._validation import check_positive_int
from ..estimation.frequency import FrequencyEstimator
from ..estimation.merge import RoundEstimate
from ..exceptions import ValidationError
from ..kernels import packed_column_counts
from ..mechanisms.base import CategoricalMechanism

__all__ = ["CountAccumulator"]


class CountAccumulator:
    """Streaming per-bit count state with exact merge.

    Parameters
    ----------
    m:
        Report width in bits (the extended domain ``m + ell`` for a
        Padding-and-Sampling pipeline).
    round_id:
        Collection-round tag; accumulators only merge within a round
        (cross-round combination goes through
        :func:`repro.estimation.merge.merge_round_estimates`, which
        weights by each round's noise level instead of adding counts).
    """

    def __init__(self, m: int, *, round_id: int = 0) -> None:
        self.m = check_positive_int(m, "m")
        self.round_id = int(round_id)
        self._counts = np.zeros(self.m, dtype=np.int64)
        self._n = 0

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of user reports absorbed so far."""
        return self._n

    def counts(self) -> np.ndarray:
        """Copy of the per-bit 1-counts accumulated so far."""
        return self._counts.copy()

    @classmethod
    def from_state(
        cls, m: int, counts, n: int, *, round_id: int = 0
    ) -> "CountAccumulator":
        """Rebuild an accumulator from externally supplied state.

        The deserialization entry point (wire snapshots, audit replay):
        *counts* must be a length-``m`` non-negative integer vector with
        no entry exceeding *n* — every ingestion path (unary reports,
        packed reports, categorical histograms) preserves that invariant,
        so state violating it cannot have come from a real round.
        """
        acc = cls(m, round_id=round_id)
        counts = np.asarray(counts)
        if counts.shape != (acc.m,):
            raise ValidationError(
                f"counts must have shape ({acc.m},), got {counts.shape}"
            )
        if not np.issubdtype(counts.dtype, np.integer):
            raise ValidationError(f"counts must be integers, got dtype {counts.dtype}")
        n = int(n)
        if n < 0:
            raise ValidationError(f"n must be non-negative, got {n}")
        if counts.size and (counts.min() < 0 or counts.max() > n):
            raise ValidationError(
                f"counts must lie in [0, n={n}]; got range "
                f"[{counts.min()}, {counts.max()}]"
            )
        acc._counts = counts.astype(np.int64)
        acc._n = n
        return acc

    def digest(self) -> str:
        """SHA-256 hex digest of the canonical state.

        Two accumulators have equal digests iff ``(m, round_id, n,
        counts)`` are identical, so spill→replay audits and cross-machine
        transfers can compare a 64-character string instead of shipping
        the counts back.  The canonical form is fixed (little-endian
        header + little-endian ``int64`` counts) and independent of the
        wire-format version.
        """
        state = hashlib.sha256()
        state.update(struct.pack("<QqQ", self.m, self.round_id, self._n))
        state.update(np.ascontiguousarray(self._counts, dtype="<i8").tobytes())
        return state.hexdigest()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def add_reports(self, reports) -> None:
        """Absorb a ``k x m`` 0/1 chunk of unary reports.

        Only the chunk is touched; the accumulator never retains it.
        """
        matrix = np.asarray(reports)
        if matrix.ndim != 2 or matrix.shape[1] != self.m:
            raise ValidationError(
                f"reports must have shape (k, {self.m}), got {matrix.shape}"
            )
        if matrix.size:
            # Integer chunks (the streaming hot path) validate with two
            # allocation-free reductions; the elementwise 0/1 comparison
            # with its k x m temporaries is only needed for float input.
            if matrix.dtype == bool or np.issubdtype(matrix.dtype, np.integer):
                if matrix.min() < 0 or matrix.max() > 1:
                    raise ValidationError("reports must contain only 0/1 values")
            elif not np.all((matrix == 0) | (matrix == 1)):
                raise ValidationError("reports must contain only 0/1 values")
        self._counts += matrix.sum(axis=0, dtype=np.int64)
        self._n += matrix.shape[0]

    def add_packed_reports(self, packed) -> None:
        """Absorb a chunk of ``np.packbits``-packed unary reports.

        Parameters
        ----------
        packed:
            ``k x ceil(m / 8)`` ``uint8`` matrix as produced by
            ``np.packbits(chunk, axis=1)`` (the transport-realistic wire
            format: one byte per 8 bits instead of one byte per bit).
            Row-wise packing preserves the user count, so ``k`` rows are
            ``k`` users; the accumulator's own width says how many of the
            trailing bits are padding.  Read-only views are accepted
            directly — a zero-copy decode (``memoryview`` over a socket
            buffer or an mmap'd spill file) feeds the popcount without
            ever materializing the payload as ``bytes``.
        """
        matrix = np.asarray(packed)
        # Columnwise popcount: blocks of at most 255 rows (the most a
        # uint8 column sum holds without wrapping) are unpacked, summed
        # in uint8 and widened into the int64 counts.  The kernel first
        # refuses a wrong shape or dtype and set pad bits (a producer
        # packed a wider domain than this round's).
        self._counts += packed_column_counts(matrix, self.m)
        self._n += matrix.shape[0]

    def absorb_frame(self, obj) -> None:
        """Absorb one decoded wire frame: a snapshot or a packed chunk.

        The single merge rule for every ingestion surface — the
        exactly-once service's live merge and its spill replay — so
        width/round refusals behave identically everywhere.
        """
        # wire imports this module, so the frame type is looked up late.
        from .collect.wire import PackedChunk

        if isinstance(obj, CountAccumulator):
            self.merge(obj)
        elif isinstance(obj, PackedChunk):
            if obj.m != self.m:
                raise ValidationError(
                    f"cannot ingest width-{obj.m} chunk into width-"
                    f"{self.m} round"
                )
            if obj.round_id != self.round_id:
                raise ValidationError(
                    f"cannot ingest round-{obj.round_id} chunk into round "
                    f"{self.round_id}"
                )
            self.add_packed_reports(obj.rows)
        else:
            raise ValidationError(
                f"cannot ingest {type(obj).__name__}; expected "
                "CountAccumulator or PackedChunk"
            )

    def add_categories(self, outputs) -> None:
        """Absorb a chunk of categorical outputs (one id in ``0..m-1`` each).

        This is the streaming aggregation path for
        :class:`~repro.mechanisms.base.CategoricalMechanism` baselines
        (GRR and friends), whose released report is a category id rather
        than a bit vector; the per-bit count is then the output histogram.
        """
        ids = np.asarray(outputs)
        if ids.ndim != 1:
            raise ValidationError(f"outputs must be 1-D, got shape {ids.shape}")
        if not np.issubdtype(ids.dtype, np.integer):
            raise ValidationError(f"outputs must be integers, got dtype {ids.dtype}")
        if ids.size and (ids.min() < 0 or ids.max() >= self.m):
            raise ValidationError(f"outputs fall outside domain [0, {self.m - 1}]")
        self._counts += np.bincount(ids, minlength=self.m)
        self._n += ids.size

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, other: "CountAccumulator") -> "CountAccumulator":
        """Absorb another shard's state; exact by integer addition.

        Returns ``self`` so shard results chain:
        ``reduce(CountAccumulator.merge, shards)``.
        """
        if not isinstance(other, CountAccumulator):
            raise ValidationError(
                f"can only merge CountAccumulator, got {type(other).__name__}"
            )
        if other.m != self.m:
            raise ValidationError(
                f"cannot merge width-{other.m} state into width-{self.m} state"
            )
        if other.round_id != self.round_id:
            raise ValidationError(
                f"cannot merge round {other.round_id} into round {self.round_id}; "
                "combine rounds via merge_round_estimates instead"
            )
        self._counts += other._counts
        self._n += other._n
        return self

    @classmethod
    def merge_all(cls, shards) -> "CountAccumulator":
        """Merge a non-empty sequence of shard accumulators into a new one."""
        shards = list(shards)
        if not shards:
            raise ValidationError("no accumulators to merge")
        merged = cls(shards[0].m, round_id=shards[0].round_id)
        for shard in shards:
            merged.merge(shard)
        return merged

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def to_round_estimate(self, mechanism) -> RoundEstimate:
        """Calibrate this round's counts for cross-round merging.

        Builds the mechanism's matching :class:`FrequencyEstimator` for
        the absorbed user tally and wraps the calibrated estimates (plus
        their noise profile) in a :class:`RoundEstimate`, ready for
        :func:`repro.estimation.merge.merge_round_estimates`.
        """
        if self._n == 0:
            raise ValidationError("cannot estimate from an empty accumulator")
        if hasattr(mechanism, "a"):
            estimator = FrequencyEstimator.for_mechanism(mechanism, self._n)
        elif isinstance(mechanism, CategoricalMechanism) and hasattr(mechanism, "p"):
            # Categorical baseline: the output histogram obeys
            # E[c_i] = c*_i p + (n - c*_i) q, the same law Eq. 8 inverts.
            # GRR carries q explicitly; binary RR flips symmetrically, so
            # its off-diagonal mass is 1 - p.  (Hash-domain mechanisms
            # like OLH also expose p/q but need their own calibration —
            # the isinstance gate keeps them on the error path below.)
            q = getattr(mechanism, "q", 1.0 - mechanism.p)
            estimator = FrequencyEstimator(
                np.full(self.m, mechanism.p), np.full(self.m, q), self._n
            )
        else:
            raise ValidationError(
                f"cannot build an estimator for {type(mechanism).__name__}: "
                "expected unary a/b vectors or categorical p/q scalars"
            )
        return RoundEstimate.from_counts(estimator, self._counts)

    def estimate(self, mechanism) -> np.ndarray:
        """Unbiased item-count estimates from the accumulated counts."""
        return self.to_round_estimate(mechanism).estimates

    def __repr__(self) -> str:
        return (
            f"CountAccumulator(m={self.m}, n={self._n}, round_id={self.round_id})"
        )
