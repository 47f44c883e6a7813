"""Streaming, sharded report aggregation at production scale.

This package runs the paper's *real* per-user protocol — encode, perturb
on the device, aggregate on the collector — at paper scale and beyond,
in bounded memory:

* :mod:`.engine` — chunked perturbation: streams user batches through a
  mechanism's ``perturb_many`` and into an accumulator, never holding
  more than one ``chunk_size x m`` block (optionally ``np.packbits``
  packed, as a transport would ship it).
* :mod:`.accumulator` — :class:`CountAccumulator`, ``O(m)`` mergeable
  counter state (counts + user tally + round tag) whose ``merge`` is
  exact integer addition, PrivCount-style.
* :mod:`.sharded` — :class:`ShardedRunner`, a multi-process driver that
  fans user shards across workers and merges their accumulators.
* :mod:`.collect` — the durable/distributed collection layer: the
  versioned checksummed wire format for snapshots and packed chunks,
  and :class:`ShardStore` disk spill with out-of-core replay and digest
  audit.
* :mod:`.service` — the deployment-shaped endpoint on top of
  :mod:`.collect`: :class:`CollectionService`, an authenticated
  (HMAC-keyed sessions), exactly-once (fsync'd idempotency ledger),
  bounded (per-connection quotas + session backpressure), and
  crash-resumable (ledger + spill recovery) collection service, with
  :class:`ServiceSession` / :func:`send_records` as the producer side.

All three accept a sampler selection (``"bitexact"`` | ``"fast"`` | a
:class:`repro.kernels.SamplerConfig`): the fast packed-word kernel
produces wire-format chunks directly and the accumulator absorbs them
with a columnwise popcount, so the whole hot loop is free of float64
RNG and unpacked report matrices.

When to use which simulation path
---------------------------------
:mod:`repro.simulation.fast` draws aggregate counts directly from their
binomial law in ``O(n + m)`` — the right tool when only the *counts*
matter (regenerating the paper's figures, sweeping parameters).  Use
this package instead when the per-user reports themselves must exist:
end-to-end protocol validation, transport/wire-format realism, latency
and throughput measurement, multi-collector sharding, or multi-round
collection feeding :func:`repro.estimation.merge.merge_round_estimates`.
Both paths produce identically distributed counts; only their cost
models differ.
"""

from .accumulator import CountAccumulator
from .collect import PackedChunk, ShardStore
from .engine import iter_report_chunks, report_width, stream_counts
from .service import (
    CollectionService,
    IdempotencyLedger,
    KeyRegistry,
    RoundRegistry,
    ServiceLimits,
    ServiceSession,
    send_records,
)
from .sharded import ShardedRunner, shard_bounds

__all__ = [
    "CountAccumulator",
    "iter_report_chunks",
    "report_width",
    "stream_counts",
    "ShardedRunner",
    "shard_bounds",
    "ShardStore",
    "PackedChunk",
    "CollectionService",
    "ServiceSession",
    "ServiceLimits",
    "IdempotencyLedger",
    "KeyRegistry",
    "RoundRegistry",
    "send_records",
]
