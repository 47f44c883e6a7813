"""Exactly-once, authenticated collection service.

The one ingest path of the pipeline: producers authenticate, delivery
is exactly-once (a blind resend after a lost ack is acknowledged as a
duplicate, not re-merged), and a crash mid-round loses nothing that was
acknowledged.  The endpoint is layered on the wire format of
:mod:`repro.pipeline.collect`, PrivCount-style:

* :mod:`.auth` — the HMAC-keyed session handshake and the
  :class:`KeyRegistry` of per-producer keys (keyfile-loadable,
  hot-rotatable): every session authenticates with *its own
  producer's* key, so one compromised producer can forge nothing for
  another.
* :mod:`.rounds` — :class:`RoundState` / :class:`RoundRegistry`, the
  multi-round multiplexing layer: each hosted round owns its geometry,
  store namespace, ledger, accumulator, quota meters, registration
  token, and commit pipeline; sessions are routed by the HELLO's
  ``round_id`` and can never cross-merge.
* :mod:`.commit` — :class:`GroupCommitScheduler`, cross-connection
  group commit: one spill-fsync + ledger-fsync pair covers everything
  *every* session of a round staged while the previous commit was in
  flight.
* :mod:`.ledger` — :class:`IdempotencyLedger`, the append-only
  write-ahead ledger of ``(producer_id, seq, digest, spill_end)``
  records, fsync'd before every ack, that turns at-least-once transport
  into exactly-once ingestion: a blind resend is acked but not
  re-merged, and a reused sequence number with different bytes is
  refused as equivocation.
* :mod:`.quotas` — :class:`ServiceLimits`, per-connection byte/frame
  quotas and session capacity, so a flood of producers stalls or is
  shed instead of OOMing the service.
* :mod:`.server` — :class:`CollectionService`, the asyncio endpoint
  tying it together: durable spill (via a durable
  :class:`~repro.pipeline.collect.store.ShardChunkWriter`), ledger,
  live accumulator, and crash recovery (``resume=True`` truncates the
  spill to the ledger's committed offset and replays it, so a restart
  loses nothing and double-counts nothing).
* :mod:`.client` — :class:`ServiceSession` / :func:`send_records` /
  :func:`send_records_routed`, the producer side of the handshake and
  record protocol (routing-aware against a shard fleet), plus
  :func:`control_call`, the authenticated control-plane client.

The scale-out tier splits the endpoint into three roles:

* :mod:`.lifecycle` — :class:`RoundLifecycle`, the explicit round
  state machine (``open → serving → draining → closed → retired``).
* :mod:`.routing` — :class:`RoutingTable` / :class:`ShardInfo`,
  consistent-hash assignment of producers to named shards, with
  ``MOVED`` redirects for stale clients.
* :mod:`.sessions` — :class:`SessionHost`, the connection-handling
  half of the original server (handshakes, the record loop, group
  commit acks, revocation reaping, routing enforcement).
* :mod:`.server` — :class:`CollectionService` is now the round
  *ownership* layer composing a session host, and answers the
  authenticated control plane (drain / close / retire / pull-state /
  route-update).
* :mod:`.coordinator` — :class:`RoundCoordinator`, the round lifecycle
  authority for a fleet: mints registration tokens, registers rounds
  fleet-wide, pushes routing tables, drives drains and closes.
* :mod:`.aggregator` — pull per-shard accumulator state over the
  control plane (digest-verified) and merge it — exactly — into the
  round estimate via :mod:`repro.estimation.merge`.
* :mod:`.topology` — :class:`ShardProcess` / :class:`ShardFleet`,
  shard services as real OS processes with crash (SIGKILL) and
  resume semantics.

The **split-trust tier** removes the last single point of trust — a
collector that sees what it aggregates:

* :mod:`.shares` — additive mod-2^64 blinding of per-chunk packed
  counts against per-keeper transcript-derived secrets
  (:func:`blind_report_chunk`), the per-party
  :class:`BlindedAccumulator`, and the membership digest that makes a
  missing keeper loud.  A share keeper is just a
  :class:`CollectionService` in ``mode="keeper"``; the blinded
  collector runs ``mode="blinded"``; neither can decode anything alone.
* :func:`combine_round` (in :mod:`.aggregator`) — the only place a
  split-trust round's plain tally comes into existence: all keeper
  states plus the blinded collector state, membership-reconciled, then
  decoded via :func:`repro.estimation.merge.combine_shares` —
  bit-identical to the direct unblinded tally.

See ``docs/service.md`` for the protocol, ledger format, recovery
semantics, the scale-out topology, and the split-trust trust model.
"""

from .aggregator import (
    AggregateResult,
    PartyPull,
    ShardPull,
    SplitTrustResult,
    aggregate_round,
    combine_round,
    merge_tree,
    pull_party_state,
    pull_shard_state,
)
from .auth import (
    KeyRegistry,
    derive_producer_key,
    derive_round_key,
    derive_share_secret,
    keeper_party_label,
    session_mac,
)
from .client import (
    ServiceSession,
    control_call,
    refresh_routing_table,
    send_records,
    send_records_routed,
)
from .commit import GroupCommitScheduler
from .coordinator import CoordinatedRound, RoundCoordinator
from .journal import CoordinatorJournal
from .ledger import IdempotencyLedger, LedgerEntry
from .lifecycle import RoundLifecycle
from .quotas import ServiceLimits
from .rounds import (
    MODE_BLINDED,
    MODE_COLLECT,
    MODE_KEEPER,
    RoundRegistry,
    RoundState,
)
from .routing import RoutingTable, ShardInfo
from .server import CollectionService
from .sessions import SessionHost
from .shares import (
    ROLE_BLINDED,
    ROLE_KEEPER,
    BlindedAccumulator,
    blind_report_chunk,
    blinding_words,
    combine_accumulators,
    send_split_trust,
)
from .topology import ShardFleet, ShardProcess

__all__ = [
    "AggregateResult",
    "BlindedAccumulator",
    "CollectionService",
    "CoordinatedRound",
    "CoordinatorJournal",
    "GroupCommitScheduler",
    "IdempotencyLedger",
    "KeyRegistry",
    "LedgerEntry",
    "MODE_BLINDED",
    "MODE_COLLECT",
    "MODE_KEEPER",
    "PartyPull",
    "ROLE_BLINDED",
    "ROLE_KEEPER",
    "RoundCoordinator",
    "RoundLifecycle",
    "RoundRegistry",
    "RoundState",
    "RoutingTable",
    "ServiceLimits",
    "ServiceSession",
    "SessionHost",
    "ShardFleet",
    "ShardInfo",
    "ShardPull",
    "SplitTrustResult",
    "aggregate_round",
    "blind_report_chunk",
    "blinding_words",
    "combine_accumulators",
    "combine_round",
    "control_call",
    "derive_producer_key",
    "derive_round_key",
    "derive_share_secret",
    "keeper_party_label",
    "merge_tree",
    "pull_party_state",
    "pull_shard_state",
    "refresh_routing_table",
    "send_records",
    "send_records_routed",
    "send_split_trust",
    "session_mac",
]
