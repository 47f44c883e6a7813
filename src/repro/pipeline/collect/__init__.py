"""Durable collection: wire format and disk-backed shards.

The pieces a distributed deployment of the pipeline needs between
"devices perturb" and "collector estimates":

* :mod:`.wire` — the versioned, CRC-checksummed binary frame format for
  :class:`~repro.pipeline.accumulator.CountAccumulator` snapshots and
  packed report chunks (``dumps``/``loads`` plus file/stream IO).  See
  ``docs/wire_format.md`` for the byte layout and versioning rules.
* :mod:`.store` — :class:`ShardStore`, append-only per-shard spill files
  of chunk frames with out-of-core replay and digest-based audit.
* :mod:`.framing` — the async frame reader every socket surface of
  :mod:`repro.pipeline.service` shares.

Everything round-trips bit-exactly: a round spilled and replayed, or
shipped frame-by-frame through the collection service, reproduces the
in-memory :func:`~repro.pipeline.engine.stream_counts` state digest for
digest.
"""

from .store import ShardChunkWriter, ShardStore
from .wire import (
    HEADER_SIZE,
    KIND_ACK,
    KIND_CHALLENGE,
    KIND_CHUNK,
    KIND_HELLO,
    KIND_PROOF,
    KIND_RECORD,
    KIND_SNAPSHOT,
    WIRE_MAGIC,
    WIRE_VERSION,
    WIRE_VERSION_SESSION,
    Ack,
    PackedChunk,
    Record,
    SessionChallenge,
    SessionHello,
    SessionProof,
    dump_chunk,
    dump_snapshot,
    dumps,
    iter_frames,
    loads,
    read_frame,
    write_frame,
)

__all__ = [
    "ShardStore",
    "ShardChunkWriter",
    "PackedChunk",
    "SessionHello",
    "SessionChallenge",
    "SessionProof",
    "Record",
    "Ack",
    "dumps",
    "loads",
    "dump_snapshot",
    "dump_chunk",
    "write_frame",
    "read_frame",
    "iter_frames",
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "WIRE_VERSION_SESSION",
    "KIND_SNAPSHOT",
    "KIND_CHUNK",
    "KIND_HELLO",
    "KIND_CHALLENGE",
    "KIND_PROOF",
    "KIND_RECORD",
    "KIND_ACK",
    "HEADER_SIZE",
]
