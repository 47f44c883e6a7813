"""Multi-process sharded collection: fan user shards out, merge exactly.

:class:`ShardedRunner` splits the user population into contiguous
shards, streams each shard through the chunked engine in its own worker
process, and merges the per-shard
:class:`~repro.pipeline.accumulator.CountAccumulator` states.  Because
the merge is exact integer addition, the sharded result is
distributionally identical to a sequential pass — and bit-identical to
re-running the same shard with the same child seed.

Per-shard randomness comes from ``numpy.random.SeedSequence.spawn``, so
a run is reproducible given ``(seed, num_shards, chunk_size)`` while
shards stay statistically independent.

Workers receive the mechanism by pickling; all mechanisms in
:mod:`repro.mechanisms` are plain objects over numpy arrays, so this is
cheap relative to the perturbation work itself.  Shard *results* come
back the other way as versioned, checksummed wire-format snapshots
(:mod:`repro.pipeline.collect.wire`) rather than bare pickles — the
same frames a cross-machine deployment would ship, so a worker on
another host (or another build) fails loudly on format skew instead of
silently unpickling stale state.

Pass ``spill_dir`` to :meth:`ShardedRunner.run` to make every worker
spill its packed report chunks and final snapshot into a
:class:`~repro.pipeline.collect.ShardStore` as it streams — the round
then supports out-of-core replay and digest audit with no extra pass.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import deque

import numpy as np

from .._validation import as_int_array, check_positive_int
from ..datasets.base import ItemsetDataset
from ..exceptions import ValidationError
from ..kernels import resolve_sampler
from ..mechanisms.base import CategoricalMechanism
from .accumulator import CountAccumulator
from .collect import ShardStore, wire
from .engine import report_width, stream_counts

__all__ = ["ShardedRunner", "shard_bounds"]


def shard_bounds(n: int, num_shards: int) -> list[tuple[int, int]]:
    """Split ``n`` users into ``num_shards`` contiguous near-equal ranges.

    The first ``n % num_shards`` shards hold one extra user; empty
    shards are never produced (the shard count is capped at ``n``).
    """
    n = check_positive_int(n, "n")
    num_shards = min(check_positive_int(num_shards, "num_shards"), n)
    base, extra = divmod(n, num_shards)
    bounds = []
    start = 0
    for index in range(num_shards):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _slice_shard(data, start: int, stop: int):
    """Materialize one shard's inputs (CSR re-based for item-set data)."""
    if isinstance(data, ItemsetDataset):
        return data.slice_users(start, stop)
    return np.asarray(data)[start:stop].copy()


def _run_shard(payload) -> bytes:
    """Worker entry point (module-level so it pickles under spawn).

    Returns the shard's accumulator as a wire-format snapshot frame —
    the parent decodes it with :func:`repro.pipeline.collect.loads`, so
    results cross the process boundary in the same checked format they
    would cross a machine boundary.
    """
    (
        mechanism,
        shard_data,
        chunk_size,
        packed,
        round_id,
        seed_seq,
        sampler,
        shard_index,
        spill_dir,
    ) = payload
    chunk_sink = None
    writer = None
    if spill_dir is not None:
        store = ShardStore(spill_dir)
        writer = store.writer(
            shard_index, report_width(mechanism), round_id=round_id
        )
        if packed:
            chunk_sink = writer.write
        else:
            # Unpacked int8 chunks spill in the packed wire format; the
            # columnwise popcount on replay counts the same bits, so the
            # round-trip stays bit-exact.
            chunk_sink = lambda chunk: writer.write(np.packbits(chunk, axis=1))
    try:
        # The sampler's backend expands the shard's SeedSequence, so a fast
        # run gets e.g. SFC64 workers while bitexact keeps PCG64 — the
        # default_rng-equivalent stream it has always had.
        accumulator = stream_counts(
            mechanism,
            shard_data,
            chunk_size=chunk_size,
            rng=sampler.make_generator(seed_seq),
            packed=packed,
            round_id=round_id,
            sampler=sampler,
            chunk_sink=chunk_sink,
        )
    finally:
        if writer is not None:
            writer.close()
    if spill_dir is not None:
        store.write_snapshot(shard_index, accumulator)
    return wire.dumps(accumulator)


class ShardedRunner:
    """Fan the chunked streaming pipeline across worker processes.

    Parameters
    ----------
    mechanism:
        Any mechanism :func:`repro.pipeline.engine.stream_counts`
        accepts (unary, categorical, or IDUE-PS).
    num_shards:
        User shards = worker tasks; defaults to the machine's CPU count.
    chunk_size:
        Users per chunk *within* each shard; bounds each worker's peak
        memory at ``O(chunk_size * m)``.
    packed:
        Ship each chunk through the ``np.packbits`` wire format.
    processes:
        Pool size; defaults to ``min(num_shards, cpu_count)``.  ``1``
        runs the shards serially in-process (no pool), which is also the
        automatic fallback where multiprocessing is unavailable.
    sampler:
        ``None`` / ``"bitexact"`` / ``"fast"`` / a
        :class:`~repro.kernels.SamplerConfig` applied in every worker.
        Also controls which BitGenerator the per-shard ``SeedSequence``
        children are expanded with (the config's ``backend``).
    """

    def __init__(
        self,
        mechanism,
        *,
        num_shards: int | None = None,
        chunk_size: int = 4096,
        packed: bool = False,
        processes: int | None = None,
        sampler=None,
    ) -> None:
        cpus = os.cpu_count() or 1
        self.mechanism = mechanism
        self.num_shards = check_positive_int(
            cpus if num_shards is None else num_shards, "num_shards"
        )
        self.chunk_size = check_positive_int(chunk_size, "chunk_size")
        self.packed = bool(packed)
        if processes is None:
            processes = min(self.num_shards, cpus)
        self.processes = check_positive_int(processes, "processes")
        self.sampler = resolve_sampler(sampler)

    # ------------------------------------------------------------------
    def _num_users(self, data) -> int:
        if isinstance(data, ItemsetDataset):
            return data.n
        return as_int_array(data, "data").size

    def run(
        self,
        data,
        *,
        seed: int | None = None,
        round_id: int = 0,
        spill_dir: str | None = None,
    ) -> CountAccumulator:
        """Collect one full round over *data* and return the merged state.

        Parameters
        ----------
        data:
            1-D single-item array or :class:`ItemsetDataset`, matching
            the mechanism.
        seed:
            Root seed for the per-shard ``SeedSequence`` spawn; ``None``
            draws fresh OS entropy.
        spill_dir:
            Directory for a :class:`~repro.pipeline.collect.ShardStore`;
            when given, every worker spills its packed report chunks and
            final snapshot there as it streams, making the round
            replayable/auditable out of core.  Requires bit-vector
            reports (categorical mechanisms release bare ids, which have
            no packed chunk form).
        """
        if spill_dir is not None and isinstance(self.mechanism, CategoricalMechanism):
            raise ValidationError(
                "spill_dir requires bit-vector reports; categorical "
                "mechanisms release one id per user and have no packed "
                "chunk form"
            )
        if not isinstance(data, ItemsetDataset):
            data = as_int_array(data, "data")  # convert once, slice per shard
        n = self._num_users(data)
        if n == 0:
            raise ValidationError("cannot run a collection round over zero users")
        bounds = shard_bounds(n, self.num_shards)
        children = np.random.SeedSequence(seed).spawn(len(bounds))
        if spill_dir is not None:
            # Create the round directory up front — and refuse a reused
            # one: stale shard files from a previous round would survive
            # alongside this run's (e.g. 4 old shards vs 2 new) and
            # silently inflate any later replay/audit.
            stale = ShardStore(spill_dir).shard_ids()
            if stale:
                raise ValidationError(
                    f"spill_dir {spill_dir!r} already holds spilled shards "
                    f"{stale}; each collection round needs a fresh directory"
                )
        # Generator, not list: each shard's copy is materialized only as
        # it is dispatched (and freed once its worker returns), keeping
        # the parent's transient copies bounded by the dispatch window in
        # _map rather than the shard count.
        payloads = (
            (
                self.mechanism,
                _slice_shard(data, start, stop),
                self.chunk_size,
                self.packed,
                round_id,
                child,
                self.sampler,
                shard_index,
                spill_dir,
            )
            for shard_index, ((start, stop), child) in enumerate(
                zip(bounds, children)
            )
        )
        frames = self._map(payloads, len(bounds))
        return CountAccumulator.merge_all(wire.loads(frame) for frame in frames)

    def run_rounds(self, data, *, seeds) -> list[CountAccumulator]:
        """Run one collection round per seed (multi-round deployments).

        Returns one merged accumulator per round, tagged ``round_id =
        0, 1, ...``; calibrate each via ``to_round_estimate`` and combine
        with :func:`repro.estimation.merge.merge_round_estimates`.
        """
        return [
            self.run(data, seed=seed, round_id=index)
            for index, seed in enumerate(seeds)
        ]

    # ------------------------------------------------------------------
    def _map(self, payloads, count: int):
        if self.processes == 1 or count == 1:
            return [_run_shard(payload) for payload in payloads]
        try:
            pool = multiprocessing.get_context().Pool(min(self.processes, count))
        except OSError:
            # Sandboxes and restricted hosts may forbid forking; the
            # serial path computes the identical merged state.  Errors
            # *during* the parallel run are real failures and propagate.
            return [_run_shard(payload) for payload in payloads]
        window = min(self.processes, count)
        results: list = []
        handles: deque = deque()
        with pool:
            # Bounded dispatch window: at most `window` shard payloads are
            # materialized/pickled at once (pool.imap's feeder thread would
            # drain the whole payload generator eagerly).  This caps the
            # parent's transient copies at ~processes/num_shards of the
            # dataset — a real bound when many small shards feed few
            # workers; with num_shards == processes every shard is in
            # flight at once and the aggregate copy is unavoidable.
            for payload in payloads:
                handles.append(pool.apply_async(_run_shard, (payload,)))
                while len(handles) >= window:
                    # Merge order is irrelevant (exact integer addition),
                    # so drain whichever shard finished first rather than
                    # head-of-line blocking on the oldest submission.
                    ready = [h for h in handles if h.ready()]
                    if ready:
                        for handle in ready:
                            handles.remove(handle)
                            results.append(handle.get())
                    else:
                        handles[0].wait(0.05)
            results.extend(handle.get() for handle in handles)
        return results

    def __repr__(self) -> str:
        return (
            f"ShardedRunner({self.mechanism!r}, num_shards={self.num_shards}, "
            f"chunk_size={self.chunk_size}, processes={self.processes}, "
            f"sampler={self.sampler.exactness!r})"
        )
