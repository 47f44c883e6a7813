"""Chunked perturbation engine: the exact per-user path in bounded memory.

The naive exact path (:mod:`repro.simulation.exact`) materializes the
full ``n x m`` report matrix, which at Kosarak scale (``m = 41,270``,
``n = 10^6``) is ~40 GB before the aggregation even starts.  This engine
instead streams users through the mechanism in chunks of configurable
size: only one ``chunk_size x m`` block (plus the mechanism's internal
uniform draw of the same shape) is ever alive, so peak additional memory
is ``O(chunk_size * m)`` and the per-bit counts come out of a
:class:`~repro.pipeline.accumulator.CountAccumulator` in ``O(m)`` state.

Every chunk is produced by the mechanism's own ``perturb_many`` — this
is the *real* encode→perturb→aggregate protocol, not the binomial
shortcut of :mod:`repro.simulation.fast` — so with a single chunk
(``chunk_size >= n``) the counts are bit-identical to a one-shot
``perturb_many`` call with the same generator.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_int_array, check_positive_int, check_rng
from ..datasets.base import ItemsetDataset
from ..exceptions import ValidationError
from ..kernels import resolve_sampler
from ..mechanisms.base import CategoricalMechanism, Mechanism, UnaryMechanism
from ..mechanisms.idue_ps import IDUEPS
from .accumulator import CountAccumulator

__all__ = ["report_width", "iter_report_chunks", "stream_counts"]


def report_width(mechanism: Mechanism) -> int:
    """Width of one released report in bits (or histogram bins).

    The extended domain ``m + ell`` for Padding-and-Sampling pipelines,
    the plain item domain ``m`` otherwise.
    """
    if isinstance(mechanism, IDUEPS):
        return mechanism.extended_m
    return mechanism.m


def _iter_user_slices(n: int, chunk_size: int):
    for start in range(0, n, chunk_size):
        yield start, min(n, start + chunk_size)


def iter_report_chunks(
    mechanism: Mechanism,
    data,
    *,
    chunk_size: int = 4096,
    rng=None,
    packed: bool = False,
    sampler=None,
):
    """Yield per-chunk released reports for a whole dataset.

    Parameters
    ----------
    mechanism:
        A :class:`UnaryMechanism` or :class:`CategoricalMechanism` (with
        *data* a 1-D array of single-item inputs), or an :class:`IDUEPS`
        (with *data* an :class:`ItemsetDataset`).
    data:
        The users' private inputs; only ``chunk_size`` of them are
        processed at a time.
    chunk_size:
        Users per chunk; peak memory scales linearly with it.
    rng:
        Generator / seed / None, consumed chunk by chunk — results are
        reproducible given ``(seed, chunk_size)``.
    packed:
        For bit-vector mechanisms, emit ``np.packbits``-packed ``uint8``
        chunks (the transport wire format, 8x smaller).  Invalid for
        categorical mechanisms, whose report is already a single id per
        user.
    sampler:
        ``None`` / ``"bitexact"`` / ``"fast"`` / a
        :class:`~repro.kernels.SamplerConfig`.  The default keeps the
        fixed-seed float64 streams; ``"fast"`` draws each chunk through
        the packed bit-plane kernel, in which case ``packed=True``
        chunks come straight out of the kernel with no 0/1 matrix or
        ``np.packbits`` pass at all.

    Yields
    ------
    ``chunk_size x width`` 0/1 ``int8`` matrices (unary), packed
    ``uint8`` matrices (``packed=True``), or 1-D ``int64`` id arrays
    (categorical).
    """
    chunk_size = check_positive_int(chunk_size, "chunk_size")
    rng = check_rng(rng)
    sampler = resolve_sampler(sampler)

    if isinstance(mechanism, IDUEPS):
        if not isinstance(data, ItemsetDataset):
            raise ValidationError(
                f"IDUEPS streams an ItemsetDataset, got {type(data).__name__}"
            )
        if data.m != mechanism.m:
            raise ValidationError(
                f"dataset domain {data.m} does not match mechanism domain "
                f"{mechanism.m}"
            )
        for start, stop in _iter_user_slices(data.n, chunk_size):
            shard = data.slice_users(start, stop)
            if packed:
                yield mechanism.perturb_many_packed(
                    shard.flat_items, shard.offsets, rng, sampler=sampler
                )
            else:
                yield mechanism.perturb_many(
                    shard.flat_items, shard.offsets, rng, sampler=sampler
                )
        return

    if not isinstance(mechanism, (UnaryMechanism, CategoricalMechanism)):
        raise ValidationError(
            f"cannot stream reports for {type(mechanism).__name__}; expected a "
            "UnaryMechanism, CategoricalMechanism, or IDUEPS"
        )
    items = as_int_array(data, "data")
    if items.ndim != 1:
        raise ValidationError(f"data must be a 1-D item array, got shape {items.shape}")
    if items.size and (items.min() < 0 or items.max() >= mechanism.m):
        raise ValidationError(f"inputs fall outside domain [0, {mechanism.m - 1}]")

    if isinstance(mechanism, CategoricalMechanism):
        if packed:
            raise ValidationError(
                "packed=True only applies to bit-vector reports; categorical "
                "mechanisms already release one id per user"
            )
        for start, stop in _iter_user_slices(items.size, chunk_size):
            yield mechanism.perturb_many(items[start:stop], rng, sampler=sampler)
        return

    for start, stop in _iter_user_slices(items.size, chunk_size):
        if packed:
            yield mechanism.perturb_many_packed(
                items[start:stop], rng, sampler=sampler
            )
        else:
            yield mechanism.perturb_many(items[start:stop], rng, sampler=sampler)


def stream_counts(
    mechanism: Mechanism,
    data,
    *,
    chunk_size: int = 4096,
    rng=None,
    packed: bool = False,
    round_id: int | None = None,
    accumulator: CountAccumulator | None = None,
    sampler=None,
    chunk_sink=None,
) -> CountAccumulator:
    """Run the exact per-user path end to end with bounded memory.

    Streams every chunk from :func:`iter_report_chunks` straight into a
    :class:`CountAccumulator` and returns it; nothing proportional to
    ``n x m`` is ever allocated.  With ``packed=True`` the chunks make a
    round trip through the ``np.packbits`` wire format first, exercising
    what a real transport would ship.

    *sampler* selects the perturbation kernel (see
    :func:`iter_report_chunks`).  The throughput configuration is
    ``sampler="fast"`` with ``packed=True``: chunks leave the bit-plane
    kernel already packed and are absorbed by the accumulator's
    columnwise popcount, so no per-bit array exists anywhere in the
    loop.

    Pass *accumulator* to continue filling an existing round (e.g. users
    arriving in waves); its width must match the mechanism's, and a
    *round_id* given alongside it must match its round.

    *chunk_sink*, if given, is called with every released chunk exactly
    as the accumulator is about to see it — the tap used by
    :class:`~repro.pipeline.collect.ShardStore` spilling (durable
    replay/audit files) and by transports that forward chunks while
    counting them.  The sink must not mutate the chunk.
    """
    width = report_width(mechanism)
    if accumulator is None:
        accumulator = CountAccumulator(
            width, round_id=0 if round_id is None else round_id
        )
    elif accumulator.m != width:
        raise ValidationError(
            f"accumulator width {accumulator.m} does not match report width {width}"
        )
    elif round_id is not None and accumulator.round_id != round_id:
        raise ValidationError(
            f"round_id={round_id} conflicts with the accumulator's round "
            f"{accumulator.round_id}"
        )
    categorical = isinstance(mechanism, CategoricalMechanism)
    for chunk in iter_report_chunks(
        mechanism, data, chunk_size=chunk_size, rng=rng, packed=packed,
        sampler=sampler,
    ):
        if chunk_sink is not None:
            chunk_sink(chunk)
        if categorical:
            accumulator.add_categories(chunk)
        elif packed:
            accumulator.add_packed_reports(chunk)
        else:
            accumulator.add_reports(chunk)
    return accumulator
