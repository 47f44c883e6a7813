"""Bit-sliced sampling kernels: packed-word randomness for hot paths.

The per-user protocols spend essentially all of their time flipping
Bernoulli coins.  This package supplies that randomness at the word
level instead of one float64 per coin:

* :mod:`.config` — :class:`SamplerConfig`, the switch between the
  frozen ``"bitexact"`` float64 path and the ``"fast"`` packed-word
  kernel (plus RNG backend and draw-dtype choices).  Accepted by
  ``perturb_many`` / ``perturb_many_packed``, the streaming engine,
  :class:`~repro.pipeline.sharded.ShardedRunner` and the ``pipeline``
  CLI (``--sampler fast|bitexact``).
* :mod:`.bernoulli` — the kernels themselves:
  :func:`~repro.kernels.bernoulli.packed_bernoulli` (bit-plane
  fixed-point Bernoulli over raw ``uint64`` words, output already in
  the ``np.packbits`` wire format), packed-domain bit assignment, and
  a columnwise popcount for packed chunks, all plain numpy.

The bitexact-vs-fast contract in one line (``docs/kernels.md`` has the
rest): *bitexact* keeps fixed-seed output streams byte-identical to
previous releases; *fast* keeps only the output distribution (to
~2^-60 per-bit, i.e. statistically indistinguishable) and is 4-10x
faster end to end.
"""

from .bernoulli import (
    fixed_point_decompose,
    packed_assign_bits,
    packed_bernoulli,
    packed_column_counts,
    packed_width,
)
from .config import BITEXACT, FAST, SamplerConfig, resolve_sampler

__all__ = [
    "SamplerConfig",
    "BITEXACT",
    "FAST",
    "resolve_sampler",
    "packed_bernoulli",
    "packed_assign_bits",
    "packed_column_counts",
    "packed_width",
    "fixed_point_decompose",
    "available_compute_backends",
]


def available_compute_backends() -> tuple[str, ...]:
    """Where the packed kernels run: numpy only (kept for run metadata)."""
    return ("numpy",)
