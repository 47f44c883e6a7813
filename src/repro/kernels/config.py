"""Sampler configuration: which RNG backend and bit kernel to use.

Every mechanism draws its randomness through a sampling *kernel*, and a
:class:`SamplerConfig` names which one:

``exactness="bitexact"`` (the default)
    The historical float64 path: one PCG64 ``random()`` draw per
    Bernoulli coin, consumed in exactly the order the mechanisms have
    always consumed them.  Fixed-seed output streams are frozen — any
    test or experiment pinned to a seed keeps producing byte-identical
    reports.

``exactness="fast"``
    The bit-sliced packed-word kernel of
    :mod:`repro.kernels.bernoulli`: raw ``uint64`` words drawn straight
    from the BitGenerator, compared plane-by-plane against a fixed-point
    threshold, emitting reports already in the ``np.packbits`` wire
    format.  The contract is *distributional equivalence*: released
    reports follow the same per-bit Bernoulli law (to ~2^-60 in
    probability — see :func:`repro.kernels.bernoulli.packed_bernoulli`)
    but the fixed-seed bit stream differs from the float64 path.

The two remaining axes tune the fast path:

* ``backend`` — which ``numpy.random`` BitGenerator seeds are expanded
  with (``pcg64`` | ``sfc64`` | ``philox``).  SFC64 is the fastest raw
  word source; Philox is counter-based and splits cleanly across
  machines.  Only consulted when a *seed* (not a ready Generator) is
  supplied, e.g. by :class:`~repro.pipeline.sharded.ShardedRunner`.
* ``dtype`` — the draw representation: ``float64`` (historical),
  ``float32`` (half the entropy per coin, ~2x faster, resolution
  2^-24), or ``u64`` (the packed fixed-point kernel, the fast default).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..exceptions import ValidationError
from .bernoulli import check_precision

__all__ = ["SamplerConfig", "BITEXACT", "FAST", "resolve_sampler"]

_BACKENDS = {
    "pcg64": np.random.PCG64,
    "sfc64": np.random.SFC64,
    "philox": np.random.Philox,
}
_DTYPES = ("float64", "float32", "u64")
_EXACTNESS = ("bitexact", "fast")


@dataclass(frozen=True)
class SamplerConfig:
    """Immutable description of how a mechanism draws its random bits.

    Parameters
    ----------
    backend:
        BitGenerator used to expand integer seeds / ``SeedSequence``
        objects (``"pcg64"`` | ``"sfc64"`` | ``"philox"``).  Ignored
        when a ready-made ``numpy.random.Generator`` is passed in.
    dtype:
        Draw representation: ``"float64"``, ``"float32"`` or ``"u64"``
        (packed fixed-point words).
    exactness:
        ``"bitexact"`` reproduces today's fixed-seed streams and forces
        the float64/PCG64 path; ``"fast"`` promises only distributional
        equivalence and unlocks the other dtypes/backends.
    precision:
        Bit-planes the ``u64`` kernel spends before switching to the
        exact sparse correction (1..32).  8 is the measured sweet spot;
        the *distribution* is ~2^-60-exact at any setting, precision
        only trades plane work against correction work.
    """

    backend: str = "pcg64"
    dtype: str = "float64"
    exactness: str = "bitexact"
    precision: int = 8

    def __post_init__(self) -> None:
        if self.backend not in _BACKENDS:
            raise ValidationError(
                f"backend must be one of {sorted(_BACKENDS)}, got {self.backend!r}"
            )
        if self.dtype not in _DTYPES:
            raise ValidationError(
                f"dtype must be one of {list(_DTYPES)}, got {self.dtype!r}"
            )
        if self.exactness not in _EXACTNESS:
            raise ValidationError(
                f"exactness must be one of {list(_EXACTNESS)}, got {self.exactness!r}"
            )
        if self.exactness == "bitexact" and (
            self.dtype != "float64" or self.backend != "pcg64"
        ):
            raise ValidationError(
                "exactness='bitexact' freezes the historical float64/PCG64 "
                f"stream; got dtype={self.dtype!r}, backend={self.backend!r} "
                "(use exactness='fast' to change them)"
            )
        check_precision(self.precision)

    # ------------------------------------------------------------------
    @property
    def is_fast(self) -> bool:
        """True when the distributional (non-bitexact) contract applies."""
        return self.exactness == "fast"

    @property
    def uniform_dtype(self) -> type:
        """numpy dtype for plain (non-packed) uniform draws.

        ``float64`` keeps full-resolution coins even under the fast
        contract; ``float32`` halves the entropy per draw; ``u64``
        resolves to float32 for draws that have no packed analogue
        (inverse-CDF sampling, keep-coins), since a packed-kernel
        config is asking for speed over resolution.
        """
        return np.float64 if self.dtype == "float64" else np.float32

    @property
    def is_packed(self) -> bool:
        """True when the kernel natively emits packed words (``u64``)."""
        return self.is_fast and self.dtype == "u64"

    def make_generator(self, rng=None) -> np.random.Generator:
        """Coerce *rng* to a Generator, expanding seeds via ``backend``.

        A ready ``Generator`` is passed through untouched (its own
        BitGenerator wins); ``None``, integer seeds and ``SeedSequence``
        objects are expanded with the configured backend so e.g. a
        sharded run gets SFC64 workers from one root seed.
        """
        if isinstance(rng, np.random.Generator):
            return rng
        if rng is None or isinstance(
            rng, (int, np.integer, np.random.SeedSequence)
        ) and not isinstance(rng, bool):
            return np.random.Generator(_BACKENDS[self.backend](rng))
        raise ValidationError(
            f"rng must be a numpy Generator, an integer seed, a SeedSequence, "
            f"or None, got {rng!r}"
        )

    def with_precision(self, precision: int) -> "SamplerConfig":
        """Copy of this config with a different plane budget."""
        return replace(self, precision=precision)

    @classmethod
    def from_name(cls, name) -> "SamplerConfig":
        """Resolve ``"bitexact"`` / ``"fast"`` (or pass through a config)."""
        if isinstance(name, cls):
            return name
        if name == "bitexact":
            return BITEXACT
        if name == "fast":
            return FAST
        raise ValidationError(
            f"sampler must be 'bitexact', 'fast' or a SamplerConfig, got {name!r}"
        )


#: The frozen historical path: float64 PCG64 draws, fixed-seed streams kept.
BITEXACT = SamplerConfig()

#: The packed-word kernel: SFC64 raw words, distributional contract.
FAST = SamplerConfig(backend="sfc64", dtype="u64", exactness="fast")


def resolve_sampler(sampler) -> SamplerConfig:
    """``None`` → :data:`BITEXACT`; names and configs via ``from_name``."""
    if sampler is None:
        return BITEXACT
    return SamplerConfig.from_name(sampler)
