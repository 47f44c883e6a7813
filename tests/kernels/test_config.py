"""Unit tests for :class:`repro.kernels.SamplerConfig`."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.kernels import (
    BITEXACT,
    FAST,
    SamplerConfig,
    available_compute_backends,
    resolve_sampler,
)


class TestSamplerConfig:
    def test_defaults_are_bitexact(self):
        config = SamplerConfig()
        assert config.exactness == "bitexact"
        assert config.dtype == "float64"
        assert config.backend == "pcg64"
        assert not config.is_fast
        assert not config.is_packed

    def test_fast_preset(self):
        assert FAST.is_fast
        assert FAST.is_packed
        assert FAST.backend == "sfc64"
        assert FAST.dtype == "u64"

    def test_from_name(self):
        assert SamplerConfig.from_name("bitexact") is BITEXACT
        assert SamplerConfig.from_name("fast") is FAST
        assert SamplerConfig.from_name(FAST) is FAST
        with pytest.raises(ValidationError):
            SamplerConfig.from_name("warp-speed")

    def test_resolve_none_is_bitexact(self):
        assert resolve_sampler(None) is BITEXACT
        assert resolve_sampler("fast") is FAST

    def test_bitexact_locks_float64_pcg64(self):
        with pytest.raises(ValidationError):
            SamplerConfig(dtype="u64")  # bitexact + packed is contradictory
        with pytest.raises(ValidationError):
            SamplerConfig(backend="sfc64")

    def test_invalid_fields(self):
        with pytest.raises(ValidationError):
            SamplerConfig(backend="mt19937", exactness="fast")
        with pytest.raises(ValidationError):
            SamplerConfig(dtype="float16", exactness="fast")
        with pytest.raises(ValidationError):
            SamplerConfig(exactness="sloppy")
        with pytest.raises(ValidationError):
            FAST.with_precision(0)
        with pytest.raises(ValidationError):
            FAST.with_precision(33)

    def test_with_precision(self):
        config = FAST.with_precision(16)
        assert config.precision == 16
        assert config.backend == FAST.backend

    def test_uniform_dtype_resolution(self):
        """Explicit float64 keeps full-resolution coins even under fast."""
        assert BITEXACT.uniform_dtype is np.float64
        assert FAST.uniform_dtype is np.float32  # u64 -> float32 fallback
        assert (
            SamplerConfig(dtype="float32", exactness="fast").uniform_dtype
            is np.float32
        )
        assert (
            SamplerConfig(
                backend="sfc64", dtype="float64", exactness="fast"
            ).uniform_dtype
            is np.float64
        )

    @pytest.mark.parametrize(
        "name, cls",
        [("pcg64", np.random.PCG64), ("sfc64", np.random.SFC64), ("philox", np.random.Philox)],
    )
    def test_make_generator_backend(self, name, cls):
        config = SamplerConfig(backend=name, dtype="u64", exactness="fast")
        generator = config.make_generator(123)
        assert isinstance(generator.bit_generator, cls)
        # Same seed, same backend -> same stream.
        again = config.make_generator(123)
        assert generator.integers(1 << 30) == again.integers(1 << 30)

    def test_make_generator_passthrough_and_seedsequence(self):
        rng = np.random.default_rng(0)
        assert FAST.make_generator(rng) is rng
        seq = np.random.SeedSequence(5)
        a = FAST.make_generator(seq).integers(1 << 30)
        b = FAST.make_generator(np.random.SeedSequence(5)).integers(1 << 30)
        assert a == b
        with pytest.raises(ValidationError):
            FAST.make_generator("seed")

    def test_bitexact_make_generator_matches_default_rng(self):
        """BITEXACT seed expansion is exactly np.random.default_rng."""
        ours = BITEXACT.make_generator(42).random(4)
        theirs = np.random.default_rng(42).random(4)
        assert np.array_equal(ours, theirs)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            FAST.backend = "pcg64"

    @pytest.mark.parametrize(
        "config",
        [
            BITEXACT,
            FAST,
            SamplerConfig(exactness="fast", backend="philox", dtype="u64", precision=5),
        ],
        ids=["bitexact", "fast", "custom"],
    )
    def test_pickle_roundtrip(self, config):
        # Configs cross process boundaries with ShardedRunner workers.
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert np.array_equal(
            clone.make_generator(7).random(4), config.make_generator(7).random(4)
        )


def test_kernels_run_on_numpy_only():
    assert available_compute_backends() == ("numpy",)
