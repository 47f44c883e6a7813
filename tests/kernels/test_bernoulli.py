"""Statistical and structural tests for the packed Bernoulli kernels.

The fast kernel's contract is *distributional*: per-bit probabilities
must match the analytic parameters, but the bit stream for a fixed seed
may differ from the float64 path.  The tests therefore check:

* exact-binomial / chi-square agreement with the target probabilities
  for both the uniform and the per-column (IDUE-style) kernels;
* exact behaviour at the threshold edges (``p = 0``, ``p = 1``,
  sub-``2^-53`` probabilities, dyadic and near-dyadic thresholds);
* the packed wire format itself (``np.packbits`` convention, zero pad
  bits);
* a bit-exactness regression pinning the *bitexact* path's fixed-seed
  output, so the frozen-stream promise is enforced by CI;
* golden digests of the *fast* per-column stream, so the cached
  sampling plan is held to the bytes the per-call derivation emitted.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from scipy import stats

from repro import IDUEPS, OptimizedUnaryEncoding, SymmetricUnaryEncoding
from repro.exceptions import ValidationError
from repro.kernels import (
    FAST,
    SamplerConfig,
    bernoulli,
    check_packed_rows,
    fixed_point_decompose,
    packed_assign_bits,
    packed_bernoulli,
    packed_column_counts,
    packed_width,
)
from repro.mechanisms.base import UnaryMechanism

# Two-sided binomial p-value floor for single assertions.  With a fixed
# seed the draw is deterministic, so this is a regression bound, not a
# flakiness budget.
ALPHA = 1e-6


def _binom_pvalue(successes: int, n: int, p: float) -> float:
    return stats.binomtest(successes, n, p).pvalue


def _kernel_ones(p, n, seed, precision=8):
    probabilities = np.atleast_1d(np.asarray(p, dtype=float))
    packed = packed_bernoulli(
        probabilities, n, FAST.make_generator(seed), precision=precision
    )
    return packed, packed_column_counts(packed, probabilities.size)


class TestUniformKernelStatistics:
    @pytest.mark.parametrize(
        "p",
        [0.5, 0.25, 1.0 / 3.0, 0.1824, 0.731, 0.0039, 0.9961, 1e-4],
    )
    def test_exact_binomial_rate(self, p):
        n, m = 3000, 64
        _, counts = _kernel_ones(np.full(m, p), n, seed=2024)
        assert _binom_pvalue(int(counts.sum()), n * m, p) > ALPHA

    @pytest.mark.parametrize("precision", [1, 4, 8, 16, 32])
    def test_rate_invariant_to_precision(self, precision):
        """precision is a performance knob, never a distribution knob."""
        p = 0.3711
        n, m = 2000, 64
        _, counts = _kernel_ones(np.full(m, p), n, seed=9, precision=precision)
        assert _binom_pvalue(int(counts.sum()), n * m, p) > ALPHA

    def test_chi_square_across_columns(self):
        """Per-column 1-counts are iid Binomial(n, p): chi-square flat."""
        p, n, m = 0.2718, 5000, 128
        _, counts = _kernel_ones(np.full(m, p), n, seed=77)
        expected = n * p
        statistic = float(((counts - expected) ** 2 / (expected * (1 - p))).sum())
        # Each standardized term is ~chi2(1); m of them sum to ~chi2(m).
        assert stats.chi2.sf(statistic, df=m) > ALPHA
        assert stats.chi2.cdf(statistic, df=m) > ALPHA  # not suspiciously flat

    def test_columns_are_independent_of_rows(self):
        """Row popcounts are Binomial(m, p): spot the variance too."""
        p, n, m = 0.4, 4000, 256
        packed, _ = _kernel_ones(np.full(m, p), n, seed=5)
        row_ones = np.unpackbits(packed, axis=1, count=m).sum(axis=1)
        assert abs(row_ones.mean() - m * p) < 5 * np.sqrt(m * p * (1 - p) / n)
        observed_var = row_ones.var()
        assert 0.8 * m * p * (1 - p) < observed_var < 1.2 * m * p * (1 - p)


class TestPerColumnKernelStatistics:
    def test_idue_style_levels(self):
        """Distinct per-column probabilities (a few levels, like IDUE)."""
        levels = np.array([0.05, 0.1824, 0.5, 0.66, 0.95])
        p = np.repeat(levels, 13)  # m = 65, crosses byte boundaries
        n = 20_000
        _, counts = _kernel_ones(p, n, seed=31)
        for level in levels:
            mask = p == level
            ones = int(counts[mask].sum())
            assert _binom_pvalue(ones, n * int(mask.sum()), level) > ALPHA

    def test_unary_mechanism_matches_a_and_b(self):
        """End to end through UnaryMechanism: a on the hot bit, b elsewhere."""
        mech = OptimizedUnaryEncoding(1.5, 50)
        n = 30_000
        inputs = np.zeros(n, dtype=np.int64)  # everyone holds item 0
        packed = mech.perturb_many_packed(inputs, FAST.make_generator(8), sampler=FAST)
        counts = packed_column_counts(packed, mech.m)
        assert _binom_pvalue(int(counts[0]), n, float(mech.a[0])) > ALPHA
        rest = int(counts[1:].sum())
        assert _binom_pvalue(rest, n * (mech.m - 1), float(mech.b[1])) > ALPHA

    def test_float32_path_matches_probabilities(self):
        mech = SymmetricUnaryEncoding(2.0, 40)
        n = 20_000
        sampler = SamplerConfig(backend="sfc64", dtype="float32", exactness="fast")
        reports = mech.perturb_many(
            np.zeros(n, dtype=np.int64), sampler.make_generator(3), sampler=sampler
        )
        assert reports.shape == (n, 40)
        counts = reports.sum(axis=0)
        assert _binom_pvalue(int(counts[0]), n, float(mech.a[0])) > ALPHA
        assert _binom_pvalue(int(counts[1:].sum()), n * 39, float(mech.b[1])) > ALPHA


class TestThresholdEdgeCases:
    def test_p_zero_is_exactly_all_zeros(self):
        packed, counts = _kernel_ones(np.zeros(37), 500, seed=1)
        assert not packed.any()
        assert not counts.any()

    def test_p_one_is_exactly_all_ones(self):
        _, counts = _kernel_ones(np.ones(37), 500, seed=1)
        assert np.array_equal(counts, np.full(37, 500))

    def test_mixed_exact_columns(self):
        p = np.array([0.0, 1.0, 0.5, 0.0, 1.0])
        _, counts = _kernel_ones(p, 2000, seed=4)
        assert counts[0] == 0 and counts[3] == 0
        assert counts[1] == 2000 and counts[4] == 2000

    @pytest.mark.parametrize("p", [2.0**-60, 2.0**-53, 2.0**-40])
    def test_sub_float_probabilities_do_not_round_up(self, p):
        """Probabilities below any plane resolution stay (almost surely) 0.

        Expected ones at n*m = 1.28e5 lanes is <= 1e-7 — a single set
        bit would be a > 5-sigma event, i.e. an off-by-one in the
        fixed-point rounding.
        """
        _, counts = _kernel_ones(np.full(64, p), 2000, seed=6)
        assert counts.sum() == 0

    @pytest.mark.parametrize("p", [1 - 2.0**-60, 1 - 2.0**-40])
    def test_near_one_probabilities_do_not_round_down(self, p):
        _, counts = _kernel_ones(np.full(64, p), 2000, seed=6)
        assert counts.sum() == 2000 * 64

    @pytest.mark.parametrize("offset", [-(2.0**-10), 0.0, 2.0**-10])
    def test_plane_boundary_neighbourhood(self, offset):
        """p straddling an exact 8-bit threshold keeps the exact rate."""
        p = 47.0 / 256.0 + offset
        n, m = 4000, 64
        _, counts = _kernel_ones(np.full(m, p), n, seed=11)
        assert _binom_pvalue(int(counts.sum()), n * m, p) > ALPHA

    def test_decompose_residuals_are_small_and_exact(self):
        p = np.array([0.0, 1.0, 0.5, 0.1824, 0.9999, 2.0**-60])
        thresholds, deltas, complement = fixed_point_decompose(p, precision=8)
        generated = np.where(complement, 1.0 - p, p)
        assert np.all(np.abs(deltas) <= 2.0**-9)
        # T/2^8 + delta reconstructs the generated probability exactly.
        assert np.array_equal(thresholds / 256.0 + deltas, generated)

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValidationError):
            packed_bernoulli(np.array([0.2, 1.2]), 10, 0)
        with pytest.raises(ValidationError):
            packed_bernoulli(np.array([-0.1]), 10, 0)
        with pytest.raises(ValidationError):
            packed_bernoulli(np.array([np.nan]), 10, 0)

    @pytest.mark.parametrize("precision", [0, -3, 33, 65, 8.0, True, "8", None])
    @pytest.mark.parametrize(
        "p", [0.3, np.full(16, 0.3), np.linspace(0.1, 0.9, 16)],
        ids=["scalar", "uniform", "per-column"],
    )
    def test_invalid_precision_rejected_on_every_branch(self, p, precision):
        """precision=0 used to fail on a negative shift, 8.0 with a
        TypeError, True was accepted and >= 65 overflowed every
        per-column threshold to zero."""
        with pytest.raises(ValidationError, match="precision"):
            packed_bernoulli(p, 10, 0, precision=precision)

    @pytest.mark.parametrize("precision", [1, 32, np.int64(12)])
    def test_precision_bounds_accepted(self, precision):
        for p in (0.3, np.linspace(0.1, 0.9, 16)):
            assert packed_bernoulli(p, 10, 0, precision=precision).shape[0] == 10


class TestPackedFormat:
    def test_pad_bits_are_zero(self):
        p = np.full(13, 0.9)  # 13 bits -> 2 bytes, 3 pad bits
        packed, _ = _kernel_ones(p, 1000, seed=3)
        assert packed.shape == (1000, 2)
        assert not np.any(packed[:, -1] & 0b111)

    def test_matches_packbits_convention(self):
        """Unpacking the kernel output must honour MSB-first rows."""
        p = np.concatenate([np.ones(3), np.zeros(10)])
        packed, _ = _kernel_ones(p, 4, seed=0)
        unpacked = np.unpackbits(packed, axis=1, count=13)
        assert np.array_equal(unpacked, np.tile(p.astype(np.uint8), (4, 1)))

    def test_packed_width(self):
        assert packed_width(1) == 1
        assert packed_width(8) == 1
        assert packed_width(9) == 2

    def test_column_counts_match_unpacked_sum(self):
        rng = np.random.default_rng(0)
        reports = (rng.random((257, 29)) < 0.37).astype(np.uint8)
        packed = np.packbits(reports, axis=1)
        assert np.array_equal(
            packed_column_counts(packed, 29), reports.sum(axis=0, dtype=np.int64)
        )

    def test_column_counts_validation(self):
        with pytest.raises(ValidationError):
            packed_column_counts(np.zeros((4, 2), dtype=np.int64), 16)
        with pytest.raises(ValidationError):
            packed_column_counts(np.zeros((4, 2), dtype=np.uint8), 40)

    def test_assign_bits(self):
        packed = np.zeros((4, 2), dtype=np.uint8)
        packed_assign_bits(packed, np.array([0, 7, 8, 15]), np.array([1, 1, 0, 1]))
        unpacked = np.unpackbits(packed, axis=1)
        assert unpacked[0, 0] == 1 and unpacked[1, 7] == 1
        assert unpacked[2, 8] == 0 and unpacked[3, 15] == 1
        # overwrite clears as well as sets
        packed_assign_bits(packed, np.array([0, 7, 8, 15]), np.zeros(4, dtype=bool))
        assert not packed.any()
        with pytest.raises(ValidationError):
            packed_assign_bits(packed, np.array([0]), np.array([1]))


def _random_packed(rows, m, seed):
    """A random packed chunk with its trailing pad bits cleared."""
    width = packed_width(m)
    matrix = np.random.default_rng(seed).integers(
        0, 256, size=(rows, width), dtype=np.uint8
    )
    pad_bits = 8 * width - m
    if pad_bits:
        matrix[:, -1] &= (0xFF << pad_bits) & 0xFF
    return matrix


def _unpacked_counts(matrix, m):
    return np.unpackbits(matrix, axis=1, count=m).sum(axis=0, dtype=np.int64)


class TestColumnCountExactness:
    """The blocked popcount is exact integer math at every size.

    Rows are counted in blocks of at most 255 (``np.iinfo(np.uint8).max``)
    whose column sums are taken in ``uint8``, so the row counts below sit
    on both sides of the first two block edges (255 and 510): a block
    one row too tall would wrap a full column to zero.
    """

    BLOCK_EDGES = [0, 1, 254, 255, 256, 509, 510, 511, 4097]

    @pytest.mark.parametrize("rows", BLOCK_EDGES)
    def test_counts_match_unpacked_sum_around_block_edges(self, rows):
        m = 203  # 26 bytes, 5 pad bits
        matrix = _random_packed(rows, m, seed=rows)
        counts = packed_column_counts(matrix, m)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, _unpacked_counts(matrix, m))

    @pytest.mark.parametrize("rows", BLOCK_EDGES + [7000])
    def test_all_ones_counts_every_row(self, rows):
        m = 37
        matrix = np.packbits(np.ones((rows, m), dtype=np.uint8), axis=1)
        assert np.array_equal(
            packed_column_counts(matrix, m), np.full(m, rows, dtype=np.int64)
        )

    def test_set_pad_bits_rejected(self):
        m = 37  # 5 bytes, 3 pad bits
        matrix = _random_packed(300, m, seed=4)
        matrix[299, -1] |= 0b001
        with pytest.raises(ValidationError, match="widths disagree"):
            packed_column_counts(matrix, m)
        with pytest.raises(ValidationError, match="widths disagree"):
            check_packed_rows(matrix, m)

    def test_strided_and_read_only_views(self):
        m = 64
        base = _random_packed(3001, m, seed=11)
        strided = base[::3]
        read_only = np.frombuffer(base.tobytes(), dtype=np.uint8).reshape(base.shape)
        assert not read_only.flags.writeable
        assert np.array_equal(
            packed_column_counts(strided, m), _unpacked_counts(strided, m)
        )
        assert np.array_equal(
            packed_column_counts(read_only, m), _unpacked_counts(base, m)
        )


class TestKernelShapes:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
    def test_uniform_rows_and_pad_bits(self, n):
        packed = packed_bernoulli(np.full(13, 0.5), n, FAST.make_generator(n))
        assert packed.shape == (n, 2) and packed.dtype == np.uint8
        assert not np.any(packed[:, -1] & 0b111)

    def test_same_generator_state_same_output(self):
        p = np.linspace(0.05, 0.95, 21)
        first = packed_bernoulli(p, 3000, FAST.make_generator(5))
        again = packed_bernoulli(p, 3000, FAST.make_generator(5))
        other = packed_bernoulli(p, 3000, FAST.make_generator(6))
        assert np.array_equal(first, again)
        assert not np.array_equal(first, other)

    def test_non_uniform_columns_each_match_their_rate(self):
        p = np.linspace(0.1, 0.9, 16)
        n = 20_000
        _, ones = _kernel_ones(p, n, seed=3)
        for column, rate in enumerate(p):
            assert _binom_pvalue(int(ones[column]), n, rate) > ALPHA, column


class TestBitexactRegression:
    """The default sampler's fixed-seed streams are frozen.

    These digests pin the exact bytes produced at the time the sampler
    subsystem was introduced; if they ever change, the ``"bitexact"``
    promise is broken (bump them only with an explicit CHANGES.md note).
    """

    def test_oue_perturb_many_digest(self):
        mech = OptimizedUnaryEncoding(1.0, 16)
        out = mech.perturb_many(np.arange(8) % 16, np.random.default_rng(1234))
        digest = hashlib.sha256(out.tobytes()).hexdigest()
        assert digest == (
            "c847e0af578f2056a50bf27242c138682a3f71d81178561d6559d6e74e6636de"
        )

    def test_rappor_perturb_many_rows(self):
        mech = SymmetricUnaryEncoding(2.0, 10)
        out = mech.perturb_many(np.array([0, 3, 9, 9]), np.random.default_rng(7))
        assert out.tolist() == [
            [1, 0, 0, 1, 0, 0, 1, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
            [1, 1, 0, 1, 1, 0, 0, 0, 0, 1],
            [0, 1, 1, 1, 0, 1, 0, 1, 0, 0],
        ]

    def test_fast_float64_does_not_downgrade_to_float32(self):
        """A fast config that keeps dtype='float64' must consume the
        same full-resolution stream as bitexact, not float32 coins."""
        sampler = SamplerConfig(backend="sfc64", dtype="float64", exactness="fast")
        mech = OptimizedUnaryEncoding(1.0, 16)
        xs = np.arange(8) % 16
        fast64 = mech.perturb_many(xs, np.random.default_rng(3), sampler=sampler)
        exact = mech.perturb_many(xs, np.random.default_rng(3), sampler="bitexact")
        assert np.array_equal(fast64, exact)

    def test_explicit_bitexact_equals_default(self):
        mech = OptimizedUnaryEncoding(1.0, 16)
        xs = np.arange(8) % 16
        default = mech.perturb_many(xs, np.random.default_rng(99))
        explicit = mech.perturb_many(xs, np.random.default_rng(99), sampler="bitexact")
        assert np.array_equal(default, explicit)
        packed = mech.perturb_many_packed(
            xs, np.random.default_rng(99), sampler="bitexact"
        )
        assert np.array_equal(np.unpackbits(packed, axis=1, count=16), default)


def _sfc64(seed):
    return np.random.Generator(np.random.SFC64(seed))


def _digest(packed):
    return hashlib.sha256(np.ascontiguousarray(packed).tobytes()).hexdigest()


# A 4-level IDUE-style b vector: each level's columns are interleaved,
# not contiguous, so every correction group spans many bytes.
_LEVEL_B = np.array([0.1824, 0.2689, 0.3775, 0.4378])


def _idue_b(m):
    return _LEVEL_B[(np.arange(m) * 7 // 3) % 4]


class TestFastPerColumnStream:
    """The fast sampler's per-column stream is pinned for fixed seeds.

    The digests were computed with the per-call plan derivation that
    preceded the cached sampling plan (the cache must not move a single
    draw), so they prove the plan reproduces the old stream.  32 x 1024
    and 256 x 4104 are the churn_small and produce_itemset record
    shapes; 4104 is a multiple of 8, so pad bits and a partial last
    word are covered by the 37 x 203 mixed vector (5 pad bits, 37 * 26
    bytes) and the 65-bit IDUE-PS report.
    """

    def test_idue_levels_workload_shape(self):
        packed = packed_bernoulli(_idue_b(1024), 32, _sfc64(101))
        assert _digest(packed) == (
            "f6330a41cd7891b96565287a8cd3189c5709157e7d3a31b6152cae01f708974c"
        )

    def test_idue_levels_itemset_shape(self):
        packed = packed_bernoulli(_idue_b(4104), 256, _sfc64(202))
        assert _digest(packed) == (
            "66093805b2391760f7c86ab925bbe721475dca773b426b4c52fdbc171e943e38"
        )

    def test_complemented_and_exact_columns(self):
        levels = np.array([0.0, 1.0, 0.73, 0.5, 0.9961, 0.2, 1.0 / 3.0, 0.0, 0.81])
        packed = packed_bernoulli(np.resize(levels, 203), 37, _sfc64(303))
        assert _digest(packed) == (
            "ed3e3f6062a7cced3e7d1fcb1de232feeab6b1108f0ffeb7e06ac40330277f03"
        )

    def test_idue_ps_itemset_batch(self):
        m, ell = 60, 5
        a = np.resize(np.array([0.5, 0.62, 0.71]), m + ell)
        b = np.resize(np.array([0.1824, 0.2689, 0.4378]), m + ell)
        mechanism = IDUEPS(UnaryMechanism(a, b), m, ell)
        flat = np.array([0, 3, 59, 7, 7, 12, 40, 41, 42, 43, 44, 45, 46, 1, 58])
        offsets = np.array([0, 3, 3, 5, 13, 15])
        packed = mechanism.perturb_many_packed(flat, offsets, _sfc64(404), sampler=FAST)
        assert _digest(packed) == (
            "1a028eafeff11e89cd09fc36b7d8f2534ca39667a1685ba42800c79b57fc5fe3"
        )

    def test_interleaved_vectors_and_precisions_match_separate_runs(self):
        calls = [(_idue_b(203), 8), (np.linspace(0.05, 0.95, 203), 8)]
        calls += [(p, 13) for p, _ in calls]
        alone = [
            [packed_bernoulli(p, 19, _sfc64(seed), precision=precision) for seed in (1, 2)]
            for p, precision in calls
        ]
        for seed_index, seed in enumerate((1, 2)):
            for (p, precision), expected in zip(calls, alone):
                packed = packed_bernoulli(p, 19, _sfc64(seed), precision=precision)
                assert np.array_equal(packed, expected[seed_index])

    def test_cached_plan_arrays_are_read_only(self):
        p = np.array([0.1, 0.7, 0.3, 0.9, 0.1])
        packed_bernoulli(p, 4, 0)
        plan = bernoulli._column_plan(p.tobytes(), 8)
        writable = [plan.masks, plan.flip] + [c for c, _, _ in plan.corrections]
        assert len(writable) > 2
        for array in writable:
            with pytest.raises(ValueError):
                array[...] = 0

    def test_invalid_vector_refused_on_every_call(self):
        p = np.array([0.2, 0.4, 1.5])
        for _ in range(2):
            with pytest.raises(ValidationError, match=r"\[0, 1\]"):
                packed_bernoulli(p, 8, 0)
