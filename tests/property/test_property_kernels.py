"""Property-based tests for the packed sampling kernels (hypothesis).

The kernel must honour its distributional contract for *every*
probability, not just friendly ones: dyadic thresholds, values straddling
a fixed-point plane boundary, denormal-scale probabilities, and both
complement branches.  Empirical rates are checked against a wide exact
binomial envelope so the properties stay deterministic under fixed
hypothesis seeds yet would catch any systematic off-by-one in the
threshold arithmetic (a 1/256 rate bias is hundreds of sigmas here).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.kernels import (
    BITEXACT,
    FAST,
    packed_bernoulli,
    packed_column_counts,
    packed_width,
)
from repro.mechanisms import OptimizedUnaryEncoding

# Any probability, with the awkward regions force-included.
probabilities = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.sampled_from(
        [
            0.0,
            1.0,
            0.5,
            2.0**-8,
            47.0 / 256.0,
            47.5 / 256.0,
            1.0 - 2.0**-8,
            2.0**-53,
            2.0**-60,
            1.0 - 2.0**-53,
        ]
    ),
)


def _empirical_ones(p: float, n_lanes: int, seed: int, precision: int = 8) -> int:
    m = 64
    n = -(-n_lanes // m)
    packed = packed_bernoulli(
        np.full(m, p), n, FAST.make_generator(seed), precision=precision
    )
    return int(packed_column_counts(packed, m).sum()), n * m


class TestKernelRateProperty:
    @given(probabilities, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rate_within_exact_binomial_envelope(self, p, seed):
        ones, lanes = _empirical_ones(p, 40_000, seed)
        if lanes * p < 1e-6:
            # Expected ones < 1e-6 (incl. subnormal p, which overflows
            # scipy's binomtest): a single set bit would itself be a
            # < 1e-6-probability event, same confidence as the envelope.
            assert ones == 0
            return
        if lanes * (1.0 - p) < 1e-6:
            assert ones == lanes
            return
        # Two-sided exact binomial test at a 1e-9 envelope: passes with
        # overwhelming probability for a faithful kernel, fails for any
        # fixed-point rounding bias >= 2^-9 (which would be > 30 sigma).
        assert stats.binomtest(ones, lanes, p).pvalue > 1e-9

    @given(
        probabilities,
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_edges_exact_at_any_precision(self, p, precision, seed):
        """p = 0 / p = 1 stay exact whatever the plane budget is."""
        ones, lanes = _empirical_ones(p, 4_096, seed, precision=precision)
        if p == 0.0:
            assert ones == 0
        elif p == 1.0:
            assert ones == lanes
        else:
            assert 0 <= ones <= lanes

    @given(
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_plane_boundary_has_no_off_by_one(self, jitter_steps, seed):
        """Sweep p across a plane threshold in sub-plane steps.

        An off-by-one in the fixed-point comparison shows up as the rate
        snapping to the wrong side of ``k / 2^8`` for p just below or
        just above it.
        """
        p = float(np.clip(47.0 / 256.0 + jitter_steps * 2.0**-10, 0.0, 1.0))
        ones, lanes = _empirical_ones(p, 40_000, seed)
        assert stats.binomtest(ones, lanes, p).pvalue > 1e-9

    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=77),
    )
    @settings(max_examples=40, deadline=None)
    def test_wire_format_invariants(self, p, n, m):
        """Pad bits zero, shape ceil(m/8), for every (p, n, m)."""
        packed = packed_bernoulli(np.full(m, p), n, FAST.make_generator(0))
        width = -(-m // 8)
        assert packed.shape == (n, width)
        pad_bits = 8 * width - m
        if pad_bits:
            assert not np.any(packed[:, -1] & ((1 << pad_bits) - 1))


packed_matrices = st.builds(
    lambda seed, rows, m: (seed, rows, m),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=0, max_value=600),
    m=st.integers(min_value=1, max_value=257),
)


def _random_packed(seed, rows, m):
    width = packed_width(m)
    matrix = np.random.default_rng(seed).integers(
        0, 256, size=(rows, width), dtype=np.uint8
    )
    pad_bits = 8 * width - m
    if pad_bits:
        matrix[:, -1] &= (0xFF << pad_bits) & 0xFF
    return matrix


class TestColumnCountProperty:
    @given(case=packed_matrices)
    @settings(max_examples=40, deadline=None)
    def test_popcount_matches_unpacked_reference(self, case):
        seed, rows, m = case
        matrix = _random_packed(seed, rows, m)
        counts = packed_column_counts(matrix, m)
        assert counts.dtype == np.int64
        expected = np.unpackbits(matrix, axis=1, count=m).sum(axis=0, dtype=np.int64)
        assert np.array_equal(counts, expected)

    @given(
        case=packed_matrices,
        cuts=st.lists(st.integers(min_value=0, max_value=600), max_size=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_accumulator_state_independent_of_chunking(self, case, cuts):
        from repro.pipeline import CountAccumulator

        seed, rows, m = case
        matrix = _random_packed(seed, rows, m)
        whole = CountAccumulator(m)
        whole.add_packed_reports(matrix)
        pieces = CountAccumulator(m)
        for piece in np.split(matrix, sorted(min(cut, rows) for cut in cuts)):
            pieces.add_packed_reports(piece)
        assert pieces.digest() == whole.digest()


class TestSamplerContracts:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=300),
        m=st.integers(min_value=1, max_value=96),
    )
    @settings(max_examples=25, deadline=None)
    def test_bitexact_packed_output_is_the_packed_float64_stream(self, seed, n, m):
        # The bitexact path is the frozen float64 stream; packing it must
        # not consume the generator differently.
        mechanism = OptimizedUnaryEncoding(1.5, m)
        items = np.arange(n, dtype=np.int64) % m
        packed = mechanism.perturb_many_packed(
            items, np.random.default_rng(seed), sampler=BITEXACT
        )
        reports = mechanism.perturb_many(
            items, np.random.default_rng(seed), sampler=BITEXACT
        )
        assert np.array_equal(packed, np.packbits(reports.astype(np.uint8), axis=1))

    def test_fast_stream_counts_match_the_mechanism_law(self):
        # End to end: the engine with sampler="fast" lands inside the
        # envelope the mechanism's law implies per bit.
        from repro.pipeline import stream_counts

        m, n = 32, 20_000
        mechanism = OptimizedUnaryEncoding(2.0, m)
        acc = stream_counts(
            mechanism,
            np.zeros(n, dtype=np.int64),
            chunk_size=4096,
            rng=FAST.make_generator(np.random.SeedSequence(9)),
            packed=True,
            sampler=FAST,
        )
        counts = acc.counts()
        # Bit 0 fires at rate a (the true item); the rest at rate b.
        for index, rate in [(0, mechanism.a[0]), (1, mechanism.b[1])]:
            lo, hi = stats.binom.ppf([1e-10, 1.0 - 1e-10], n, rate)
            assert lo <= counts[index] <= hi, index
