"""Bit-sliced Bernoulli sampling kernels over packed words.

The float64 sampling path costs one PCG64 double per Bernoulli coin —
64 bits of entropy plus an int-to-double conversion per *bit* — and the
profiling note in ROADMAP ("faster bit generation") showed the whole
streamed-exact pipeline is bound by exactly that.  The kernels here draw
raw ``uint64`` words straight from the BitGenerator and synthesize
Bernoulli bits *in the packed domain*, so the ``np.packbits`` wire
format comes out directly with no float64 array and no unpack/repack
round trip.

How the packed kernel works
---------------------------
Write the target probability ``p`` as an ``L``-bit fixed-point threshold
``T = round(p * 2^L)`` plus a residual ``delta = p - T / 2^L``:

1. **Bit planes.**  ``Pr(u < T)`` for an ``L``-bit uniform ``u`` is
   computed one bit plane at a time, LSB to MSB, on packed words: a
   fresh random word per plane, combined with a single ``&``/``|``
   depending on the corresponding threshold bit.  (The textbook
   recurrence for ``u < T`` uses ``~u``, but the planes are symmetric
   random words, so the complement is dropped and each plane costs one
   raw draw and one bitwise op.)  Planes below the lowest set bit of
   ``T`` are identities and are skipped.
2. **Sparse residual correction.**  ``|delta| < 2^-(L+1)``, so flipping
   a sparse, independent Bernoulli mask of rate ``delta / (1 - T/2^L)``
   up (or ``|delta| / (T/2^L)`` down) lands the *exact* probability.
   Mask positions are sampled as geometric gaps — O(n p) float draws
   rather than O(n) — and scattered into the packed words.
3. **Complement trick.**  Probabilities above 1/2 are generated as the
   complement's bits and inverted in the packed domain, which keeps the
   correction rate bounded and makes ``p = 1.0`` (like ``p = 0.0``)
   exactly deterministic.

The result follows the requested Bernoulli law to within float64
rounding of the correction rate (relative error ~2^-53 on a quantity
that is itself < 2^-(L+1), i.e. ~2^-60 absolute) — statistically
indistinguishable from exact at any feasible sample size, but *not*
bit-identical to the float64 path for a fixed seed.  Edge cases are
exact: ``p = 0.0`` yields all-zeros, ``p = 1.0`` all-ones, and
``p < 2^-L`` degenerates to pure sparse sampling (no planes), so
sub-``2^-53`` probabilities round nowhere.

All kernels consume randomness from an explicit ``numpy.random``
Generator; word draws use ``BitGenerator.random_raw`` when the backend
natively emits 64-bit words and fall back to ``Generator.integers``
otherwise.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_positive_int, check_rng
from ..exceptions import ValidationError

__all__ = [
    "packed_bernoulli",
    "packed_assign_bits",
    "packed_column_counts",
    "check_packed_rows",
    "packed_width",
    "fixed_point_decompose",
]

# BitGenerators whose random_raw() emits full 64-bit words.  MT19937
# yields 32-bit values from random_raw, so it takes the integers path.
_RAW64_BACKENDS = tuple(
    cls
    for name in ("PCG64", "PCG64DXSM", "SFC64", "Philox")
    if (cls := getattr(np.random, name, None)) is not None
)

#: Cost of one sparse correction relative to one raw word, used when
#: choosing the threshold (one geometric float draw + scatter ~ a few
#: word draws).  Measured on the pipeline benchmark; the optimum is flat.
_CORRECTION_COST_WORDS = 5.0

def packed_width(m: int) -> int:
    """Bytes per packed row for an ``m``-bit report (``ceil(m / 8)``)."""
    return -(-check_positive_int(m, "m") // 8)


def _raw_words(rng: np.random.Generator, count: int) -> np.ndarray:
    """*count* raw ``uint64`` words from the generator's BitGenerator."""
    if count == 0:
        return np.empty(0, dtype=np.uint64)
    bit_generator = rng.bit_generator
    if isinstance(bit_generator, _RAW64_BACKENDS):
        return bit_generator.random_raw(count)
    return rng.integers(0, 2**64, size=count, dtype=np.uint64)


# ----------------------------------------------------------------------
# Threshold decomposition
# ----------------------------------------------------------------------
def fixed_point_decompose(p, precision: int = 8):
    """Split probabilities into plane thresholds and exact residuals.

    Returns ``(thresholds, deltas, complement)`` where for each entry
    the *generated* probability is ``p' = p`` (``complement`` False) or
    ``1 - p`` (True, always ``p' <= 1/2``), ``thresholds`` holds the
    ``precision``-bit fixed-point value ``T`` with ``T / 2^precision``
    nearest ``p'``, and ``deltas = p' - T / 2^precision`` is the signed
    residual the sparse correction step absorbs exactly.
    """
    arr = np.asarray(p, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if arr.size and (
        not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0
    ):
        raise ValidationError("probabilities must lie in [0, 1]")
    precision = check_positive_int(precision, "precision")
    complement = arr > 0.5
    generated = np.where(complement, 1.0 - arr, arr)
    scale = float(1 << precision)
    thresholds = np.rint(generated * scale).astype(np.uint64)
    deltas = generated - thresholds / scale
    if scalar:
        return thresholds[0], float(deltas[0]), bool(complement[0])
    return thresholds, deltas, complement


def _trailing_zeros(value: int, width: int) -> int:
    if value == 0:
        return width
    return (value & -value).bit_length() - 1


def _correction_rate(threshold: int, delta: float, precision: int) -> float:
    """Flip rate of the sparse correction for one ``(T, delta)`` pair."""
    if delta == 0.0:
        return 0.0
    base = threshold / float(1 << precision)
    return delta / (1.0 - base) if delta > 0.0 else -delta / base


def _pick_uniform_threshold(p: float, precision: int) -> tuple[int, float]:
    """Choose ``T`` minimizing plane work + correction work for one *p*.

    The nearest threshold is not always cheapest: ``T`` one step away
    may have many trailing zero bits (skipped planes) at the price of a
    slightly larger — still ``O(2^-precision)`` — correction rate.  Cost
    is measured in raw words per lane: ``planes / 64`` for the planes,
    ``rate *`` :data:`_CORRECTION_COST_WORDS` for the correction.
    """
    top = 1 << (precision - 1)  # p <= 1/2 after the complement trick
    nearest = int(np.rint(p * (1 << precision)))
    best: tuple[float, int, float] | None = None
    for candidate in range(max(0, nearest - 4), min(top, nearest + 4) + 1):
        delta = p - candidate / float(1 << precision)
        planes = precision - _trailing_zeros(candidate, precision)
        rate = _correction_rate(candidate, delta, precision)
        cost = planes / 64.0 + rate * _CORRECTION_COST_WORDS
        if best is None or cost < best[0]:
            best = (cost, candidate, delta)
    _, threshold, delta = best
    return threshold, delta


# ----------------------------------------------------------------------
# Sparse corrections
# ----------------------------------------------------------------------
def _sparse_positions(n_lanes: int, rate: float, rng: np.random.Generator):
    """Strictly increasing hit positions of a Bernoulli(rate) process.

    Sampled as cumulative geometric gaps: expected ``n_lanes * rate``
    draws instead of ``n_lanes``.  Exact for any ``rate`` in (0, 1].
    """
    if rate <= 0.0 or n_lanes == 0:
        return np.empty(0, dtype=np.int64)
    if rate >= 1.0:
        return np.arange(n_lanes, dtype=np.int64)
    expected = n_lanes * rate
    batch = int(expected + 6.0 * np.sqrt(expected + 1.0)) + 16
    # Gaps are clipped to n_lanes + 1: a clipped gap already moves past
    # the end of the grid, and unclipped cumsums of huge geometric draws
    # (rate ~ 2^-60) would overflow int64.
    gaps = np.minimum(rng.geometric(rate, size=batch), n_lanes + 1)
    positions = np.cumsum(gaps) - 1
    while positions[-1] < n_lanes:  # rare: the 6-sigma batch fell short
        gaps = np.minimum(rng.geometric(rate, size=batch), n_lanes + 1)
        positions = np.concatenate([positions, np.cumsum(gaps) + positions[-1]])
    return positions[positions < n_lanes]


def _scatter_flip(packed: np.ndarray, byte_index, bit_mask, *, set_bits: bool) -> None:
    """OR (or AND-NOT) per-position bit masks into a flat packed buffer.

    Positions come from :func:`_sparse_positions`, so ``(byte, bit)``
    pairs are unique and equal byte indices form contiguous runs — one
    ``bitwise_or.reduceat`` collapses each run to a single masked store,
    which keeps the scatter free of read-modify-write races under
    duplicated fancy indices.
    """
    if byte_index.size == 0:
        return
    starts = np.concatenate(([0], np.flatnonzero(np.diff(byte_index)) + 1))
    masks = np.bitwise_or.reduceat(bit_mask, starts)
    targets = byte_index[starts]
    if set_bits:
        packed[targets] |= masks
    else:
        packed[targets] &= ~masks


def _apply_correction(
    packed: np.ndarray,
    n: int,
    columns: np.ndarray | None,
    m: int,
    rate: float,
    up: bool,
    rng: np.random.Generator,
) -> None:
    """Flip a sparse Bernoulli(rate) mask over the (n x columns) lanes.

    ``columns`` restricts the lane grid to a column subset (``None`` =
    all ``m`` real columns).  OR-ing a sparse independent mask into the
    base raises each lane's rate from ``p0`` to ``p0 + (1-p0) * rate``;
    AND-ing the complement lowers it to ``p0 * (1 - rate)`` — the two
    directions :func:`_correction_rate` solves for.
    """
    width = packed.shape[1]
    n_columns = m if columns is None else columns.size
    lanes = _sparse_positions(n * n_columns, rate, rng)
    if lanes.size == 0:
        return
    rows, cols = np.divmod(lanes, n_columns)
    if columns is not None:
        cols = columns[cols]
    byte_index = rows * width + (cols >> 3)
    bit_mask = (128 >> (cols & 7)).astype(np.uint8)
    # Lane positions are strictly increasing and any column subset is
    # ascending, so byte_index is non-decreasing with unique (byte, bit)
    # pairs — exactly what _scatter_flip's run-collapsing needs.
    _scatter_flip(packed.reshape(-1), byte_index, bit_mask, set_bits=up)


# ----------------------------------------------------------------------
# The packed Bernoulli kernel
# ----------------------------------------------------------------------
def _uniform_planes(
    n: int, width: int, threshold: int, precision: int, rng: np.random.Generator
) -> np.ndarray:
    """Packed Bernoulli(threshold / 2^precision) base, one op per plane."""
    n_words = -(-(n * width) // 8)
    result = None
    for plane in range(precision):
        bit = (threshold >> plane) & 1
        if result is None:
            if bit:
                result = _raw_words(rng, n_words)
            continue  # planes below the lowest set bit are identities
        words = _raw_words(rng, n_words)
        if bit:
            np.bitwise_or(result, words, out=result)
        else:
            np.bitwise_and(result, words, out=result)
    if result is None:  # threshold == 0: planes contribute nothing
        result = np.zeros(n_words, dtype=np.uint64)
    return result.view(np.uint8)[: n * width].reshape(n, width)


def _column_planes(
    n: int,
    width: int,
    thresholds: np.ndarray,
    precision: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-column thresholds: plane masks broadcast over packed rows.

    The recurrence for ``u < T`` with per-column threshold bit mask
    ``t`` is ``r' = (t & u) | ((t ^ u) & r)`` (complement dropped as in
    the uniform path).  Pad columns carry ``T = 0`` and therefore stay
    zero, preserving the ``np.packbits`` tail convention.
    """
    lowest = min(
        (_trailing_zeros(int(t), precision) for t in thresholds), default=precision
    )
    result = None
    for plane in range(lowest, precision):
        plane_bits = ((thresholds >> np.uint64(plane)) & np.uint64(1)).astype(np.uint8)
        mask = np.packbits(plane_bits)  # zero-padded to the row width
        if not mask.any() and result is None:
            continue
        words = _raw_words(rng, -(-(n * width) // 8))
        u = words.view(np.uint8)[: n * width].reshape(n, width)
        if result is None:
            result = np.bitwise_and(u, mask, out=u)
        else:
            anded = mask & u
            np.bitwise_xor(u, mask, out=u)
            np.bitwise_and(u, result, out=u)
            np.bitwise_or(u, anded, out=result)
    if result is None:
        result = np.zeros((n, width), dtype=np.uint8)
    return result


def packed_bernoulli(
    p, n: int, rng=None, *, precision: int = 8
) -> np.ndarray:
    """``n`` packed rows of independent Bernoulli bits, one per column.

    Parameters
    ----------
    p:
        Scalar or length-``m`` per-column probabilities in ``[0, 1]``.
    n:
        Number of rows (users).
    rng:
        Generator / seed / None; raw words are drawn from its
        BitGenerator.
    precision:
        Bit planes spent before the sparse correction (1..32).  Purely
        a performance knob — the output law is exact to ~2^-60 at any
        setting.

    Returns
    -------
    ``n x ceil(m / 8)`` ``uint8`` matrix in the row-wise MSB-first
    ``np.packbits`` wire format, trailing pad bits zero.
    """
    n = check_positive_int(n, "n")
    rng = check_rng(rng)
    probabilities = np.atleast_1d(np.asarray(p, dtype=np.float64))
    if probabilities.ndim != 1:
        raise ValidationError(
            f"p must be a scalar or 1-D vector, got shape {probabilities.shape}"
        )
    m = probabilities.size
    width = packed_width(m)
    tail_bits = 8 * width - m

    uniform = bool(np.all(probabilities == probabilities[0]))
    if uniform:
        value = float(probabilities[0])
        if not np.isfinite(value) or not 0.0 <= value <= 1.0:
            raise ValidationError("probabilities must lie in [0, 1]")
        complement = value > 0.5
        generated = 1.0 - value if complement else value
        threshold, delta = _pick_uniform_threshold(generated, precision)
        packed = _uniform_planes(n, width, threshold, precision, rng)
        rate = _correction_rate(threshold, delta, precision)
        if rate:
            _apply_correction(packed, n, None, m, rate, delta > 0.0, rng)
        if complement:
            np.bitwise_not(packed, out=packed)
        if tail_bits:
            packed[:, -1] &= np.uint8((0xFF << tail_bits) & 0xFF)
        return packed

    thresholds, deltas, complements = fixed_point_decompose(probabilities, precision)
    packed = _column_planes(n, width, thresholds, precision, rng)
    # One sparse correction per distinct probability: the group count is
    # the number of parameter levels (t for IDUE), not m.
    _, first, inverse = np.unique(
        probabilities, return_index=True, return_inverse=True
    )
    for group, column_index in enumerate(first):
        delta = float(deltas[column_index])
        rate = _correction_rate(int(thresholds[column_index]), delta, precision)
        if not rate:
            continue
        columns = np.flatnonzero(inverse == group)
        _apply_correction(packed, n, columns, m, rate, delta > 0.0, rng)
    if complements.any():
        flip = np.packbits(complements)  # pad columns are never complemented
        np.bitwise_xor(packed, flip, out=packed)
    return packed


# ----------------------------------------------------------------------
# Packed-domain utilities
# ----------------------------------------------------------------------
def packed_assign_bits(packed: np.ndarray, columns, values) -> None:
    """Overwrite one bit per row: row ``i``'s bit ``columns[i]`` := ``values[i]``.

    This is the packed-domain version of the hot-bit overwrite in
    ``UnaryMechanism.perturb_many``: the background of a unary report is
    drawn from the zero-bit law in one kernel call, then each user's
    single encoded bit is replaced with its own-bit draw.
    """
    columns = np.asarray(columns)
    if packed.ndim != 2 or columns.shape != (packed.shape[0],):
        raise ValidationError(
            f"need one column per packed row, got {columns.shape} columns for "
            f"{packed.shape} packed"
        )
    rows = np.arange(packed.shape[0])
    byte_index = columns >> 3
    bit_mask = (128 >> (columns & 7)).astype(np.uint8)
    cleared = packed[rows, byte_index] & ~bit_mask
    packed[rows, byte_index] = cleared | np.where(values, bit_mask, np.uint8(0))


#: Rows per popcount block: the most 0/1 rows a ``uint8`` column sum
#: can hold without wrapping.
_COUNT_BLOCK_ROWS = int(np.iinfo(np.uint8).max)


def check_packed_rows(packed, m: int) -> np.ndarray:
    """Validate a packed chunk for an ``m``-bit round and return it.

    The chunk must be a ``k x ceil(m / 8)`` ``uint8`` matrix whose
    trailing pad bits are zero.  ``np.packbits`` zero-pads the tail
    (MSB-first), so a set pad bit means the producer packed a wider
    domain than the round's — refused, never silently truncated.
    Read-only views are returned as they are, never copied.
    """
    matrix = np.asarray(packed)
    width = packed_width(m)
    if matrix.ndim != 2 or matrix.shape[1] != width:
        raise ValidationError(
            f"packed reports must have shape (k, {width}) for m={m}, "
            f"got {matrix.shape}"
        )
    if matrix.dtype != np.uint8:
        raise ValidationError(
            f"packed reports must be uint8, got dtype {matrix.dtype}"
        )
    pad_bits = 8 * width - m
    if pad_bits and matrix.size and np.any(matrix[:, -1] & ((1 << pad_bits) - 1)):
        raise ValidationError(
            f"packed reports have set bits beyond m={m}; producer and "
            "round widths disagree"
        )
    return matrix


def packed_column_counts(packed, m: int) -> np.ndarray:
    """Per-column 1-counts of a packed chunk, as ``int64``.

    A blocked unpack-and-sum: each block of at most 255 rows is
    unpacked to one byte per bit and summed down its columns in
    ``uint8``, and the block sums are added into the ``int64`` counts.
    Summing in ``uint8`` spares widening every unpacked byte to
    ``int64``; a block's column sum is at most its row count, and 255
    is ``np.iinfo(np.uint8).max``, so it cannot wrap.  The result is
    exact integer math for any row count, so it is the same however
    reports are grouped into chunks.  The chunk is validated by
    :func:`check_packed_rows` first; read-only views are accepted and
    the input is never mutated.
    """
    matrix = check_packed_rows(packed, m)
    counts = np.zeros(m, dtype=np.int64)
    for start in range(0, matrix.shape[0], _COUNT_BLOCK_ROWS):
        block = matrix[start : start + _COUNT_BLOCK_ROWS]
        counts += np.unpackbits(block, axis=1, count=m).sum(axis=0, dtype=np.uint8)
    return counts
