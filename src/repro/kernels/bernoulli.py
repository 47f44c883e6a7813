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

Per-column probabilities
------------------------
A uniform ``p`` needs one threshold, picked per call for almost
nothing.  IDUE and IDUE-PS give every bit its own ``(a_k, b_k)``, so
their ``b`` vector takes the per-column branch, whose set-up is the
fixed-point decomposition of all ``m`` columns, one packed threshold
mask per drawn plane, one correction group per distinct probability
(``np.unique``) and the packed complement mask.  At the record shapes
the mechanisms use (hundreds of rows, thousands of columns) that set-up
cost more than the planes it drives.  It depends only on ``p`` and
``precision``, and a mechanism passes the same ``b`` on every call, so
it is built once per distinct vector and kept in a small
``functools.lru_cache`` keyed on the vector's exact bytes
(:func:`_column_plan`).  A call then only draws and combines planes,
applies the corrections and flips the complemented columns, in the same
order as before, so the output stream is unchanged.

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

import functools
from typing import NamedTuple

import numpy as np

from .._validation import check_positive_int, check_rng
from ..exceptions import ValidationError

__all__ = [
    "packed_bernoulli",
    "check_precision",
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


def check_precision(precision) -> int:
    """Validate a plane budget: an integer (not a bool) in ``[1, 32]``."""
    if isinstance(precision, bool) or not isinstance(precision, (int, np.integer)):
        raise ValidationError(f"precision must be an integer, got {precision!r}")
    if not 1 <= int(precision) <= 32:
        raise ValidationError(f"precision must lie in [1, 32], got {precision}")
    return int(precision)


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
    precision = check_precision(precision)
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


class _ColumnPlan(NamedTuple):
    """Everything the per-column branch derives from ``(p, precision)``.

    ``masks`` holds one packed threshold-bit row per drawn plane, lowest
    useful plane first; ``corrections`` one ``(columns, rate, up)``
    entry per distinct probability whose residual is nonzero, in
    ascending-probability order (the order the sparse draws are made
    in); ``flip`` is the packed complement mask, ``None`` when no column
    is complemented.  Every array is read-only: the plan is shared by
    every call that samples the same vector.
    """

    masks: np.ndarray
    corrections: tuple[tuple[np.ndarray, float, bool], ...]
    flip: np.ndarray | None


#: Column plans kept at once.  A mechanism passes its own ``b`` vector
#: on every call, so a handful covers every mechanism a process samples
#: from.  An entry holds about 17 m bytes: the 8 m-byte key, 8 m bytes of
#: correction column indices and m bytes of plane masks.
_PLAN_CACHE_SIZE = 8


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _column_plan(key: bytes, precision: int) -> _ColumnPlan:
    """Build the plan for the float64 vector whose exact bytes are *key*.

    Keyed on bytes, not values, so two vectors share a plan only when
    they are the same vector.  Validation happens here: a bad vector
    raises while building, and ``lru_cache`` never stores an exception,
    so it is refused on every call.
    """
    probabilities = np.frombuffer(key, dtype=np.float64)
    thresholds, deltas, complements = fixed_point_decompose(probabilities, precision)
    # min over columns of tz(T) == tz(OR of all T): the lowest set bit of
    # the OR is the lowest set bit of any threshold.  Planes below it are
    # identities for every column, so no word is drawn for them.
    lowest = _trailing_zeros(int(np.bitwise_or.reduce(thresholds)), precision)
    planes = np.arange(lowest, precision, dtype=np.uint64)
    plane_bits = (thresholds[None, :] >> planes[:, None]) & np.uint64(1)
    masks = np.packbits(plane_bits.astype(np.uint8), axis=1)  # pad columns: 0
    # One sparse correction per distinct probability: the group count is
    # the number of parameter levels (t for IDUE), not m.
    _, first, inverse = np.unique(
        probabilities, return_index=True, return_inverse=True
    )
    corrections = []
    for group, column_index in enumerate(first):
        delta = float(deltas[column_index])
        rate = _correction_rate(int(thresholds[column_index]), delta, precision)
        if rate:
            columns = _read_only(np.flatnonzero(inverse == group))
            corrections.append((columns, rate, delta > 0.0))
    # Pad columns are never complemented.
    flip = _read_only(np.packbits(complements)) if complements.any() else None
    return _ColumnPlan(_read_only(masks), tuple(corrections), flip)


def _column_planes(
    n: int, width: int, masks: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Per-column thresholds: plane masks broadcast over packed rows.

    The recurrence for ``u < T`` with per-column threshold bit mask
    ``t`` is ``r' = (t & u) | ((t ^ u) & r)`` (complement dropped as in
    the uniform path).  Pad columns carry ``T = 0`` and therefore stay
    zero, preserving the ``np.packbits`` tail convention.
    """
    result = None
    for mask in masks:
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
    precision = check_precision(precision)
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

    plan = _column_plan(probabilities.tobytes(), precision)
    packed = _column_planes(n, width, plan.masks, rng)
    for columns, rate, up in plan.corrections:
        _apply_correction(packed, n, columns, m, rate, up, rng)
    if plan.flip is not None:
        np.bitwise_xor(packed, plan.flip, out=packed)
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
