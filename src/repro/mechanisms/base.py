"""Mechanism base classes.

A mechanism is a randomized map from a private input to a released
output.  The library distinguishes mechanisms by output type because the
server-side estimators differ:

* :class:`CategoricalMechanism` — outputs one category id; its behaviour
  is fully described by an ``m x m`` row-stochastic channel matrix.
* :class:`UnaryMechanism` — outputs an ``m``-bit vector, each bit flipped
  independently; fully described by per-bit Bernoulli parameters
  ``a[k] = Pr(y[k]=1 | x[k]=1)`` and ``b[k] = Pr(y[k]=1 | x[k]=0)``.

All randomness flows through an explicit ``numpy.random.Generator`` so
experiments are reproducible.  The batch entry points additionally take
a :class:`~repro.kernels.SamplerConfig`: the default ``"bitexact"``
sampler consumes the generator in the historical float64 order (frozen
fixed-seed streams), while ``"fast"`` routes the Bernoulli draws
through the bit-sliced packed-word kernels of :mod:`repro.kernels`
under a distributional-equivalence contract.
"""

from __future__ import annotations

import abc

import numpy as np

from .._validation import (
    as_int_array,
    check_positive_int,
    check_probability_vector,
    check_rng,
)
from ..exceptions import ValidationError
from ..kernels import (
    packed_assign_bits,
    packed_bernoulli,
    packed_width,
    resolve_sampler,
)

__all__ = ["Mechanism", "CategoricalMechanism", "UnaryMechanism"]


class Mechanism(abc.ABC):
    """Abstract base: a randomized map from inputs to released outputs."""

    #: Human-readable mechanism name used in reports and benchmarks.
    name: str = "mechanism"

    @property
    @abc.abstractmethod
    def m(self) -> int:
        """Size of the item domain the mechanism operates on."""

    @abc.abstractmethod
    def perturb(self, x, rng=None):
        """Perturb a single user's input and return the released output."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(m={self.m})"


class CategoricalMechanism(Mechanism):
    """A mechanism whose output is a single category id in ``0..m-1``.

    Subclasses must provide :meth:`channel_matrix`; :meth:`perturb` and
    :meth:`perturb_many` then sample from the appropriate row.
    """

    @abc.abstractmethod
    def channel_matrix(self) -> np.ndarray:
        """Row-stochastic ``m x m`` matrix ``P[x, y] = Pr(output=y | input=x)``."""

    def channel_cdf(self) -> np.ndarray:
        """Row-wise CDF of :meth:`channel_matrix`, cached on first use.

        Mechanism parameters are frozen at construction, so the channel —
        and its ``O(m^2)`` cumulative sum — is computed once and reused by
        every :meth:`perturb_many` call.  A subclass that does mutate its
        parameters must call :meth:`invalidate_channel_cache` afterwards.
        """
        cdf = getattr(self, "_channel_cdf", None)
        if cdf is None:
            matrix = np.asarray(self.channel_matrix())
            # One-time guard replacing rng.choice's per-call validation:
            # inverse-CDF sampling would otherwise silently pile missing
            # mass on the last category or draw from a non-monotone CDF.
            if matrix.size and matrix.min() < 0.0:
                raise ValidationError("channel_matrix entries must be non-negative")
            cdf = np.cumsum(matrix, axis=1)
            if cdf.size and not np.allclose(cdf[:, -1], 1.0, rtol=0.0, atol=1e-8):
                raise ValidationError(
                    "channel_matrix rows must sum to 1 to sample from them"
                )
            if cdf.size:
                # Pin every row's end to exactly 1.0: the flattened
                # sampler needs `cdf[x, -1] + x <= cdf[x+1, 0] + x + 1`
                # to hold without float slack.
                cdf /= cdf[:, -1:]
            cdf.flags.writeable = False
            self._channel_cdf = cdf
        return cdf

    def _flat_channel_cdf(self) -> np.ndarray:
        """Row CDFs offset by their row index and flattened, cached.

        Because every row ends at 1 (guarded in :meth:`channel_cdf`) and
        starts from a non-negative entry, ``flat[x * m + j] = cdf[x, j] +
        x`` is globally non-decreasing, so one ``searchsorted`` against
        ``x + u`` inverse-samples *every* user's row at once without the
        ``n x m`` row-gather a per-row comparison needs.
        """
        flat = getattr(self, "_flat_cdf", None)
        if flat is None:
            cdf = self.channel_cdf()
            flat = (cdf + np.arange(self.m)[:, None]).ravel()
            flat.flags.writeable = False
            self._flat_cdf = flat
        return flat

    def invalidate_channel_cache(self) -> None:
        """Drop the cached CDF (call after mutating channel parameters)."""
        self._channel_cdf = None
        self._flat_cdf = None

    def __getstate__(self):
        # The cached CDFs are O(m^2) derived state; recomputing them in
        # the receiving process beats shipping them in every shard payload.
        state = self.__dict__.copy()
        state.pop("_channel_cdf", None)
        state.pop("_flat_cdf", None)
        return state

    def perturb(self, x: int, rng=None) -> int:
        """Release a perturbed category for the true category *x*."""
        rng = check_rng(rng)
        if not 0 <= int(x) < self.m:
            raise ValidationError(f"input {x} outside domain [0, {self.m - 1}]")
        # Inverse-CDF draw from the cached row (no per-call O(m^2) matrix).
        row = self.channel_cdf()[int(x)]
        return int(min(np.searchsorted(row, rng.random(), side="right"), self.m - 1))

    def perturb_many(self, xs, rng=None, *, sampler=None) -> np.ndarray:
        """Vectorized perturbation of a batch of inputs.

        A ``"fast"`` *sampler* with a reduced-entropy dtype (``float32``
        or ``u64``) draws the inverse-CDF uniforms as float32
        (resolution 2^-24); the default ``"bitexact"`` sampler — and a
        fast config that explicitly keeps ``dtype="float64"`` —
        consumes the historical float64 stream.
        """
        rng = check_rng(rng)
        sampler = resolve_sampler(sampler)
        inputs = as_int_array(xs, "xs")
        if inputs.size and (inputs.min() < 0 or inputs.max() >= self.m):
            raise ValidationError(f"inputs fall outside domain [0, {self.m - 1}]")
        flat = self._flat_channel_cdf()
        u = rng.random(inputs.size, dtype=sampler.uniform_dtype)
        # One searchsorted over the flattened row-offset CDF inverts every
        # user's row at once — O(n log m) with no n x m temporaries.
        y = np.searchsorted(flat, inputs + u, side="right") - inputs * self.m
        escaped = (y < 0) | (y >= self.m)
        if np.any(escaped):
            # At large x, `x + u` can round to exactly x + 1 and cross the
            # row boundary (~x * 2^-53 per draw).  Re-sample just those
            # users with the exact per-row inverse CDF.
            rows = self.channel_cdf()[inputs[escaped]]
            y[escaped] = np.minimum(
                (u[escaped, None] > rows).sum(axis=1), self.m - 1
            )
        return y.astype(np.int64)


class UnaryMechanism(Mechanism):
    """Unary-encoding mechanism with per-bit flip parameters.

    Parameters
    ----------
    a:
        Length-``m`` vector; ``a[k] = Pr(y[k] = 1 | x[k] = 1)``.
    b:
        Length-``m`` vector; ``b[k] = Pr(y[k] = 1 | x[k] = 0)``.

    The paper requires ``a[k] > b[k]`` for every bit (Section V-B) so the
    estimator of Theorem 3 exists and utility is non-trivial; the
    constructor enforces it.
    """

    name = "unary"

    def __init__(self, a, b) -> None:
        a_arr = check_probability_vector(a, "a", open_interval=True)
        b_arr = check_probability_vector(b, "b", open_interval=True)
        if a_arr.shape != b_arr.shape:
            raise ValidationError(
                f"a and b must have equal length, got {a_arr.size} and {b_arr.size}"
            )
        if not np.all(a_arr > b_arr):
            worst = int(np.argmin(a_arr - b_arr))
            raise ValidationError(
                f"require a[k] > b[k] for all bits; violated at bit {worst} "
                f"(a={a_arr[worst]:g}, b={b_arr[worst]:g})"
            )
        self._a = a_arr.copy()
        self._b = b_arr.copy()
        self._a.flags.writeable = False
        self._b.flags.writeable = False

    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        return int(self._a.size)

    @property
    def a(self) -> np.ndarray:
        """Per-bit ``Pr(y=1 | x=1)`` (read-only)."""
        return self._a

    @property
    def b(self) -> np.ndarray:
        """Per-bit ``Pr(y=1 | x=0)`` (read-only)."""
        return self._b

    @property
    def alpha(self) -> np.ndarray:
        """``alpha[k] = a[k] / b[k]`` (Eq. 14), the bit-1 likelihood ratio."""
        return self._a / self._b

    @property
    def beta(self) -> np.ndarray:
        """``beta[k] = (1-a[k]) / (1-b[k])`` (Eq. 14), the bit-0 ratio."""
        return (1.0 - self._a) / (1.0 - self._b)

    # ------------------------------------------------------------------
    def encode(self, x: int) -> np.ndarray:
        """One-hot encode item *x* into an ``m``-bit vector (Eq. 6)."""
        if not 0 <= int(x) < self.m:
            raise ValidationError(f"input {x} outside domain [0, {self.m - 1}]")
        bits = np.zeros(self.m, dtype=np.int8)
        bits[int(x)] = 1
        return bits

    def perturb_bits(self, bits, rng=None) -> np.ndarray:
        """Flip each bit of an encoded vector independently (Algorithm 1)."""
        rng = check_rng(rng)
        vector = np.asarray(bits)
        if vector.shape != (self.m,):
            raise ValidationError(
                f"bits must have shape ({self.m},), got {vector.shape}"
            )
        ones = vector.astype(bool)
        prob_one = np.where(ones, self._a, self._b)
        return (rng.random(self.m) < prob_one).astype(np.int8)

    def perturb(self, x: int, rng=None) -> np.ndarray:
        """Encode and perturb one user's single-item input."""
        return self.perturb_bits(self.encode(x), rng)

    def perturb_many(self, xs, rng=None, *, sampler=None) -> np.ndarray:
        """Vectorized perturbation of a batch of single-item inputs.

        Returns an ``n x m`` 0/1 matrix of released reports.  All bits are
        first drawn from the zero-bit law ``b``, then each user's one hot
        bit is overwritten with an ``a``-draw — avoiding the ``n x m``
        probability-matrix copy a naive implementation needs.  The output
        (and one uniform draw per bit) is still ``O(n m)``; paper-scale
        runs should stream chunks through :mod:`repro.pipeline` or use
        :mod:`repro.simulation.fast`.

        The default *sampler* (``"bitexact"``) draws one float64 per bit
        in the historical order, so fixed-seed outputs are frozen.  A
        ``"fast"`` sampler switches to float32 draws (``dtype:
        "float32"``) or the packed bit-plane kernel (``dtype: "u64"``,
        unpacked here for API compatibility — prefer
        :meth:`perturb_many_packed` to keep the wire format).
        """
        rng = check_rng(rng)
        sampler = resolve_sampler(sampler)
        inputs = self._check_inputs(xs)
        n = inputs.size
        if sampler.is_packed:
            packed = self._perturb_many_packed(inputs, rng, sampler)
            return np.unpackbits(packed, axis=1, count=self.m).astype(np.int8)
        # uniform_dtype is float64 for bitexact (and fast configs that
        # keep it explicitly), so that branch consumes the frozen stream.
        dtype = sampler.uniform_dtype
        out = (
            rng.random((n, self.m), dtype=dtype)
            < self._b.astype(dtype, copy=False)
        ).astype(np.int8)
        hot = rng.random(n, dtype=dtype) < self._a[inputs].astype(dtype, copy=False)
        out[np.arange(n), inputs] = hot
        return out

    def perturb_many_packed(self, xs, rng=None, *, sampler=None) -> np.ndarray:
        """Perturb a batch straight into the ``np.packbits`` wire format.

        Returns an ``n x ceil(m / 8)`` ``uint8`` matrix (row-wise
        MSB-first packing, trailing pad bits zero) — what a transport
        ships and what
        :meth:`~repro.pipeline.accumulator.CountAccumulator.add_packed_reports`
        ingests.  With a ``"fast"`` ``u64`` sampler the packed words are
        produced directly by :func:`repro.kernels.packed_bernoulli`; no
        float64 array or unpacked 0/1 matrix ever exists.  Other
        samplers fall back to packing :meth:`perturb_many`'s output.
        """
        rng = check_rng(rng)
        sampler = resolve_sampler(sampler)
        inputs = self._check_inputs(xs)
        if sampler.is_packed:
            return self._perturb_many_packed(inputs, rng, sampler)
        return np.packbits(self.perturb_many(inputs, rng, sampler=sampler), axis=1)

    def _check_inputs(self, xs) -> np.ndarray:
        inputs = as_int_array(xs, "xs")
        if inputs.size and (inputs.min() < 0 or inputs.max() >= self.m):
            raise ValidationError(f"inputs fall outside domain [0, {self.m - 1}]")
        return inputs

    def _perturb_many_packed(self, inputs, rng, sampler) -> np.ndarray:
        """Packed-kernel body: b-law background, packed hot-bit overwrite."""
        if inputs.size == 0:
            return np.empty((0, packed_width(self.m)), dtype=np.uint8)
        packed = packed_bernoulli(
            self._b, inputs.size, rng, precision=sampler.precision
        )
        hot = rng.random(inputs.size) < self._a[inputs]
        packed_assign_bits(packed, inputs, hot)
        return packed

    # ------------------------------------------------------------------
    def pair_ratio_bound(self, i: int, j: int) -> float:
        """Worst-case ``Pr(y|v_i) / Pr(y|v_j)`` over all outputs ``y``.

        Section V-B shows this equals ``alpha_i / beta_j =
        a_i (1-b_j) / (b_i (1-a_j))``, achieved at ``y[i]=1, y[j]=0``.
        The audits compare it against ``e^{r(eps_i, eps_j)}``.
        """
        for k in (i, j):
            if not 0 <= k < self.m:
                raise ValidationError(f"bit {k} outside [0, {self.m - 1}]")
        if i == j:
            return 1.0
        return float(self.alpha[i] / self.beta[j])

    def ldp_epsilon(self) -> float:
        """The tightest plain-LDP budget this mechanism satisfies.

        ``max_{i != j} ln(alpha_i / beta_j)``; for uniform parameters this
        reduces to the familiar ``ln(a(1-b) / (b(1-a)))`` of [Wang et al.
        2017].
        """
        if self.m == 1:
            return float(np.log(self.alpha[0] / self.beta[0]))
        log_alpha = np.log(self.alpha)
        log_beta = np.log(self.beta)
        order = np.argsort(log_alpha)
        top, second = order[-1], order[-2]
        # max over i != j of log_alpha[i] - log_beta[j]: the minimizing j
        # may coincide with the maximizing i, so consider the two smallest
        # betas against the two largest alphas.
        beta_order = np.argsort(log_beta)
        best = -np.inf
        for i in (top, second):
            for j in (beta_order[0], beta_order[1] if self.m > 1 else beta_order[0]):
                if i != j:
                    best = max(best, log_alpha[i] - log_beta[j])
        return float(best)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(m={self.m}, "
            f"a=[{self._a.min():.4g}..{self._a.max():.4g}], "
            f"b=[{self._b.min():.4g}..{self._b.max():.4g}])"
        )
