"""Unary-encoding protocols: SUE (Basic One-time RAPPOR) and OUE.

Unary-encoding (UE) protocols one-hot encode the user's value into a
``k``-bit vector ``B`` and flip each bit independently:

* ``Pr[B'_i = 1 | B_i = 1] = p``
* ``Pr[B'_i = 1 | B_i = 0] = q``

Two parameterizations are studied by the paper:

* **SUE** (symmetric UE, a.k.a. Basic One-time RAPPOR):
  ``p = e^{eps/2} / (e^{eps/2} + 1)``, ``q = 1 - p``.
* **OUE** (optimized UE): ``p = 1/2``, ``q = 1 / (e^eps + 1)``.

Both satisfy ``eps``-LDP with ``eps = ln(p (1-q) / ((1-p) q))``.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.frequencies import validate_probability_vector
from ..core.rng import RngLike
from ..exceptions import InvalidParameterError
from .analysis import _acc_unary
from .base import FrequencyOracle
from .streaming import PackedBits, resolve_chunk_size


class UnaryEncoding(FrequencyOracle):
    """Generic unary-encoding protocol with arbitrary ``(p, q)``.

    Subclasses fix ``(p, q)`` from ``epsilon``; this class also supports the
    fake-data generation modes used by RS+FD (perturbing zero vectors or
    uniformly random one-hot vectors).

    Parameters
    ----------
    k, epsilon, rng:
        As for every :class:`~repro.protocols.base.FrequencyOracle`.
    packed:
        When true, ``randomize_many`` and the fake-data generators return
        bit-packed :class:`~repro.protocols.streaming.PackedBits` reports
        (k/8 bytes per user instead of k) and are generated chunk-wise so the
        dense bit matrix never exceeds ``chunk_size × k``.  The server-side
        methods accept packed and dense reports interchangeably, with
        byte-identical estimates.
    chunk_size:
        Rows materialized at once by the packed generator and the packed
        server kernels (default ``DEFAULT_CHUNK_SIZE``).
    """

    name = "UE"

    def __init__(
        self,
        k: int,
        epsilon: float,
        rng: RngLike = None,
        packed: bool = False,
        chunk_size: int | None = None,
    ) -> None:
        super().__init__(k, epsilon, rng)
        self.packed = bool(packed)
        self.chunk_size = resolve_chunk_size(chunk_size)

    # -- parameters (overridden) --------------------------------------------
    @property
    def p(self) -> float:  # pragma: no cover - abstract-ish, overridden
        raise NotImplementedError

    @property
    def q(self) -> float:  # pragma: no cover - abstract-ish, overridden
        raise NotImplementedError

    @property
    def effective_epsilon(self) -> float:
        """``ln(p(1-q) / ((1-p)q))`` — the budget actually guaranteed."""
        return math.log(self.p * (1.0 - self.q) / ((1.0 - self.p) * self.q))

    # -- encoding ------------------------------------------------------------
    def encode(self, value: int) -> np.ndarray:
        """One-hot encode ``value`` into a ``k``-bit vector."""
        value = self._validate_value(value)
        vector = np.zeros(self.k, dtype=np.uint8)
        vector[value] = 1
        return vector

    def _perturb_bits(self, bits: np.ndarray) -> np.ndarray:
        """Flip a (n, k) or (k,) bit matrix with probabilities ``p``/``q``."""
        bits = np.asarray(bits, dtype=np.uint8)
        rand = self._rng.random(bits.shape)
        keep_one = rand < self.p
        flip_zero = rand < self.q
        return np.where(bits == 1, keep_one, flip_zero).astype(np.uint8)

    # -- client ------------------------------------------------------------
    def randomize(self, value: int) -> np.ndarray:
        return self._perturb_bits(self.encode(value))

    def _perturbed_onehot_chunk(self, values: np.ndarray | None, count: int) -> np.ndarray:
        """Perturbed one-hot rows (``values is None`` = all-zero rows)."""
        bits = np.zeros((count, self.k), dtype=np.uint8)
        if values is not None:
            bits[np.arange(count), values] = 1
        return self._perturb_bits(bits)

    def _emit_reports(self, values: np.ndarray | None, count: int) -> np.ndarray | PackedBits:
        """Generate ``count`` perturbed rows, bit-packed chunk-wise if enabled."""
        if not self.packed:
            return self._perturbed_onehot_chunk(values, count)
        packed = PackedBits.empty(count, self.k)
        for start in range(0, count, self.chunk_size):
            stop = min(start + self.chunk_size, count)
            chunk_values = None if values is None else values[start:stop]
            bits = self._perturbed_onehot_chunk(chunk_values, stop - start)
            packed.data[start:stop] = np.packbits(bits, axis=1)
        return packed

    def randomize_many(self, values: np.ndarray) -> np.ndarray | PackedBits:
        values = self._validate_values(values)
        return self._emit_reports(values, values.size)

    def randomize_zero_vector(self, count: int = 1) -> np.ndarray | PackedBits:
        """Perturb ``count`` all-zero vectors (RS+FD[UE-z] fake data)."""
        return self._emit_reports(None, count)

    def randomize_random_onehot(
        self, count: int = 1, priors: np.ndarray | None = None
    ) -> np.ndarray | PackedBits:
        """Perturb ``count`` random one-hot vectors (RS+FD/RS+RFD [UE-r] fake data).

        Values are drawn uniformly when ``priors`` is ``None``, otherwise
        following the supplied distribution (RS+RFD realistic fake data).
        ``priors`` must be a finite non-negative length-``k`` vector with
        positive mass; anything else raises
        :class:`~repro.exceptions.InvalidParameterError` instead of producing
        NaN probabilities deep inside ``rng.choice``.
        """
        if priors is None:
            values = self._rng.integers(0, self.k, size=count)
        else:
            priors = validate_probability_vector(
                priors, self.k, context=f"{self.name} fake-data priors"
            )
            values = self._rng.choice(self.k, size=count, p=priors)
        return self._emit_reports(values, count)

    # -- server ------------------------------------------------------------
    def validate_reports(
        self, reports: np.ndarray | PackedBits
    ) -> np.ndarray | PackedBits:
        """UE wire format: ``(n, k)`` 0/1 bit rows (or :class:`PackedBits`
        over the same ``k``).

        A wrong-width dense matrix would crash the accumulator's O(k) count
        vector with a broadcast error, and non-bit values would silently
        corrupt the column sums; both are rejected at the ingest edge.
        """
        if isinstance(reports, PackedBits):
            if reports.k != self.k:
                raise InvalidParameterError(
                    f"{self.name} packed reports have k={reports.k}, "
                    f"expected k={self.k}"
                )
            return reports
        reports = np.asarray(reports)
        if reports.size == 0:
            return reports.reshape(0, self.k)
        if reports.ndim == 1:
            reports = reports.reshape(1, -1)
        if reports.ndim != 2 or reports.shape[1] != self.k:
            raise InvalidParameterError(
                f"{self.name} reports must be (n, {self.k}) bit rows, "
                f"got shape {reports.shape}"
            )
        if np.any((reports != 0) & (reports != 1)):
            raise InvalidParameterError(
                f"{self.name} reports must contain only 0/1 bits"
            )
        return reports

    def _support_counts_dense(self, reports: np.ndarray | PackedBits) -> np.ndarray:
        if isinstance(reports, PackedBits):
            return reports.column_sums(self.chunk_size)
        reports = np.asarray(reports)
        if reports.size == 0:
            # a zero-row chunk supports nothing; without this guard the 1-D
            # fallback reshapes (0,) into (1, 0) and the column sum comes out
            # with shape (0,) instead of (k,)
            return np.zeros(self.k, dtype=float)
        if reports.ndim == 1:
            reports = reports.reshape(1, -1)
        return reports.sum(axis=0).astype(float)

    def _num_reports(self, reports: np.ndarray | PackedBits) -> int:
        if isinstance(reports, PackedBits):
            return len(reports)
        reports = np.asarray(reports)
        if reports.size == 0:
            # an empty dense chunk is zero reports, not one 1-D report
            return 0
        return 1 if reports.ndim == 1 else int(reports.shape[0])

    def _fingerprint_params(self) -> dict[str, object]:
        # packed and dense accumulators count the same bits, but packing is
        # part of the wire/report format contract; keep shards homogeneous
        return {"packed": self.packed}

    # -- attack --------------------------------------------------------------
    def attack(self, report: np.ndarray) -> int:
        """Plausible-deniability attack on one sanitized bit vector.

        * exactly one bit set → predict that bit;
        * several bits set → predict uniformly among them;
        * no bit set → predict uniformly over the domain.
        """
        report = np.asarray(report).ravel()
        ones = np.flatnonzero(report == 1)
        if ones.size == 1:
            return int(ones[0])
        if ones.size > 1:
            return int(self._rng.choice(ones))
        return int(self._rng.integers(0, self.k))

    def _attack_dense(self, reports: np.ndarray | PackedBits) -> np.ndarray:
        if isinstance(reports, PackedBits):
            if len(reports) == 0:
                return np.empty(0, dtype=np.int64)
            # unpack at most chunk_size rows at a time so the dense bit
            # matrix stays bounded
            return np.concatenate(
                [
                    self._attack_block(reports.unpack(start, start + self.chunk_size))
                    for start in range(0, len(reports), self.chunk_size)
                ]
            )
        reports = np.asarray(reports)
        if reports.size == 0:
            return np.empty(0, dtype=np.int64)
        if reports.ndim == 1:
            reports = reports.reshape(1, -1)
        return self._attack_block(reports)

    def _attack_block(self, reports: np.ndarray) -> np.ndarray:
        """Attack kernel over one ``(m, k)`` bit block."""
        n = reports.shape[0]
        counts = reports.sum(axis=1)
        guesses = np.empty(n, dtype=np.int64)
        # no bits set: uniform over the domain
        none_mask = counts == 0
        guesses[none_mask] = self._rng.integers(0, self.k, size=int(none_mask.sum()))
        # at least one bit set: uniform among the set bits, vectorized by
        # picking a random rank and taking the corresponding set-bit index
        some_mask = ~none_mask
        if some_mask.any():
            rows = np.flatnonzero(some_mask)
            ranks = (self._rng.random(rows.size) * counts[rows]).astype(np.int64)
            cumulative = np.cumsum(reports[rows], axis=1)
            guesses[rows] = np.argmax(cumulative > ranks[:, None], axis=1)
        return guesses

    def expected_attack_accuracy(self) -> float:
        """Closed-form expected attack accuracy for a generic UE protocol
        (see :func:`repro.protocols.analysis._acc_unary`)."""
        return _acc_unary(self.p, self.q, self.k)


class SUE(UnaryEncoding):
    """Symmetric Unary Encoding (Basic One-time RAPPOR)."""

    name = "SUE"

    @property
    def p(self) -> float:
        half = math.exp(self.epsilon / 2.0)
        return half / (half + 1.0)

    @property
    def q(self) -> float:
        half = math.exp(self.epsilon / 2.0)
        return 1.0 / (half + 1.0)


class OUE(UnaryEncoding):
    """Optimized Unary Encoding (Wang et al., 2017)."""

    name = "OUE"

    @property
    def p(self) -> float:
        return 0.5

    @property
    def q(self) -> float:
        return 1.0 / (math.exp(self.epsilon) + 1.0)
