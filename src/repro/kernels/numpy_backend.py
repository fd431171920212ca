"""Pure-NumPy kernel backend (the default; always available).

These are the hot-path kernels extracted from
``attacks/reidentification.py``, ``ml/tree.py`` and ``protocols/olh.py``
(the OLH kernels since rebuilt on one uint32 hash table, with the same
answers) — the array contracts documented here are THE backend contract;
the numba backend reimplements exactly these semantics.  Integer-valued
kernels are bitwise reproducible across backends; :func:`histogram_product`
is the one float kernel, where backends may differ in summation order only.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import InvalidParameterError
from . import KernelBackend


def distance_block(
    rows: np.ndarray,
    background: np.ndarray,
    attributes: np.ndarray,
    unknown: int,
    out: np.ndarray,
) -> np.ndarray:
    """Accumulate profile/record disagreement counts into ``out``.

    Parameters
    ----------
    rows:
        ``(n, d)`` int64 inferred-profile rows (``unknown`` marks cells not
        inferred yet).
    background:
        ``(m, c)`` int64 background-knowledge submatrix.
    attributes:
        ``(c,)`` int64 global attribute index of each background column.
    unknown:
        Sentinel for not-inferred profile cells; they contribute no
        mismatch.
    out:
        ``(n, m)`` integer matrix the counts are **added** into (callers
        pass zeros for a fresh computation; the dtype is the caller's
        choice).  Returned for convenience.
    """
    for column in range(attributes.shape[0]):
        inferred = rows[:, attributes[column]]
        known = inferred != unknown
        if not known.any():
            continue
        mismatch = inferred[:, None] != background[None, :, column]
        out += (mismatch & known[:, None]).astype(out.dtype)
    return out


def distance_update(
    distances: np.ndarray,
    rows: np.ndarray,
    old_values: np.ndarray,
    new_values: np.ndarray,
    background_column: np.ndarray,
    unknown: int,
) -> None:
    """Fold one attribute's rewritten cells into a distance matrix in place.

    For block-local profile rows ``rows`` (``(w,)`` int64, no duplicates)
    whose cell changed from ``old_values`` to ``new_values`` on the
    attribute whose background column is ``background_column`` (``(m,)``
    int64), add the new value's mismatch column and subtract the old one.
    ``unknown`` values (a cell not inferred before, or reverted) contribute
    nothing on their side of the update.  ``distances`` is ``(block, m)``
    integer, updated in place.
    """
    update = np.zeros((rows.size, background_column.size), dtype=distances.dtype)
    known_after = new_values != unknown
    if known_after.any():
        update[known_after] = (
            new_values[known_after, None] != background_column[None, :]
        )
    known_before = old_values != unknown
    if known_before.any():
        update[known_before] -= (
            old_values[known_before, None] != background_column[None, :]
        )
    distances[rows] += update


def histogram_product(weights_t: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Per-slot feature histograms: the level-wise ``W^T X`` product.

    ``weights_t`` is ``(slots, n)`` float64 scattered sample weights (one
    row per live tree node at this level, mostly zero) and ``features`` is
    the ``(n, F)`` float64 binary bin-indicator matrix; returns the
    ``(slots, F)`` float64 histogram matrix ``weights_t @ features``.
    """
    return weights_t @ features


#: Largest OLH hash prime the uint32 kernels accept: every sum of two
#: residues below ``prime`` must stay below ``2**32``.
MAX_OLH_PRIME = 2**31 - 1

#: Stand-in for a perturbed value outside ``[0, g)``; no hash equals it.
_NO_HASH = 2**32 - 1


def _olh_hashes(reports: np.ndarray, k: int, g: int, prime: int) -> np.ndarray:
    """The ``(k, m)`` uint32 table of ``H_i(v) = ((a_i v + b_i) mod prime) mod g``.

    Row ``v`` holds every report's hash of domain value ``v``.  The rows are
    built by doubling, with no multiplication or division modulo ``prime``:
    row 0 is ``b mod prime`` and rows ``[f, 2f)`` are rows ``[0, f)`` plus
    ``(f a) mod prime``.  Both operands of every sum are residues below
    ``prime < 2**31``, so the sum fits in uint32 and one unsigned
    compare-subtract, ``min(x, x - prime)`` (``x - prime`` wraps when
    ``x < prime``), reduces it.  The final reduction by ``g`` is
    ``x - g (x // g)`` with a scalar uint32 divisor, which NumPy computes
    without a hardware division per element.

    ``a`` and ``b`` (int64 columns) are reduced modulo ``prime`` first, so
    the table is exact for every int64 report.
    """
    if not 1 <= prime <= MAX_OLH_PRIME:
        raise InvalidParameterError(
            f"OLH hash prime must be in [1, {MAX_OLH_PRIME}], got {prime}"
        )
    modulus = np.uint32(prime)
    table = np.empty((k, reports.shape[0]), dtype=np.uint32)
    if k == 0:
        return table
    table[0] = reports[:, 1] % prime
    step = (reports[:, 0] % prime).astype(np.uint32)
    filled = 1
    while filled < k:
        count = min(filled, k - filled)
        rows = table[filled : filled + count]
        np.add(table[:count], step, out=rows)
        np.minimum(rows, rows - modulus, out=rows)
        filled += count
        if filled < k:
            np.add(step, step, out=step)
            np.minimum(step, step - modulus, out=step)
    if g < prime:  # otherwise every residue is already below g
        divisor = np.uint32(g)
        quotient = table // divisor
        quotient *= divisor
        table -= quotient
    return table


def _olh_supports(reports: np.ndarray, k: int, g: int, prime: int) -> np.ndarray:
    """The ``(k, m)`` boolean matrix ``H_i(v) == y_i`` of one report block.

    A hash lies in ``[0, min(g, prime))``; a perturbed value outside it
    (negative, at least ``g``, or beyond uint32) supports nothing, so it is
    replaced by a value no hash takes rather than wrapped onto a real one.
    """
    reports = np.asarray(reports, dtype=np.int64)
    perturbed = reports[:, 2]
    valid = (perturbed >= 0) & (perturbed < min(g, prime))
    perturbed = np.where(valid, perturbed, _NO_HASH).astype(np.uint32)
    return _olh_hashes(reports, k, g, prime) == perturbed


def olh_support(
    reports: np.ndarray, k: int, g: int, prime: int
) -> np.ndarray:
    """Support counts of one OLH report block over the domain ``[0, k)``.

    ``reports`` is ``(m, 3)`` integer rows ``(a, b, y)``; report ``i``
    supports value ``v`` iff ``((a_i v + b_i) mod prime) mod g == y_i``.
    ``prime`` must be at most :data:`MAX_OLH_PRIME`.  Returns the ``(k,)``
    float64 vector of support counts.
    """
    supports = _olh_supports(reports, k, g, prime)
    return np.count_nonzero(supports, axis=1).astype(float)


def olh_attack_counts(
    reports: np.ndarray, k: int, g: int, prime: int
) -> np.ndarray:
    """Per-report candidate-set sizes: ``counts[i] = |{v : H_i(v) == y_i}|``.

    Same support relation as :func:`olh_support`, summed along the domain
    axis instead; returns ``(m,)`` int64.
    """
    supports = _olh_supports(reports, k, g, prime)
    return np.count_nonzero(supports, axis=0).astype(np.int64)


def olh_attack_select(
    reports: np.ndarray,
    k: int,
    g: int,
    prime: int,
    rows: np.ndarray,
    ranks: np.ndarray,
) -> np.ndarray:
    """Rank-indexed candidate selection for the OLH attack.

    For each report index in ``rows`` (all with non-empty candidate sets),
    return the ``ranks[j]``-th (0-based, ``0 <= ranks[j] < counts``) domain
    value supported by that report, in increasing value order — the uniform
    candidate the attack RNG already committed to via ``ranks``.  Returns
    ``(len(rows),)`` int64 guesses.
    """
    supports = _olh_supports(reports[rows], k, g, prime)
    cumulative = np.cumsum(supports, axis=0)
    return np.argmax(cumulative > ranks[None, :], axis=0).astype(np.int64)


BACKEND = KernelBackend(
    name="numpy",
    distance_block=distance_block,
    distance_update=distance_update,
    histogram_product=histogram_product,
    olh_support=olh_support,
    olh_attack_counts=olh_attack_counts,
    olh_attack_select=olh_attack_select,
)
