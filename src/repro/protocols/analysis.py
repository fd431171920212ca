"""Closed-form analysis of the LDP protocols (Sec. 3.2.1 and Fig. 1).

This module centralizes the analytical expressions used throughout the paper:

* the expected single-report attacker accuracy ``ACC_FO(eps, k)`` of every
  protocol (Sec. 3.2.1);
* the multi-collection profiling accuracies ``ACC^U`` (Eq. 4, uniform privacy
  metric) and ``ACC^NU`` (Eq. 5, non-uniform privacy metric);
* frequency-estimator variances of the five oracles.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core.composition import validate_epsilon
from ..exceptions import InvalidParameterError
from .ss import optimal_subset_size


def _validate_k(k: int) -> int:
    if int(k) < 2:
        raise InvalidParameterError(f"k must be >= 2, got {k}")
    return int(k)


# --------------------------------------------------------------------------- #
# expected single-report attacker accuracy (Sec. 3.2.1)
# --------------------------------------------------------------------------- #
def acc_grr(epsilon: float, k: int) -> float:
    """``ACC_GRR = e^eps / (e^eps + k - 1)``."""
    epsilon, k = validate_epsilon(epsilon), _validate_k(k)
    return math.exp(epsilon) / (math.exp(epsilon) + k - 1)


def acc_olh(epsilon: float, k: int) -> float:
    """``ACC_OLH = 1 / (2 * max(k / (e^eps + 1), 1))``."""
    epsilon, k = validate_epsilon(epsilon), _validate_k(k)
    return 1.0 / (2.0 * max(k / (math.exp(epsilon) + 1.0), 1.0))


def acc_ss(epsilon: float, k: int, omega: int | None = None) -> float:
    """``ACC_SS = p / omega`` with the variance-optimal subset size.

    Equals the paper's ``(e^eps + 1) / (2 k)`` when ``omega = k/(e^eps+1)``
    is at least one; for very small ``k`` (``omega = 1``) it degenerates to
    the GRR accuracy, matching the empirical behaviour.
    """
    epsilon, k = validate_epsilon(epsilon), _validate_k(k)
    omega = optimal_subset_size(k, epsilon) if omega is None else int(omega)
    e = math.exp(epsilon)
    inclusion = omega * e / (omega * e + k - omega)
    return inclusion / omega


def _acc_unary(p: float, q: float, k: int) -> float:
    """Generic UE attack accuracy with keep/flip probabilities ``(p, q)``.

    With the true bit kept with probability ``p`` and the ``k - 1`` other
    bits turned on independently with probability ``q``:

    * no bit set: ``(1-p) (1-q)^{k-1}`` and a uniform guess ``1/k``;
    * true bit set and ``i-1`` extra bits set: ``p * Bin(i-1; k-1, q)``
      with a uniform guess among the ``i`` set bits.
    """
    # scipy.stats takes about a second to import; only this formula needs it
    from scipy.stats import binom

    accuracy = (1.0 - p) * (1.0 - q) ** (k - 1) / k
    i = np.arange(1, k + 1)
    accuracy += float(np.sum((p / i) * binom.pmf(i - 1, k - 1, q)))
    return accuracy


def acc_sue(epsilon: float, k: int) -> float:
    """Expected attack accuracy of SUE (Basic One-time RAPPOR)."""
    epsilon, k = validate_epsilon(epsilon), _validate_k(k)
    half = math.exp(epsilon / 2.0)
    return _acc_unary(half / (half + 1.0), 1.0 / (half + 1.0), k)


def acc_oue(epsilon: float, k: int) -> float:
    """Expected attack accuracy of OUE."""
    epsilon, k = validate_epsilon(epsilon), _validate_k(k)
    return _acc_unary(0.5, 1.0 / (math.exp(epsilon) + 1.0), k)


#: Mapping from protocol name to its analytical single-report attack accuracy.
ANALYTICAL_ACC: Mapping[str, Callable[[float, int], float]] = {
    "GRR": acc_grr,
    "OLH": acc_olh,
    "SS": acc_ss,
    "SUE": acc_sue,
    "OUE": acc_oue,
}


def attacker_accuracy(protocol: str, epsilon: float, k: int) -> float:
    """Dispatch to the analytical accuracy of ``protocol``."""
    try:
        func = ANALYTICAL_ACC[protocol.upper()]
    except KeyError as exc:
        raise InvalidParameterError(
            f"unknown protocol {protocol!r}; expected one of {sorted(ANALYTICAL_ACC)}"
        ) from exc
    return func(epsilon, k)


# --------------------------------------------------------------------------- #
# multi-collection profiling accuracies (Eqs. 4 and 5)
# --------------------------------------------------------------------------- #
def profiling_accuracy_uniform(protocol: str, epsilon: float, sizes: Sequence[int]) -> float:
    """Eq. (4): expected probability of profiling a user on all ``d`` attributes.

    With a uniform privacy metric (sampling without replacement) the user
    reports every attribute exactly once across the ``d`` surveys, so the
    profiling accuracy is the product of per-attribute attack accuracies.
    """
    sizes = list(sizes)
    if not sizes:
        raise InvalidParameterError("sizes must not be empty")
    return float(np.prod([attacker_accuracy(protocol, epsilon, k) for k in sizes]))


def profiling_accuracy_non_uniform(protocol: str, epsilon: float, sizes: Sequence[int]) -> float:
    """Eq. (5): profiling accuracy with replacement (non-uniform privacy metric).

    In survey ``j`` the probability of drawing a not-yet-reported attribute is
    ``(d + 1 - j) / d``; the product over surveys is the probability the user
    ends up with a complete profile, each attribute being attacked once.
    """
    sizes = list(sizes)
    if not sizes:
        raise InvalidParameterError("sizes must not be empty")
    d = len(sizes)
    factors = [
        (d + 1 - j) / d * attacker_accuracy(protocol, epsilon, k)
        for j, k in enumerate(sizes, start=1)
    ]
    return float(np.prod(factors))


# --------------------------------------------------------------------------- #
# frequency-estimator variances (utility analysis of the oracles)
# --------------------------------------------------------------------------- #
def oracle_variance(protocol: str, epsilon: float, k: int, n: int, f: float = 0.0) -> float:
    """Approximate variance of the frequency estimator of ``protocol``.

    Uses ``Var = gamma (1 - gamma) / (n (p - q)^2)`` with
    ``gamma = f (p - q) + q`` and the protocol's estimator parameters.
    """
    epsilon, k = validate_epsilon(epsilon), _validate_k(k)
    if n <= 0:
        raise InvalidParameterError("n must be positive")
    e = math.exp(epsilon)
    protocol = protocol.upper()
    if protocol == "GRR":
        p, q = e / (e + k - 1), 1.0 / (e + k - 1)
    elif protocol == "OLH":
        g = max(2, int(round(e)) + 1)
        p, q = e / (e + g - 1), 1.0 / g
    elif protocol == "SS":
        omega = optimal_subset_size(k, epsilon)
        p = omega * e / (omega * e + k - omega)
        q = (omega * e * (omega - 1) + (k - omega) * omega) / ((k - 1) * (omega * e + k - omega))
    elif protocol == "SUE":
        half = math.exp(epsilon / 2.0)
        p, q = half / (half + 1.0), 1.0 / (half + 1.0)
    elif protocol == "OUE":
        p, q = 0.5, 1.0 / (e + 1.0)
    else:
        raise InvalidParameterError(f"unknown protocol {protocol!r}")
    gamma = f * (p - q) + q
    return gamma * (1.0 - gamma) / (n * (p - q) ** 2)
