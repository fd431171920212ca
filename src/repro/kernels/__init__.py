"""Pluggable compiled-kernel backends for the three hot numeric kernels.

PRs 3 and 5 reduced fig-2/fig-3 wall-clock to three numeric kernels — the
re-identification distance block/update, the level-wise ``X^T W`` histogram
product of the GBDT grower, and the OLH support/attack kernels.  This package
puts those kernels behind one stable array contract (:class:`KernelBackend`)
with two interchangeable implementations:

* ``numpy`` — the pure-NumPy reference kernels, always available; the OLH
  kernels hash in uint32 without division and give the answers of the
  int64 definition.
* ``numba`` — ``@njit(nogil=True)`` loop kernels compiled at first call;
  only registered when :mod:`numba` is importable.

Selection happens once per process: ``set_backend(name)`` (driven by the
``--kernel-backend`` CLI flag) or the ``REPRO_KERNEL_BACKEND`` environment
variable, both accepting ``numpy`` / ``numba`` / ``auto``.  ``auto`` (the
default) silently falls back to NumPy when numba is missing; requesting
``numba`` explicitly without numba installed is an
:class:`~repro.exceptions.InvalidParameterError` — a quiet fallback there
would corrupt benchmark comparisons.

Hot-path modules must dispatch through :func:`get_backend` and never import
a backend module directly (enforced by reprolint rule REPRO601): the
registry is what keeps one process on one backend, so artifacts can record
which kernels produced them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Callable, Optional

from ..exceptions import InvalidParameterError

#: Environment variable consulted when no backend was selected explicitly.
KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"

#: Names accepted by :func:`set_backend` / ``--kernel-backend``.
KERNEL_BACKEND_CHOICES = ("numpy", "numba", "auto")


@dataclass(frozen=True)
class KernelBackend:
    """One backend's implementations of the three hot kernels.

    All functions share the array contracts of the NumPy reference
    implementations in :mod:`repro.kernels.numpy_backend` (shapes, dtypes
    and in-place semantics are documented there).  Integer-valued kernels
    (distances, OLH supports/selection) must agree exactly across backends;
    ``histogram_product`` may differ in float64 summation order only.
    """

    name: str
    distance_block: Callable[..., object]
    distance_update: Callable[..., object]
    histogram_product: Callable[..., object]
    olh_support: Callable[..., object]
    olh_attack_counts: Callable[..., object]
    olh_attack_select: Callable[..., object]

    def kernels(self) -> dict[str, Callable[..., object]]:
        """Kernel name -> callable mapping (bench/test introspection)."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "name"
        }


_active_backend: Optional[KernelBackend] = None


def numba_available() -> bool:
    """True when the numba JIT backend can be imported and registered."""
    try:
        from . import numba_backend  # noqa: F401
    except ImportError:
        return False
    return True


def available_backends() -> tuple[str, ...]:
    """Concrete backend names importable in this process (no ``auto``)."""
    names = ["numpy"]
    if numba_available():
        names.append("numba")
    return tuple(names)


def resolve_backend_name(name: str | None = None) -> str:
    """Resolve a requested backend name to a concrete one.

    ``None`` defers to ``REPRO_KERNEL_BACKEND``, and an unset/empty variable
    means ``auto``.  ``auto`` picks numba when importable, else numpy.
    Unknown names and an explicit ``numba`` request without numba installed
    raise :class:`InvalidParameterError`.
    """
    if name is None:
        name = os.environ.get(KERNEL_BACKEND_ENV, "").strip() or "auto"
    name = str(name).strip().lower()
    if name not in KERNEL_BACKEND_CHOICES:
        raise InvalidParameterError(
            f"unknown kernel backend {name!r}; choose one of "
            f"{', '.join(KERNEL_BACKEND_CHOICES)}"
        )
    if name == "auto":
        return "numba" if numba_available() else "numpy"
    if name == "numba" and not numba_available():
        raise InvalidParameterError(
            "kernel backend 'numba' was requested but numba is not importable "
            "in this environment; install numba or select --kernel-backend "
            "numpy (or auto, which falls back silently)"
        )
    return name


def _load_backend(name: str) -> KernelBackend:
    if name == "numpy":
        from . import numpy_backend

        return numpy_backend.BACKEND
    if name == "numba":
        from . import numba_backend

        return numba_backend.BACKEND
    raise InvalidParameterError(f"unknown kernel backend {name!r}")  # pragma: no cover


def set_backend(name: str | None = None) -> KernelBackend:
    """Select the process-wide kernel backend and return it.

    ``name`` follows :func:`resolve_backend_name` semantics; the returned
    (and subsequently :func:`get_backend`-served) backend is always a
    concrete one (``numpy`` or ``numba``), never ``auto``.
    """
    global _active_backend
    _active_backend = _load_backend(resolve_backend_name(name))
    return _active_backend


def get_backend() -> KernelBackend:
    """The active kernel backend, resolving env/auto selection on first use."""
    global _active_backend
    if _active_backend is None:
        _active_backend = _load_backend(resolve_backend_name(None))
    return _active_backend


def active_backend_name() -> str:
    """Name of the backend :func:`get_backend` serves (resolving lazily)."""
    return get_backend().name


__all__ = [
    "KERNEL_BACKEND_CHOICES",
    "KERNEL_BACKEND_ENV",
    "KernelBackend",
    "active_backend_name",
    "available_backends",
    "get_backend",
    "numba_available",
    "resolve_backend_name",
    "set_backend",
]
