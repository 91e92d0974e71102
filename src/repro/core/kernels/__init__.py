"""Kernel backend registry for the localization hot loops.

The vectorized inference engines (:mod:`repro.core.flock_fast`) spend
essentially all of their time in two primitives:

``nll(b, w, s, es)``
    The elementwise normalized negative log-likelihood kernel — the
    vector form of :func:`repro.core.model.normalized_flow_ll_fast`.

``pair_delta(...)``
    The (row, comp) pair scatter at the heart of the Δ build and flip
    pricing: for every pair ``k``, accumulate
    ``W[row] * (nll(b[row] + cnt[k]) - base[row])`` into ``out[comp[k]]``.

A :class:`KernelBackend` bundles implementations of both.  The engines
always evaluate them over *collapsed likelihood rows*: flows sharing an
interior set and an observation bucket fold into one row with a summed
weight, so the nll working set is unique rows rather than flows.  Two
backends are registered:

``numpy``
    The default: numpy primitives over collapsed rows.

``numba``
    ``@njit``-compiled fused loops for both primitives.  Optional:
    registered always, constructible only when numba is importable, and
    skipped cleanly everywhere else.  Its ``math.log`` may differ from
    numpy's in the last ulp, so Δ floats agree with ``numpy`` to float
    tolerance; reported likelihoods are priced per flow by the engines
    and do not depend on the backend.

Selection order: explicit ``kernel_backend=`` argument, then the
``REPRO_KERNEL_BACKEND`` environment variable, then ``numpy``.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Protocol

import numpy as np

from ...errors import InferenceError

ENV_VAR = "REPRO_KERNEL_BACKEND"
DEFAULT_BACKEND = "numpy"


class KernelBackend(Protocol):
    """The two hot-loop primitives every backend must provide."""

    name: str

    def nll(
        self,
        b: np.ndarray,
        w: np.ndarray,
        s: np.ndarray,
        es: np.ndarray,
    ) -> np.ndarray:
        """Elementwise normalized nll for bad counts ``b``."""
        ...

    def pair_delta(
        self,
        n_comps: int,
        comps: np.ndarray,
        rows: np.ndarray,
        cnt: np.ndarray,
        weight: np.ndarray,
        b: np.ndarray,
        w: np.ndarray,
        s: np.ndarray,
        es: np.ndarray,
        base: np.ndarray,
    ) -> np.ndarray:
        """Scatter ``weight[row]*(nll(b[row]+cnt)-base[row])`` by comp.

        ``comps``/``rows``/``cnt`` are parallel pair arrays; the
        accumulation order is the input pair order (the same order
        ``np.bincount`` uses), so numpy and compiled backends agree.
        """
        ...


_REGISTRY: Dict[str, Callable[[], KernelBackend]] = {}
_INSTANCES: Dict[str, KernelBackend] = {}


def register_backend(name: str, factory: Callable[[], KernelBackend]) -> None:
    """Register a backend factory under ``name`` (last one wins)."""
    _REGISTRY[name] = factory
    _INSTANCES.pop(name, None)


def backend_names() -> List[str]:
    """All registered backend names, available or not."""
    return sorted(_REGISTRY)


def backend_available(name: str) -> bool:
    """Whether ``name`` is registered and constructible here."""
    if name not in _REGISTRY:
        return False
    try:
        _instance(name)
    except InferenceError:
        return False
    return True


def available_backend_names() -> List[str]:
    """Registered backends whose dependencies are importable."""
    return [name for name in backend_names() if backend_available(name)]


def _instance(name: str) -> KernelBackend:
    backend = _INSTANCES.get(name)
    if backend is None:
        backend = _REGISTRY[name]()
        _INSTANCES[name] = backend
    return backend


def resolve_backend(name: Optional[str] = None) -> KernelBackend:
    """Resolve a backend: explicit arg > ``REPRO_KERNEL_BACKEND`` > numpy."""
    if name is None:
        name = os.environ.get(ENV_VAR) or DEFAULT_BACKEND
    if name not in _REGISTRY:
        raise InferenceError(
            f"unknown kernel backend {name!r}; registered: "
            + ", ".join(backend_names())
        )
    return _instance(name)


from . import numpy_backend as _numpy_backend  # noqa: E402
from . import numba_backend as _numba_backend  # noqa: E402

register_backend("numpy", _numpy_backend.NumpyBackend)
register_backend("numba", _numba_backend.make_numba_backend)

__all__ = [
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "KernelBackend",
    "available_backend_names",
    "backend_available",
    "backend_names",
    "register_backend",
    "resolve_backend",
]
