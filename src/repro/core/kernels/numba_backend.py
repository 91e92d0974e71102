"""Optional numba backend: njit-compiled fused nll / pair-delta loops.

This module always imports; numba itself is optional.  When numba is
missing, :func:`make_numba_backend` raises :class:`InferenceError` with
an install hint, which the registry surfaces as "registered but not
available" — callers and tests skip it cleanly.

The scalar kernel mirrors :func:`repro.core.model.normalized_flow_ll_fast`
branch for branch (``b <= 0`` -> 0, ``b >= w`` -> ``s`` exactly,
overflowed ``es`` -> logaddexp).  numba's ``math.log`` (libm) may differ
from numpy's vectorized log in the last ulp, so the compiled backend
guarantees prediction-identical localization and ulp-level float
agreement, not bitwise float equality.
"""

from __future__ import annotations

import math

import numpy as np

from ...errors import InferenceError

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    njit = None
    HAVE_NUMBA = False


if HAVE_NUMBA:

    @njit(cache=True, fastmath=False)
    def _nll_scalar(b, w, s, es):
        if b >= w:
            return s
        if b <= 0.0:
            return 0.0
        x = ((w - b) + b * es) / w
        if x == np.inf:
            a1 = math.log((w - b) / w)
            a2 = math.log(b / w) + s
            if a1 < a2:
                a1, a2 = a2, a1
            return a1 + math.log1p(math.exp(a2 - a1))
        return math.log(x)

    @njit(cache=True, fastmath=False)
    def _nll_arr(b, w, s, es):
        n = b.shape[0]
        out = np.empty(n, dtype=np.float64)
        for i in range(n):
            out[i] = _nll_scalar(b[i], w[i], s[i], es[i])
        return out

    @njit(cache=True, fastmath=False)
    def _pair_delta(n_comps, comps, rows, cnt, weight, b, w, s, es, base):
        out = np.zeros(n_comps, dtype=np.float64)
        for k in range(comps.shape[0]):
            r = rows[k]
            v = _nll_scalar(b[r] + cnt[k], w[r], s[r], es[r])
            out[comps[k]] += weight[r] * (v - base[r])
        return out


class NumbaBackend:
    """Compiled inner loops over the engines' collapsed rows."""

    name = "numba"

    def nll(self, b, w, s, es):
        return _nll_arr(
            np.asarray(b, dtype=np.float64),
            np.asarray(w, dtype=np.float64),
            np.asarray(s, dtype=np.float64),
            np.asarray(es, dtype=np.float64),
        )

    def pair_delta(self, n_comps, comps, rows, cnt, weight, b, w, s, es, base):
        return _pair_delta(
            int(n_comps),
            np.asarray(comps, dtype=np.int64),
            np.asarray(rows, dtype=np.int64),
            np.asarray(cnt, dtype=np.float64),
            np.asarray(weight, dtype=np.float64),
            np.asarray(b, dtype=np.float64),
            np.asarray(w, dtype=np.float64),
            np.asarray(s, dtype=np.float64),
            np.asarray(es, dtype=np.float64),
            np.asarray(base, dtype=np.float64),
        )


def make_numba_backend() -> NumbaBackend:
    """Factory for the registry; raises when numba is not installed."""
    if not HAVE_NUMBA:
        raise InferenceError(
            "kernel backend 'numba' needs the numba package "
            "(pip install 'repro-flock[numba]'); "
            "the default --kernel-backend numpy needs no extra package"
        )
    return NumbaBackend()
