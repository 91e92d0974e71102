"""The default pure-numpy kernel backend."""

from __future__ import annotations

import numpy as np

from ..model import normalized_flow_ll_fast


class NumpyBackend:
    """Numpy primitives over the engines' collapsed likelihood rows."""

    name = "numpy"

    def nll(self, b, w, s, es):
        return normalized_flow_ll_fast(b, w, s, es)

    def pair_delta(self, n_comps, comps, rows, cnt, weight, b, w, s, es, base):
        contrib = weight[rows] * (
            normalized_flow_ll_fast(b[rows] + cnt, w[rows], s[rows], es[rows])
            - base[rows]
        )
        return np.bincount(comps, weights=contrib, minlength=n_comps)

