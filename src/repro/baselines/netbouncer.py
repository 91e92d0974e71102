"""NetBouncer baseline (Tan et al., NSDI 2019) - Figure 5 of that paper.

NetBouncer solves for per-link *success* probabilities ``x_l`` from
per-path success ratios ``y_p`` by minimizing the regularized least
squares objective

    sum_p (y_p - prod_{l in p} x_l)^2  +  lam * sum_l x_l (1 - x_l)

via coordinate descent: fixing all other coordinates, the objective is a
quadratic in ``x_l`` with the closed-form minimizer

    x_l = ( sum_p y_p q_p - lam/2 ) / ( sum_p q_p^2 - lam ),
    q_p = prod_{l' in p, l' != l} x_{l'}

clipped to [0, 1].  The ``x(1-x)`` term pushes coordinates toward {0,1},
which is NetBouncer's noise-suppression trick.

A link is reported failed when its estimated drop rate ``1 - x_l``
exceeds ``drop_threshold``; a device is reported failed when at least a
``device_frac`` fraction of its observed links failed (the paper
calibrates "NetBouncer's threshold for the number of problematic flows
crossing a device" for the device-failure experiment).  Those three
knobs match the paper's "NetBouncer has 3 [parameters]".

Like 007, NetBouncer consumes exact-path flows only.

Implementation notes: flows aggregate into per-link-path success ratios
with whole-array passes over the problem CSRs, one row per distinct
sorted link tuple.  Before the first sweep, each link gets a plan built
once: its member paths' link-index gather, the positions of its own
entries in that gather, the ``reduceat`` offsets, the member ratios and
a ``(2, m+1)`` fold buffer.  A coordinate step then only gathers ``x``,
sets the own entries to an exact 1.0 factor, takes all path products
with one ``np.multiply.reduceat``, writes ``y*q`` and ``q*q`` behind the
``-lam/2`` and ``-lam`` seeds, and gets both sums from one in-place
``np.add.accumulate``.  ``accumulate`` is the strict left-to-right
recurrence of the historical per-path Python loops, so estimates match
them bit for bit.  The device rule walks the component indexes
(``comp -> paths``, ``comp -> flows``, endpoint columns) instead of the
object views, so factored problems never expand.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from ..core.problem import _expand_slices
from ..errors import InferenceError
from ..types import Prediction
from .base import exact_flow_components


class NetBouncer:
    """NetBouncer's regularized least-squares link estimator."""

    name = "netbouncer"

    def __init__(
        self,
        regularization: float = 0.005,
        drop_threshold: float = 3e-3,
        device_frac: float = 0.5,
        max_sweeps: int = 50,
        tol: float = 1e-9,
    ) -> None:
        if not (math.isfinite(regularization) and regularization >= 0.0):
            raise InferenceError(
                "regularization must be finite and non-negative"
            )
        if not 0.0 < drop_threshold < 1.0:
            raise InferenceError("drop_threshold must be in (0, 1)")
        if not 0.0 < device_frac <= 1.0:
            raise InferenceError("device_frac must be in (0, 1]")
        if isinstance(max_sweeps, bool) or not isinstance(max_sweeps, int):
            raise InferenceError("max_sweeps must be an int")
        if max_sweeps < 1:
            raise InferenceError("max_sweeps must be >= 1")
        if not (math.isfinite(tol) and tol >= 0.0):
            raise InferenceError("tol must be finite and non-negative")
        self._lam = regularization
        self._drop_threshold = drop_threshold
        self._device_frac = device_frac
        self._max_sweeps = max_sweeps
        self._tol = tol

    # ------------------------------------------------------------------
    def _aggregate(self, problem):
        """Group exact flows into per-(link-)path success ratios.

        Returns (paths as link tuples in first-seen order, y array).
        Flows of one problem set share their components, so grouping
        runs per distinct set and only merges sets whose link tuples
        coincide.
        """
        flows, comps, off = exact_flow_components(problem)
        if len(flows) == 0:
            return [], np.empty(0)
        sent = problem.packets_sent[flows]
        bad = problem.bad_packets[flows]
        wt = problem.weights[flows]
        local = np.repeat(np.arange(len(flows), dtype=np.int64), np.diff(off))
        link_rows = comps < problem.n_links
        l_local = local[link_rows]
        l_comp = comps[link_rows]
        lcounts = np.bincount(l_local, minlength=len(flows))
        loff = np.zeros(len(flows) + 1, dtype=np.int64)
        np.cumsum(lcounts, out=loff[1:])

        valid = (lcounts > 0) & (sent > 0)
        sets = problem._set_of_flow[flows]
        group_of_set: Dict[int, int] = {}
        group_index: Dict[Tuple[int, ...], int] = {}
        paths: List[Tuple[int, ...]] = []
        group_ids = np.full(len(flows), -1, dtype=np.int64)
        l_comp_list = l_comp.tolist()
        for i in np.nonzero(valid)[0].tolist():
            sid = int(sets[i])
            gid = group_of_set.get(sid)
            if gid is None:
                links = tuple(l_comp_list[loff[i]:loff[i + 1]])
                gid = group_index.get(links)
                if gid is None:
                    gid = len(paths)
                    group_index[links] = gid
                    paths.append(links)
                group_of_set[sid] = gid
            group_ids[i] = gid

        sel = group_ids >= 0
        good = np.bincount(
            group_ids[sel],
            weights=(wt * (sent - bad))[sel],
            minlength=len(paths),
        )
        total = np.bincount(
            group_ids[sel], weights=(wt * sent)[sel], minlength=len(paths)
        )
        return paths, good / total

    # ------------------------------------------------------------------
    def localize(self, problem) -> Prediction:
        paths, y = self._aggregate(problem)
        if not paths:
            return Prediction.empty()

        links = sorted({link for path in paths for link in path})
        link_index = {link: i for i, link in enumerate(links)}
        # Path -> link-index CSR (member order preserved).
        plen = np.fromiter(
            (len(p) for p in paths), dtype=np.int64, count=len(paths)
        )
        plo = np.zeros(len(paths) + 1, dtype=np.int64)
        np.cumsum(plen, out=plo[1:])
        pl_flat = np.fromiter(
            (link_index[l] for path in paths for l in path),
            dtype=np.int64,
            count=int(plo[-1]),
        )
        # link index -> member paths (ascending), via a stable sort.
        path_of = np.repeat(np.arange(len(paths), dtype=np.int64), plen)
        order = np.argsort(pl_flat, kind="stable")
        pol_vals = path_of[order]
        pol_bounds = np.searchsorted(
            pl_flat[order], np.arange(len(links) + 1, dtype=np.int64)
        )

        # Per-link plan, built once: the member paths' link gather, the
        # positions of the link's own entries in it, the reduceat
        # offsets, the member ratios, and a (2, m+1) fold buffer with
        # views of its two rows and of their term slots [1:].  Every
        # link lies on at least one path, so no member list is empty.
        plan = []
        for li in range(len(links)):
            members = pol_vals[pol_bounds[li]:pol_bounds[li + 1]]
            seg_lens = plen[members]
            flat = pl_flat[_expand_slices(plo[members], seg_lens)]
            starts = np.zeros(len(members), dtype=np.int64)
            np.cumsum(seg_lens[:-1], out=starts[1:])
            fold = np.empty((2, len(members) + 1))
            plan.append((
                li, flat, np.flatnonzero(flat == li), starts, y[members],
                fold, fold[0], fold[1], fold[0, 1:], fold[1, 1:],
            ))

        x = np.ones(len(links))
        lam = self._lam
        for _ in range(self._max_sweeps):
            max_move = 0.0
            for (li, flat, own, starts, ym,
                 fold, num_row, den_row, yq, qq) in plan:
                vals = x[flat]
                # The excluded coordinate reads as an exact 1.0 factor,
                # so the left-to-right product equals the skip-one loop.
                vals[own] = 1.0
                q = np.multiply.reduceat(vals, starts)
                # Row 0 folds -lam/2 + sum y*q and row 1 folds -lam +
                # sum q*q, each strictly left to right (the scalar order).
                num_row[0] = -lam / 2.0
                den_row[0] = -lam
                np.multiply(ym, q, out=yq)
                np.multiply(q, q, out=qq)
                np.add.accumulate(fold, axis=1, out=fold)
                num = float(num_row[-1])
                den = float(den_row[-1])
                if den > 1e-12:
                    new = min(1.0, max(0.0, num / den))
                elif den < -1e-12:
                    # Regularizer dominates: the quadratic is concave, so
                    # the minimum is at a boundary; pick the better one.
                    new = self._boundary_min(ym, q)
                else:
                    continue
                max_move = max(max_move, abs(new - x[li]))
                x[li] = new
            if max_move < self._tol:
                break

        drop = 1.0 - x
        failed_links = frozenset(
            links[i] for i in range(len(links)) if drop[i] > self._drop_threshold
        )

        predicted = set(failed_links)
        predicted |= self._failed_devices(problem, failed_links)
        scores = {links[i]: float(drop[i]) for i in range(len(links))}
        return Prediction(components=frozenset(predicted), scores=scores)

    def _boundary_min(self, ym: np.ndarray, q: np.ndarray) -> float:
        """Evaluate the per-coordinate objective at x_l in {0, 1}."""
        best_val = None
        best_x = 1.0
        for candidate in (0.0, 1.0):
            resid = ym - candidate * q
            # accumulate is the left-to-right scalar fold (a leading
            # 0.0 + t1 is exactly t1 for these non-negative terms).
            val = float(np.add.accumulate(resid * resid)[-1]) + (
                self._lam * candidate * (1.0 - candidate)
            )
            if best_val is None or val < best_val:
                best_val = val
                best_x = candidate
        return best_x

    def _failed_devices(self, problem, failed_links: frozenset) -> set:
        """Blame a device when enough of its observed links failed.

        A device's observed links are the links co-occurring with it on
        any path: its kernel paths' link comps plus the endpoint links
        of every set containing it (endpoint comps sit on all member
        paths, including the device-bearing ones).
        """
        out: set = set()
        n_links = problem.n_links
        for device in problem.observed_components:
            if device < n_links:
                continue
            dev_pids = problem.comp_path_ids(device)
            lens = np.diff(problem.path_off)[dev_pids]
            pcomps = problem.path_comps[
                _expand_slices(problem.path_off[dev_pids], lens)
            ]
            flows = problem.comp_flows(device)
            aff_sets = np.unique(problem._set_of_flow[flows])
            e_lens = np.diff(problem._set_eoff)[aff_sets]
            e_links = problem._set_ecomps[
                _expand_slices(problem._set_eoff[aff_sets], e_lens)
            ]
            observed = set(pcomps[pcomps < n_links].tolist())
            observed.update(e_links.tolist())
            if not observed:
                continue
            failed_here = observed & failed_links
            if len(failed_here) / len(observed) >= self._device_frac:
                out.add(device)
        return out
