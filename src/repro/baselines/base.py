"""Shared helpers for the non-PGM baselines.

007 and NetBouncer operate on exact-path flows only; this module gives
them a small, uniform view of those flows so each algorithm file stays
focused on its own math.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from ..core.problem import InferenceProblem, _expand_slices


@dataclass(frozen=True)
class ExactFlow:
    """One exact-path (grouped) flow: its components and counters."""

    components: Tuple[int, ...]
    bad_packets: int
    packets_sent: int
    weight: int


def exact_flow_components(
    problem: InferenceProblem,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columnar exact-flow view: (flow indices, comps, offsets).

    ``comps[off[i]:off[i+1]]`` holds the i-th exact flow's *full*
    sorted component ids, assembled straight from the problem CSRs
    (per-set endpoint comps merged with the single member path) - no
    object views, so factored problems never expand.
    """
    flows = problem.exact_flow_indices()
    if len(flows) == 0:
        return flows, np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    sets = problem._set_of_flow[flows]
    isets = problem._iset_of_set[sets]
    pids = problem._iset_raw_pids[problem._iset_raw_off[isets]]
    e_lens = np.diff(problem._set_eoff)[sets]
    p_lens = np.diff(problem.path_off)[pids]
    lens = e_lens + p_lens
    off = np.zeros(len(flows) + 1, dtype=np.int64)
    np.cumsum(lens, out=off[1:])
    n = np.int64(problem.n_components)
    local = np.arange(len(flows), dtype=np.int64)
    keys = np.concatenate([
        np.repeat(local, e_lens) * n
        + problem._set_ecomps[_expand_slices(problem._set_eoff[sets], e_lens)],
        np.repeat(local, p_lens) * n
        + problem.path_comps[_expand_slices(problem.path_off[pids], p_lens)],
    ])
    # Endpoint and interior comps are disjoint per flow, so the sort
    # yields each flow's full sorted projection.
    keys.sort()
    return flows, keys % n, off


def exact_flow_view(problem: InferenceProblem) -> Iterator[ExactFlow]:
    """Iterate the exact-path flows of a problem as :class:`ExactFlow`."""
    flows, comps, off = exact_flow_components(problem)
    comps_list = comps.tolist()
    for i, flow in enumerate(flows.tolist()):
        yield ExactFlow(
            components=tuple(comps_list[off[i]:off[i + 1]]),
            bad_packets=int(problem.bad_packets[flow]),
            packets_sent=int(problem.packets_sent[flow]),
            weight=int(problem.weights[flow]),
        )
