"""Vectorized inference kernels (NumPy CSR formulation).

The reference engine (:mod:`repro.core.jle`) walks Python dicts and is
the line-for-line transcription of Algorithm 2; everything here computes
the same quantities as flat-array passes, so that the Fig. 4c ablation
(Sherlock vs greedy-only vs JLE-only vs Flock) compares *algorithms*
rather than interpreter constant factors - all four arms share the CSR
substrate below, mirroring the paper's single C++ framework.

Shared structures (:class:`VectorArrays`), built on the problem's *set
layer*:

* ``path_comps``/``path_off`` - CSR of component ids per problem path
  (interior projections, plus full projections of exact-path flows);
* flows reference de-duplicated path sets; sets reference shared
  *interior sets* whose unique member paths carry an integer
  multiplicity column; per-set *endpoint components* sit on every
  member path of their set;
* ``comp -> flows``, ``comp -> paths`` and ``comp -> endpoint sets``
  inverted maps;
* *collapsed likelihood rows*: flows sharing an interior set and an
  observation bucket fold into one row with a summed weight (see
  :meth:`VectorArrays._build_collapsed_rows`).

The workhorse pattern: count (interior set, component) pairs over
*good* member paths, expand them to rows, and price each row's flip
term once through the kernel backend's ``pair_delta`` scatter.

Row layout depends on how a problem factors its sets: the object
pipeline (:meth:`~repro.core.problem.InferenceProblem
.from_observations`, the test oracle) builds the trivial factoring,
giving every set its own interior set, so Δ and the running ``ll`` of
a state differ from a :meth:`~repro.core.problem.InferenceProblem
.from_batch` problem's in the last ulps.  The floats a
:class:`~repro.types.Prediction` reports do not: every engine prices
its final hypothesis with :meth:`VectorArrays.hypothesis_ll` (a
per-flow pass in flow order, priors summed in component-id order), and
greedy scores are differences of two such pricings, so columnar and
object problems report bit-identical likelihoods.

Engines built on the substrate:

* :class:`VectorJleState` - JLE Δ array with involutive add/remove
  flips (drop-in for :class:`repro.core.jle.JleState`);
* :class:`VectorGreedyWithoutJle` - greedy search pricing every
  candidate individually each iteration (the "greedy only" arm), with
  array-level candidate pruning from a per-component gain upper bound;
* :meth:`VectorArrays.hypothesis_ll` - direct hypothesis pricing used
  by the plain-Sherlock arm and for every reported likelihood.
"""

from __future__ import annotations

from typing import Dict, Iterable, NamedTuple, Optional, Set, Tuple

import numpy as np

from ..errors import InferenceError
from ..types import Prediction
from .kernels import resolve_backend
from .model import evidence_exp, evidence_scores, normalized_flow_ll_fast
from .params import FlockParams
from .problem import InferenceProblem


from .problem import _expand_slices  # noqa: E402  (shared CSR helper)

#: Above this many (row x component) cells the pair-count kernel falls
#: back to sort-based counting instead of a dense bincount scratch.
_DENSE_CELLS_CAP = 1 << 23


def addition_upper_bounds(
    problem: InferenceProblem,
    params: FlockParams,
    s: Optional[np.ndarray] = None,
    wt: Optional[np.ndarray] = None,
    prior_gain: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-component upper bound on any addition gain.

    ``nll(b') - nll(b) <= max(0, s)`` for every flow, so adding ``c``
    to *any* hypothesis gains at most
    ``prior[c] + sum_{f in flows(c), s_f > 0} wt_f * s_f``.  A mixed
    absolute + relative slack absorbs float rounding (the bound and the
    exact gains accumulate in different summation orders), so pruning
    cannot drop a candidate unless its exact gain beats the incumbent
    by less than the slack - i.e. only float-tie-level outcomes can
    differ from an unpruned scan.  Computed straight off the problem
    arrays; the single definition serves the vector engines (which pass
    their precomputed ``s``/``wt``/``prior_gain``) and the
    reference-engine Sherlock recursion alike.
    """
    if s is None:
        s = evidence_scores(problem.bad_packets, problem.packets_sent, params)
    if wt is None:
        wt = problem.weights.astype(np.float64)
    pos = wt * np.maximum(s, 0.0)
    ub = np.bincount(
        problem._comp_flow_keys,
        weights=pos[problem._comp_flow_vals],
        minlength=problem.n_components,
    )
    if prior_gain is None:
        prior_gain = np.empty(problem.n_components)
        prior_gain[: problem.n_links] = params.link_prior_gain
        prior_gain[problem.n_links:] = params.device_prior_gain
    return ub + prior_gain + (1e-9 + 1e-12 * np.abs(ub))


def _count_sorted(
    keys: np.ndarray, weights: np.ndarray, dense_size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(sorted unique keys, per-key weight sums).

    The weight sums are exact small-integer floats, so the dense
    bincount fast path and the sort-based fallback return identical
    arrays - only their speed differs.
    """
    if len(keys) == 0:
        return keys, np.empty(0)
    if 0 < dense_size <= _DENSE_CELLS_CAP:
        dense = np.bincount(keys, weights=weights, minlength=dense_size)
        ukeys = np.nonzero(dense)[0]
        return ukeys, dense[ukeys]
    ukeys, inverse = np.unique(keys, return_inverse=True)
    return ukeys, np.bincount(inverse, weights=weights)


class VectorArrays:
    """Shared CSR arrays + likelihood vectors for one problem.

    ``kernel_backend`` selects a :mod:`repro.core.kernels` backend
    (explicit name > ``REPRO_KERNEL_BACKEND`` env var > ``numpy``) for
    the primitives evaluated over collapsed likelihood rows (see
    :meth:`_build_collapsed_rows`).
    """

    def __init__(
        self,
        problem: InferenceProblem,
        params: FlockParams,
        kernel_backend: Optional[str] = None,
    ) -> None:
        self.problem = problem
        self.params = params
        self.kernels = resolve_backend(kernel_backend)
        self.n_comps = problem.n_components

        self.s = evidence_scores(problem.bad_packets, problem.packets_sent, params)
        self._es = evidence_exp(self.s)
        self.wt = problem.weights.astype(np.float64)

        # The problem's primary representation already is the CSR this
        # engine wants - share the arrays instead of rebuilding them
        # from the object views.
        self.path_comps, self.path_off = problem.path_comps, problem.path_off
        self.path_len = np.diff(self.path_off)
        self.n_kernel_paths = len(self.path_off) - 1

        self.set_of_flow = problem._set_of_flow
        self.iset_of_set = problem._iset_of_set
        self.iset_upids = problem._iset_upids
        self.iset_umult = problem._iset_umult.astype(np.float64)
        self.iset_uoff = problem._iset_uoff
        self.iset_ulen = np.diff(self.iset_uoff)
        self.set_ecomps = problem._set_ecomps
        self.set_eoff = problem._set_eoff
        self.set_elen = np.diff(self.set_eoff)
        self.set_w = problem._set_w.astype(np.float64)
        self.n_sets = len(self.iset_of_set)

        self.w = self.set_w[self.set_of_flow]

        self.prior_gain = np.empty(self.n_comps)
        self.prior_gain[: problem.n_links] = params.link_prior_gain
        self.prior_gain[problem.n_links:] = params.device_prior_gain

        self.n_isets = len(self.iset_uoff) - 1
        self._build_collapsed_rows()

    def _build_collapsed_rows(self) -> None:
        """Collapse flows into unique (interior set, observation) rows.

        Two flows whose path sets share an interior set and whose
        observations land in the same (bad, sent) bucket see identical
        ``(w, s, es)`` and - whenever their sets have no failed
        endpoint component - identical failed-member counts ``b``, so
        they contribute the *same* nll value, scaled by weight.  The
        collapsed kernels therefore price unique rows once and weight
        by the summed flow weight:

        * ``_row_of_flow`` maps each flow to its row;
        * ``_row_iset`` is the row's interior set (rows sorted
          iset-major, which the pair expansion relies on);
        * ``_row_w/_row_s/_row_es`` are taken bitwise from the first
          flow of each row (they are pure functions of the row key).

        Flows whose set has a failed endpoint component are priced
        exactly (``b = w`` patches nll to ``s``), so they never need
        the row's shared ``b`` and the collapse stays exact.
        """
        n_flows = self.problem.n_flows
        if n_flows == 0 or self.n_sets == 0:
            self._row_of_flow = np.zeros(n_flows, dtype=np.int64)
            self._row_iset = np.empty(0, dtype=np.int64)
            self._row_w = np.empty(0)
            self._row_s = np.empty(0)
            self._row_es = np.empty(0)
            self.n_rows = 0
            return
        bad = self.problem.bad_packets.astype(np.int64)
        sent = self.problem.packets_sent.astype(np.int64)
        span = int(sent.max()) + 1
        _, bucket = np.unique(bad * span + sent, return_inverse=True)
        n_buckets = int(bucket.max()) + 1
        iset_of_flow = self.iset_of_set[self.set_of_flow]
        row_key = iset_of_flow * np.int64(n_buckets) + bucket
        urows, first, row_of_flow = np.unique(
            row_key, return_index=True, return_inverse=True
        )
        self._row_of_flow = row_of_flow.astype(np.int64)
        self._row_iset = (urows // n_buckets).astype(np.int64)
        self._row_w = self.w[first]
        self._row_s = self.s[first]
        self._row_es = self._es[first]
        self.n_rows = len(urows)

    def nll(self, b: np.ndarray, flow_idx: np.ndarray) -> np.ndarray:
        """Normalized flow ll for (global) flow indices, memoized exp(s)."""
        return normalized_flow_ll_fast(
            b, self.w[flow_idx], self.s[flow_idx], self._es[flow_idx]
        )

    def comp_flows(self, comp: int) -> np.ndarray:
        """Flows that can blame ``comp`` (empty array when unobserved)."""
        return self.problem.comp_flows(comp)

    def comp_paths(self, comp: int) -> np.ndarray:
        """Problem paths containing ``comp``."""
        return self.problem.comp_path_ids(comp)

    def comp_esets(self, comp: int) -> np.ndarray:
        """Sets carrying ``comp`` as an endpoint component."""
        return self.problem.comp_eset_ids(comp)

    # ------------------------------------------------------------------
    # Set-layer expansion primitives
    # ------------------------------------------------------------------
    def set_instances(
        self, sets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(local set index, unique member pid, multiplicity) triples."""
        isets = self.iset_of_set[sets]
        lengths = self.iset_ulen[isets]
        idx = _expand_slices(self.iset_uoff[isets], lengths)
        local = np.repeat(np.arange(len(sets), dtype=np.int64), lengths)
        return local, self.iset_upids[idx], self.iset_umult[idx]

    def _iset_instances(
        self, isets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(local iset index, unique member pid, multiplicity) triples."""
        lengths = self.iset_ulen[isets]
        idx = _expand_slices(self.iset_uoff[isets], lengths)
        il = np.repeat(np.arange(len(isets), dtype=np.int64), lengths)
        return il, self.iset_upids[idx], self.iset_umult[idx]

    def _iset_pair_lists(
        self,
        isets: np.ndarray,
        il: np.ndarray,
        upids: np.ndarray,
        mult: np.ndarray,
        good: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-interior-set (component, count) lists over good members.

        Counts weight by member multiplicity.  Endpoint components are
        left out: they sit on every member path of their *set* and are
        priced exactly by :meth:`_collapsed_delta`.  Returns (packed
        keys, counts) sorted by (iset local id, comp).
        """
        n_comps = np.int64(self.n_comps)
        gl = il[good]
        gp = upids[good]
        lens = self.path_len[gp]
        keys = np.repeat(gl, lens) * n_comps + self.path_comps[
            _expand_slices(self.path_off[gp], lens)
        ]
        wts = np.repeat(mult[good], lens)
        return _count_sorted(keys, wts, len(isets) * self.n_comps)

    def _pairs_to_rows(
        self,
        n_local_isets: int,
        row_iset_local: np.ndarray,
        keys: np.ndarray,
        cnts: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expand per-iset pair lists to row-major (row, comp, cnt)."""
        n_comps = np.int64(self.n_comps)
        bounds = np.searchsorted(
            keys, np.arange(n_local_isets + 1, dtype=np.int64) * n_comps
        )
        lens = np.diff(bounds)[row_iset_local]
        rl = np.repeat(np.arange(len(row_iset_local), dtype=np.int64), lens)
        idx = _expand_slices(bounds[row_iset_local], lens)
        return rl, (keys % n_comps)[idx], cnts[idx]

    def _collapsed_delta(
        self,
        flows: np.ndarray,
        weights: np.ndarray,
        aff_sets: np.ndarray,
        fsl: np.ndarray,
        e_failed: np.ndarray,
        aff_isets: np.ndarray,
        il: np.ndarray,
        upids: np.ndarray,
        mult: np.ndarray,
        good: np.ndarray,
        iset_b: np.ndarray,
    ) -> np.ndarray:
        """Δ contribution of weighted flows under an explicit state.

        The collapsed workhorse: the caller describes a structural
        state (per-instance good mask, per-iset failed-member count
        ``iset_b``, per-set endpoint-failed flags) and this prices the
        flip term ``w_f * (nll(b + g_c) - nll(b))`` once per unique
        likelihood row instead of once per flow.  Sets with a failed
        endpoint (``b = w``) or no good members contribute exactly
        zero, so their flows are dropped up front; endpoint components
        of surviving sets move the whole set to ``b = w``, priced
        exactly as ``w_f * (s - nll(b))`` with no log.
        """
        out = np.zeros(self.n_comps, dtype=np.float64)
        ii = np.searchsorted(aff_isets, self.iset_of_set[aff_sets])
        set_ok = ~e_failed & (self.set_w[aff_sets] - iset_b[ii] > 0)
        ok_f = set_ok[fsl]
        if not np.any(ok_f):
            return out
        sel = flows[ok_f]
        wsel = weights[ok_f]
        rsel, rinv = np.unique(self._row_of_flow[sel], return_inverse=True)
        W = np.bincount(rinv, weights=wsel, minlength=len(rsel))
        ril = np.searchsorted(aff_isets, self._row_iset[rsel])
        b_rows = iset_b[ril]
        w_rows = self._row_w[rsel]
        s_rows = self._row_s[rsel]
        es_rows = self._row_es[rsel]
        base = self.kernels.nll(b_rows, w_rows, s_rows, es_rows)
        keys, cnts = self._iset_pair_lists(aff_isets, il, upids, mult, good)
        if len(keys):
            rl, comps_u, cnt = self._pairs_to_rows(
                len(aff_isets), ril, keys, cnts
            )
            out += self.kernels.pair_delta(
                self.n_comps, comps_u, rl, cnt, W,
                b_rows, w_rows, s_rows, es_rows, base,
            )
        has_e = set_ok & (self.set_elen[aff_sets] > 0)
        if np.any(has_e):
            v = wsel * (self.s[sel] - base[rinv])
            sv = np.bincount(fsl[ok_f], weights=v, minlength=len(aff_sets))
            esel = np.nonzero(has_e)[0]
            elens = self.set_elen[aff_sets[esel]]
            eidx = _expand_slices(self.set_eoff[aff_sets[esel]], elens)
            out += np.bincount(
                self.set_ecomps[eidx],
                weights=np.repeat(sv[esel], elens),
                minlength=self.n_comps,
            )
        return out

    def affected_flows(self, comps: Iterable[int]) -> np.ndarray:
        arrays = [a for a in (self.comp_flows(c) for c in comps) if len(a)]
        if not arrays:
            return np.empty(0, dtype=np.int64)
        if len(arrays) == 1:
            return arrays[0]
        return np.unique(np.concatenate(arrays))

    def addition_upper_bounds(self) -> np.ndarray:
        """See the module-level :func:`addition_upper_bounds`."""
        return addition_upper_bounds(
            self.problem, self.params, self.s, self.wt, self.prior_gain
        )

    def hypothesis_ll(self, comps: Iterable[int], include_prior: bool = True) -> float:
        """Normalized log likelihood of a hypothesis, priced directly.

        This is the plain-Sherlock work unit: only flows intersecting
        the hypothesis contribute, each priced from its failed-path
        count.  Cost: O(member paths of affected sets + affected flows).

        Every reported likelihood goes through here, so the result is a
        function of the hypothesis *set* alone: flows are summed in flow
        order and priors in component-id order, whatever the argument
        order or the problem's row layout.
        """
        hyp = sorted(set(comps))
        total = 0.0
        if hyp:
            flows = self.affected_flows(hyp)
            if len(flows):
                aff_sets, fsl = np.unique(
                    self.set_of_flow[flows], return_inverse=True
                )
                local, upids, mult = self.set_instances(aff_sets)
                path_bad = np.zeros(self.n_kernel_paths, dtype=bool)
                e_bad = np.zeros(len(aff_sets), dtype=bool)
                for comp in hyp:
                    path_bad[self.comp_paths(comp)] = True
                    esets = self.comp_esets(comp)
                    if len(esets):
                        e_bad[np.searchsorted(aff_sets, esets)] = True
                inst_bad = path_bad[upids] | e_bad[local]
                b_set = np.bincount(
                    local, weights=mult * inst_bad, minlength=len(aff_sets)
                )
                b = b_set[fsl]
                lls = self.nll(b, flows)
                total = float(np.dot(self.wt[flows], lls))
        if include_prior:
            total += float(sum(self.prior_gain[c] for c in hyp))
        return total


class DeltaContrib(NamedTuple):
    """A flow group's priced Δ/ll contribution, replayable at expiry.

    A chunk's contribution depends only on its rows' intrinsic set
    structure (global component ids) and the hypothesis it was priced
    under, so when the same chunk expires with the hypothesis unchanged
    - the streaming steady state - the cached vector can be subtracted
    instead of re-priced.  ``hypothesis`` records the pricing context
    for the validity check.
    """

    delta: np.ndarray
    ll: float
    hypothesis: frozenset


class VectorJleState(VectorArrays):
    """Array-based JLE state; drop-in for :class:`repro.core.jle.JleState`.

    Supports both addition and removal flips (removals keep the Δ array
    consistent and are exact inverses of additions), so Sherlock's
    Algorithm-3 recursion can explore by flip/descend/unflip.
    """

    def __init__(
        self,
        problem: InferenceProblem,
        params: FlockParams,
        kernel_backend: Optional[str] = None,
    ) -> None:
        super().__init__(problem, params, kernel_backend)
        self._path_nfailed = np.zeros(self.n_kernel_paths, dtype=np.int64)
        self._set_e_nfailed = np.zeros(self.n_sets, dtype=np.int64)
        self._set_b = np.zeros(self.n_sets, dtype=np.int64)
        self.hypothesis: Set[int] = set()
        self.ll = 0.0
        self.flips = 0
        self.added_contrib: Optional[DeltaContrib] = None
        self.delta = self._initial_delta()

    @property
    def hypotheses_scanned(self) -> int:
        return (self.flips + 1) * self.problem.n_components

    # Compatibility views in object-path terms (tests and diagnostics;
    # the kernels maintain interior-path / set-level state instead).
    @property
    def flow_b(self) -> np.ndarray:
        """Failed-path count per flow (object-view semantics)."""
        return self._set_b[self.set_of_flow]

    @property
    def path_nfailed(self) -> np.ndarray:
        """Failed-component count per *full* path (object-view ids)."""
        hyp = self.hypothesis
        table = self.problem.path_table
        return np.fromiter(
            (sum(c in hyp for c in comps) for comps in table),
            dtype=np.int64,
            count=len(table),
        )

    @classmethod
    def rebase(
        cls,
        problem: InferenceProblem,
        prev: "VectorJleState",
        removed_flows: np.ndarray,
        removed_weights: np.ndarray,
        added_flows: np.ndarray,
        added_weights: np.ndarray,
        removed_contrib: Optional[DeltaContrib] = None,
    ) -> "VectorJleState":
        """Warm-start a state on a new sliding-window problem.

        Carries the previous window's hypothesis over and rebases Δ
        incrementally instead of re-running :meth:`_initial_delta`
        (the dominant cost of a cold state at scale):

        * structural state (failed-path / failed-member counts) is
          rebuilt under the carried hypothesis on the new problem's
          numbering - O(paths of H) scatter adds;
        * Δ is linear in group weight and each group's unit
          contribution depends only on its set structure in *global*
          component ids plus the hypothesis, so
          ``Δ_new = Δ_prev - contrib(expired groups on prev state)
          + contrib(appended groups on new state)`` is exact up to
          float summation order.

        ``removed_flows`` index ``prev.problem``'s grouped flows with
        the weight each lost; ``added_flows`` index ``problem``'s with
        the weight each gained (a :class:`repro.core.window
        .WindowUpdate` supplies exactly these).  The result converges
        to the same hypotheses as a cold state; only float rounding of
        Δ differs.

        ``removed_contrib`` may pass the :class:`DeltaContrib` the
        expiring chunk's rows were priced at when *they* were appended
        (exposed as :attr:`added_contrib` on the rebased state).  When
        its recorded hypothesis still matches ``prev``'s, the cached
        vector is bit-identical to re-pricing and is subtracted
        directly; a stale hint (the search moved the hypothesis in
        between) is ignored and the rows are re-priced.
        """
        self = cls.__new__(cls)
        VectorArrays.__init__(self, problem, prev.params, prev.kernels.name)
        self.hypothesis = set(prev.hypothesis)
        self.flips = prev.flips
        self._rebuild_structural()

        # The normalized ll is a weighted per-flow sum (plus a prior
        # term that doesn't change under rebase), so it moves by the
        # expired/appended groups' own contributions - priced by the
        # same pass that prices their Δ contributions.
        delta = prev.delta.copy()
        ll = prev.ll
        removed = np.asarray(removed_flows, dtype=np.int64)
        if len(removed):
            if (
                removed_contrib is not None
                and removed_contrib.hypothesis == prev.hypothesis
            ):
                delta -= removed_contrib.delta
                ll -= removed_contrib.ll
            else:
                contrib, base_ll = prev._delta_contrib(
                    removed, np.asarray(removed_weights, dtype=np.float64)
                )
                delta -= contrib
                ll -= base_ll
        added = np.asarray(added_flows, dtype=np.int64)
        self.added_contrib: Optional[DeltaContrib] = None
        if len(added):
            contrib, base_ll = self._delta_contrib(
                added, np.asarray(added_weights, dtype=np.float64)
            )
            delta += contrib
            ll += base_ll
            self.added_contrib = DeltaContrib(
                contrib, base_ll, frozenset(self.hypothesis)
            )
        self.delta = delta
        self.ll = ll
        return self

    def _rebuild_structural(self) -> None:
        """Rebuild the failed-path / failed-member count arrays under
        :attr:`hypothesis` on this state's problem numbering.

        The structural state is a pure function of the hypothesis and
        the problem's set structure - O(paths of H) scatter adds - so
        both :meth:`rebase` (new window numbering) and :meth:`restore`
        (checkpoint recovery) reconstruct it exactly rather than
        serializing it.
        """
        self._path_nfailed = np.zeros(self.n_kernel_paths, dtype=np.int64)
        self._set_e_nfailed = np.zeros(self.n_sets, dtype=np.int64)
        for comp in sorted(self.hypothesis):
            self._path_nfailed[self.comp_paths(comp)] += 1
            esets = self.comp_esets(comp)
            if len(esets):
                self._set_e_nfailed[esets] += 1
        if self.n_sets:
            n_isets = len(self.iset_uoff) - 1
            inst_iset = np.repeat(
                np.arange(n_isets, dtype=np.int64), self.iset_ulen
            )
            iset_b = np.bincount(
                inst_iset,
                weights=self.iset_umult * (self._path_nfailed[self.iset_upids] > 0),
                minlength=n_isets,
            )
            b = iset_b[self.iset_of_set]
            # A failed endpoint component fails every member path.
            full = self._set_e_nfailed > 0
            b[full] = self.set_w[full]
            self._set_b = b.astype(np.int64)
        else:
            self._set_b = np.zeros(0, dtype=np.int64)

    @classmethod
    def restore(
        cls,
        problem: InferenceProblem,
        params: FlockParams,
        hypothesis,
        delta: np.ndarray,
        ll: float,
        flips: int,
        kernel_backend: Optional[str] = None,
    ) -> "VectorJleState":
        """Reconstruct a warm state from checkpointed search facts.

        The serialized facts are exactly the non-recomputable ones:
        the hypothesis, the Δ array (float64, bit-exact), the
        normalized ll, and the flip count.  Structural counters are a
        pure function of hypothesis + problem and are rebuilt here, so
        a monitor restored onto a bit-identical window problem resumes
        localization exactly where the checkpointed one stopped.
        """
        self = cls.__new__(cls)
        VectorArrays.__init__(self, problem, params, kernel_backend)
        delta = np.array(delta, dtype=np.float64, copy=True)
        if delta.shape != (self.n_comps,):
            raise InferenceError(
                f"checkpointed delta has shape {delta.shape}, problem "
                f"has {self.n_comps} component(s) - the checkpoint does "
                "not match this window"
            )
        self.hypothesis = set(int(c) for c in hypothesis)
        self.flips = int(flips)
        self._rebuild_structural()
        self.delta = delta
        self.ll = float(ll)
        self.added_contrib = None
        return self

    def _delta_contrib(
        self, flows: np.ndarray, dw: np.ndarray
    ) -> Tuple[np.ndarray, float]:
        """(Δ contribution, ll contribution) of a weighted flow subset.

        Under the current structural state, flow ``f`` adds
        ``dw_f * (nll(b_f + g_fc) - nll(b_f))`` to Δ[c], where ``g_fc``
        counts ``f``'s still-good member paths containing ``c`` - the
        exact per-flow term the flip bookkeeping maintains, evaluated
        directly.  Contributions are linear in the group weight, which
        is what makes the sliding-window rebase exact: Δ and the
        normalized ll move by the weight deltas of expired/appended
        groups only.  The second return is ``sum(dw_f * nll(b_f))`` -
        the subset's share of the hypothesis ll under the carried
        hypothesis.
        """
        flows = np.asarray(flows, dtype=np.int64)
        if len(flows) == 0 or self.n_sets == 0:
            return np.zeros(self.n_comps, dtype=np.float64), 0.0
        aff_sets, fsl = np.unique(self.set_of_flow[flows], return_inverse=True)
        b = self._set_b[aff_sets][fsl].astype(np.float64)
        base_ll = float(np.dot(dw, self.nll(b, flows)))
        aff_isets = np.unique(self.iset_of_set[aff_sets])
        il, upids, mult = self._iset_instances(aff_isets)
        good = self._path_nfailed[upids] == 0
        iset_b = np.bincount(
            il, weights=mult * ~good, minlength=len(aff_isets)
        )
        e_failed = self._set_e_nfailed[aff_sets] > 0
        out = self._collapsed_delta(
            flows, dw, aff_sets, fsl, e_failed,
            aff_isets, il, upids, mult, good, iset_b,
        )
        return out, base_ll

    def _initial_delta(self) -> np.ndarray:
        flows = np.arange(self.problem.n_flows, dtype=np.int64)
        return self._delta_contrib(flows, self.wt)[0]

    # ------------------------------------------------------------------
    def addition_gains(self, candidates: np.ndarray) -> np.ndarray:
        gains = self.delta[candidates] + self.prior_gain[candidates]
        if self.hypothesis:
            member = np.fromiter(
                (c in self.hypothesis for c in candidates),
                dtype=bool,
                count=len(candidates),
            )
            gains[member] = -np.inf
        return gains

    def gain(self, comp: int) -> float:
        if comp in self.hypothesis:
            raise InferenceError(
                "gain() prices additions; for a member's removal gain "
                "use removal_gain()"
            )
        return float(self.delta[comp] + self.prior_gain[comp])

    def removal_gain(self, comp: int) -> float:
        """(data - prior) LL change of removing a member, priced
        without flipping - the Gibbs sampler's conditional for a
        component currently in the hypothesis.  Mirrors the reference
        engine's ``gain()`` for members: removal data delta minus the
        prior gain.

        Affected sets fall into three classes.  Sets that keep a failed
        endpoint after the removal stay at ``b = w`` (zero diff).  Sets
        whose only failed endpoint was ``comp`` move from exactly ``s``
        to the per-iset count (their interior members can't contain
        ``comp``: an endpoint component of a set never sits interior to
        that set's interior set).  Sets with no endpoint failure move
        between the with/without-``comp`` per-iset counts.
        """
        if comp not in self.hypothesis:
            raise InferenceError(f"component {comp} is not in the hypothesis")
        total = 0.0
        flows = self.comp_flows(comp)
        if len(flows):
            aff_sets, fsl = np.unique(
                self.set_of_flow[flows], return_inverse=True
            )
            aff_isets = np.unique(self.iset_of_set[aff_sets])
            il, upids, mult = self._iset_instances(aff_isets)
            path_has = np.zeros(self.n_kernel_paths, dtype=bool)
            path_has[self.comp_paths(comp)] = True
            has_i = path_has[upids]
            nf = self._path_nfailed[upids]
            ni = len(aff_isets)
            iset_b_cur = np.bincount(il, weights=mult * (nf > 0), minlength=ni)
            iset_b_minus = np.bincount(
                il, weights=mult * ((nf - has_i) > 0), minlength=ni
            )
            e_cur = self._set_e_nfailed[aff_sets]
            e_is = np.zeros(len(aff_sets), dtype=np.int64)
            esets = self.comp_esets(comp)
            if len(esets):
                e_is[np.searchsorted(aff_sets, esets)] = 1
            active = (e_cur - e_is) == 0
            wt = self.wt[flows]
            for case_mask, old_is_full in (
                (active & (e_cur > 0), True),
                (active & (e_cur == 0), False),
            ):
                fmask = case_mask[fsl]
                if not np.any(fmask):
                    continue
                sel = flows[fmask]
                rsel, rinv = np.unique(
                    self._row_of_flow[sel], return_inverse=True
                )
                W = np.bincount(rinv, weights=wt[fmask], minlength=len(rsel))
                ril = np.searchsorted(aff_isets, self._row_iset[rsel])
                w_r = self._row_w[rsel]
                s_r = self._row_s[rsel]
                es_r = self._row_es[rsel]
                nll_new = self.kernels.nll(iset_b_minus[ril], w_r, s_r, es_r)
                if old_is_full:
                    nll_old = s_r
                else:
                    nll_old = self.kernels.nll(iset_b_cur[ril], w_r, s_r, es_r)
                total += float(np.dot(W, nll_new - nll_old))
        return total - float(self.prior_gain[comp])

    # ------------------------------------------------------------------
    def flip(self, comp: int) -> float:
        """Flip ``comp``; returns the (data + prior) LL change."""
        if not 0 <= comp < self.n_comps:
            raise InferenceError(f"component id {comp} out of range")
        adding = comp not in self.hypothesis
        if adding:
            change = float(self.delta[comp] + self.prior_gain[comp])

        affected = self.comp_flows(comp)
        paths_of_comp = self.comp_paths(comp)
        esets_of_comp = self.comp_esets(comp)
        step = 1 if adding else -1
        if len(affected) > 0:
            aff_sets, fsl = np.unique(
                self.set_of_flow[affected], return_inverse=True
            )
            aff_isets = np.unique(self.iset_of_set[aff_sets])
            il, upids, mult = self._iset_instances(aff_isets)
            path_has = np.zeros(self.n_kernel_paths, dtype=bool)
            path_has[paths_of_comp] = True
            has_i = path_has[upids]
            nf_old = self._path_nfailed[upids]
            good_old = nf_old == 0
            good_new = (nf_old + step * has_i) == 0
            ni = len(aff_isets)
            iset_b_old = np.bincount(
                il, weights=mult * ~good_old, minlength=ni
            )
            iset_b_new = np.bincount(
                il, weights=mult * ~good_new, minlength=ni
            )
            e_old = self._set_e_nfailed[aff_sets]
            e_is = np.zeros(len(aff_sets), dtype=np.int64)
            if len(esets_of_comp):
                e_is[np.searchsorted(aff_sets, esets_of_comp)] = 1
            e_new = e_old + step * e_is
            wt = self.wt[affected]
            self.delta -= self._collapsed_delta(
                affected, wt, aff_sets, fsl, e_old > 0,
                aff_isets, il, upids, mult, good_old, iset_b_old,
            )
            self.delta += self._collapsed_delta(
                affected, wt, aff_sets, fsl, e_new > 0,
                aff_isets, il, upids, mult, good_new, iset_b_new,
            )
            ii = np.searchsorted(aff_isets, self.iset_of_set[aff_sets])
            b_new_set = np.where(
                e_new > 0, self.set_w[aff_sets], iset_b_new[ii]
            )
            self._set_b[aff_sets] = b_new_set.astype(np.int64)

        self._path_nfailed[paths_of_comp] += step
        if len(esets_of_comp):
            self._set_e_nfailed[esets_of_comp] += step
        if adding:
            self.hypothesis.add(comp)
        else:
            self.hypothesis.discard(comp)
            change = -float(self.delta[comp] + self.prior_gain[comp])
        self.ll += change
        self.flips += 1
        return change


def greedy_local_search(
    state: VectorJleState,
    candidates: np.ndarray,
    max_failures: Optional[int] = None,
    min_gain: float = 0.0,
) -> Prediction:
    """Greedy local search from a (possibly warm) JLE state.

    Extends the paper's add-only greedy loop with removals so a
    warm-started hypothesis can shed components the new window no
    longer supports: each step flips whichever single addition or
    removal improves the LL most, and stops when no flip beats
    ``min_gain``.  From an empty state this reduces exactly to the
    add-only loop (a just-added component's removal gain is its
    addition gain negated, so removals never fire without new
    evidence).  An iteration guard bounds pathological flip cycles.

    Like every engine here, it reports the per-flow pricing of
    :meth:`VectorArrays.hypothesis_ll`, not the running ``state.ll``:
    an added component's score is the change of that pricing across
    its flip.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    scores: Dict[int, float] = {}
    ll = state.hypothesis_ll(state.hypothesis)
    cap = max_failures
    if cap is None:
        cap = len(candidates) + len(state.hypothesis)
    guard = 2 * (len(candidates) + len(state.hypothesis)) + 16
    for _ in range(guard):
        best_comp = -1
        best_gain = min_gain
        removing = False
        if len(candidates) and len(state.hypothesis) < cap:
            gains = state.addition_gains(candidates)
            idx = int(np.argmax(gains))
            if float(gains[idx]) > best_gain:
                best_gain = float(gains[idx])
                best_comp = int(candidates[idx])
        for comp in sorted(state.hypothesis):
            gain = state.removal_gain(comp)
            if gain > best_gain:
                best_gain = gain
                best_comp = comp
                removing = True
        if best_comp < 0:
            break
        state.flip(best_comp)
        new_ll = state.hypothesis_ll(state.hypothesis)
        if removing:
            scores.pop(best_comp, None)
        else:
            scores[best_comp] = new_ll - ll
        ll = new_ll
    return Prediction(
        components=frozenset(state.hypothesis),
        scores=scores,
        log_likelihood=ll,
        hypotheses_scanned=state.hypotheses_scanned,
    )


class VectorGreedyWithoutJle(VectorArrays):
    """Greedy search pricing every candidate from scratch each iteration
    (the "greedy only" ablation arm, on the shared vector substrate).

    Candidates are pruned with the :meth:`VectorArrays
    .addition_upper_bounds` array: a component whose bound cannot beat
    the running best gain is skipped without pricing, which leaves the
    selected hypothesis unchanged (the bound over-estimates)."""

    name = "flock-greedy-only"

    def __init__(
        self,
        problem: InferenceProblem,
        params: FlockParams,
        max_failures: Optional[int] = None,
        kernel_backend: Optional[str] = None,
    ) -> None:
        super().__init__(problem, params, kernel_backend)
        self._path_nfailed = np.zeros(self.n_kernel_paths, dtype=np.int64)
        self._set_e_nfailed = np.zeros(self.n_sets, dtype=np.int64)
        self._set_b = np.zeros(self.n_sets, dtype=np.int64)
        self.hypothesis: Set[int] = set()
        self._cap = max_failures

    def _newly_bad_counts(
        self, comp: int, flows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(affected sets, per-set newly-failed count, flow set index)."""
        aff_sets, fsl = np.unique(self.set_of_flow[flows], return_inverse=True)
        local, upids, mult = self.set_instances(aff_sets)
        path_has = np.zeros(self.n_kernel_paths, dtype=bool)
        path_has[self.comp_paths(comp)] = True
        has = path_has[upids]
        esets = self.comp_esets(comp)
        if len(esets):
            e_has = np.zeros(len(aff_sets), dtype=bool)
            e_has[np.searchsorted(aff_sets, esets)] = True
            has = has | e_has[local]
        nf = self._path_nfailed[upids] + self._set_e_nfailed[aff_sets][local]
        newly_bad = has & (nf == 0)
        extra_set = np.bincount(
            local, weights=mult * newly_bad, minlength=len(aff_sets)
        )
        return aff_sets, extra_set, fsl

    def candidate_gain(self, comp: int) -> float:
        """LL(H + comp) - LL(H), recomputed over flows(comp).

        Sets already at ``b = w`` via a failed endpoint are unmoved;
        sets gaining ``comp`` as a failed endpoint jump to exactly
        ``s``; the rest move between the per-iset counts with and
        without ``comp``'s member paths failed.
        """
        flows = self.comp_flows(comp)
        if not len(flows):
            return float(self.prior_gain[comp])
        aff_sets, fsl = np.unique(self.set_of_flow[flows], return_inverse=True)
        aff_isets = np.unique(self.iset_of_set[aff_sets])
        il, upids, mult = self._iset_instances(aff_isets)
        path_has = np.zeros(self.n_kernel_paths, dtype=bool)
        path_has[self.comp_paths(comp)] = True
        has_i = path_has[upids]
        nf = self._path_nfailed[upids]
        ni = len(aff_isets)
        iset_b_cur = np.bincount(il, weights=mult * (nf > 0), minlength=ni)
        iset_b_plus = np.bincount(
            il, weights=mult * ((nf + has_i) > 0), minlength=ni
        )
        e_cur = self._set_e_nfailed[aff_sets]
        e_is = np.zeros(len(aff_sets), dtype=bool)
        esets = self.comp_esets(comp)
        if len(esets):
            e_is[np.searchsorted(aff_sets, esets)] = True
        active = e_cur == 0
        wt = self.wt[flows]
        total = 0.0
        for case_mask, new_is_full in (
            (active & e_is, True),
            (active & ~e_is, False),
        ):
            fmask = case_mask[fsl]
            if not np.any(fmask):
                continue
            sel = flows[fmask]
            rsel, rinv = np.unique(self._row_of_flow[sel], return_inverse=True)
            W = np.bincount(rinv, weights=wt[fmask], minlength=len(rsel))
            ril = np.searchsorted(aff_isets, self._row_iset[rsel])
            w_r = self._row_w[rsel]
            s_r = self._row_s[rsel]
            es_r = self._row_es[rsel]
            nll_old = self.kernels.nll(iset_b_cur[ril], w_r, s_r, es_r)
            if new_is_full:
                nll_new = s_r
            else:
                nll_new = self.kernels.nll(iset_b_plus[ril], w_r, s_r, es_r)
            total += float(np.dot(W, nll_new - nll_old))
        return total + float(self.prior_gain[comp])

    def commit(self, comp: int) -> None:
        flows = self.comp_flows(comp)
        if len(flows):
            aff_sets, extra_set, _ = self._newly_bad_counts(comp, flows)
            self._set_b[aff_sets] += extra_set.astype(np.int64)
        self._path_nfailed[self.comp_paths(comp)] += 1
        esets = self.comp_esets(comp)
        if len(esets):
            self._set_e_nfailed[esets] += 1
        self.hypothesis.add(comp)

    def run(self) -> Prediction:
        candidates = list(self.problem.observed_components)
        cap = self._cap if self._cap is not None else len(candidates)
        ub = self.addition_upper_bounds()
        scanned = 0
        scores: Dict[int, float] = {}
        ll = 0.0
        while len(self.hypothesis) < cap:
            best_comp = -1
            best_gain = 0.0
            for comp in candidates:
                if comp in self.hypothesis:
                    continue
                if ub[comp] <= best_gain:
                    # The bound caps the exact gain, so this candidate
                    # cannot strictly beat the current best.
                    continue
                scanned += 1
                gain = self.candidate_gain(comp)
                if gain > best_gain:
                    best_gain = gain
                    best_comp = comp
            if best_comp < 0:
                break
            self.commit(best_comp)
            new_ll = self.hypothesis_ll(self.hypothesis)
            scores[best_comp] = new_ll - ll
            ll = new_ll
        return Prediction(
            components=frozenset(self.hypothesis),
            scores=scores,
            log_likelihood=ll,
            hypotheses_scanned=scanned,
        )
