"""Tests for the NetBouncer coordinate-descent baseline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.base import exact_flow_view
from repro.baselines.netbouncer import NetBouncer
from repro.core.problem import InferenceProblem
from repro.errors import InferenceError
from repro.eval.spec import run_experiment
from repro.types import FlowObservation


def problem_from(observations, n_components=10, n_links=10):
    return InferenceProblem.from_observations(
        observations, n_components, n_links
    )


def oracle(problem, regularization, drop_threshold, device_frac,
           max_sweeps=50, tol=1e-9):
    """NetBouncer as plain per-path Python loops: (components, scores).

    Exact flows aggregate into ``good/total`` per sorted link tuple in
    first-seen order; every Gauss-Seidel step folds its two sums left
    to right from the ``-lam/2`` and ``-lam`` seeds and falls back to
    the better of ``{0, 1}`` (0 on a tie) when the quadratic is concave.
    """
    n_links = problem.n_links
    sums = {}
    for flow in exact_flow_view(problem):
        links = tuple(c for c in flow.components if c < n_links)
        if not links or flow.packets_sent <= 0:
            continue
        good, total = sums.setdefault(links, [0.0, 0.0])
        sums[links] = [
            good + float(flow.weight * (flow.packets_sent - flow.bad_packets)),
            total + float(flow.weight * flow.packets_sent),
        ]
    if not sums:
        return frozenset(), None
    paths = [(path, good / total) for path, (good, total) in sums.items()]

    lam = regularization
    x = {link: 1.0 for path, _ in paths for link in path}
    links = sorted(x)
    for _ in range(max_sweeps):
        max_move = 0.0
        for link in links:
            num, den, terms = -lam / 2.0, -lam, []
            for path, y in paths:
                if link not in path:
                    continue
                q = 1.0
                for other in path:
                    q *= 1.0 if other == link else x[other]
                num += y * q
                den += q * q
                terms.append((y, q))
            if den > 1e-12:
                new = min(1.0, max(0.0, num / den))
            elif den < -1e-12:
                best_x, best_val = 1.0, None
                for candidate in (0.0, 1.0):
                    val = 0.0
                    for y, q in terms:
                        resid = y - candidate * q
                        val += resid * resid
                    val += lam * candidate * (1.0 - candidate)
                    if best_val is None or val < best_val:
                        best_x, best_val = candidate, val
                new = best_x
            else:
                continue
            max_move = max(max_move, abs(new - x[link]))
            x[link] = new
        if max_move < tol:
            break

    scores = {link: 1.0 - x[link] for link in links}
    failed = {link for link in links if scores[link] > drop_threshold}
    components = set(failed)
    for device in problem.observed_components:
        if device < n_links:
            continue
        observed = set()
        for comps in problem.path_table:
            if device in comps:
                observed.update(c for c in comps if c < n_links)
        if observed and len(observed & failed) / len(observed) >= device_frac:
            components.add(device)
    return frozenset(components), scores


def fig2_netbouncer_calls(monkeypatch):
    """(localizer, problem, prediction) of every NetBouncer call of fig2."""
    calls = []
    localize = NetBouncer.localize

    def recording(self, problem):
        pred = localize(self, problem)
        calls.append((self, problem, pred))
        return pred

    monkeypatch.setattr(NetBouncer, "localize", recording)
    run_experiment("fig2", preset="tiny", seed=7)
    return calls


@st.composite
def exact_path_problems(draw):
    """Small random problems: mostly exact paths over 8 links + 2
    devices, with the odd two-path flow (ignored by the estimator, but
    its paths still count toward a device's observed links)."""
    n_links, n_comps = 8, 10
    observations = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        path_set = []
        for _ in range(draw(st.sampled_from((1, 1, 1, 2)))):
            comps = draw(st.lists(
                st.integers(min_value=0, max_value=n_comps - 1),
                min_size=1, max_size=4, unique=True,
            ))
            path_set.append(tuple(sorted(comps)))
        sent = draw(st.integers(min_value=0, max_value=500))
        bad = draw(st.integers(min_value=0, max_value=sent))
        observations.append(FlowObservation(tuple(path_set), sent, bad))
    return InferenceProblem.from_observations(observations, n_comps, n_links)


class TestScalarOracle:
    def test_fig2_tiny_matches_oracle_bit_for_bit(self, monkeypatch):
        calls = fig2_netbouncer_calls(monkeypatch)
        assert calls
        for localizer, problem, pred in calls:
            components, scores = oracle(
                problem,
                localizer._lam,
                localizer._drop_threshold,
                localizer._device_frac,
            )
            assert pred.scores == scores
            assert pred.components == components

    @given(
        problem=exact_path_problems(),
        regularization=st.sampled_from((0.0, 0.005, 0.5, 2.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_problems_match_oracle(self, problem, regularization):
        pred = NetBouncer(
            regularization=regularization, drop_threshold=1e-2
        ).localize(problem)
        components, scores = oracle(problem, regularization, 1e-2, 0.5)
        assert pred.scores == scores
        assert pred.components == components


class TestEstimation:
    def test_clean_links_estimated_healthy(self):
        observations = [
            FlowObservation(((0, 1),), 1000, 0),
            FlowObservation(((1, 2),), 1000, 0),
        ]
        pred = NetBouncer(regularization=0.0).localize(
            problem_from(observations)
        )
        assert pred.components == frozenset()
        for link in (0, 1, 2):
            assert pred.scores[link] == pytest.approx(0.0, abs=1e-6)

    def test_isolates_lossy_link(self):
        # Link 1 is shared by two lossy paths; links 0 and 2 also appear
        # on clean paths, so the solver must pin the loss on link 1.
        observations = [
            FlowObservation(((0, 1),), 10_000, 100),
            FlowObservation(((1, 2),), 10_000, 100),
            FlowObservation(((0,),), 10_000, 0),
            FlowObservation(((2,),), 10_000, 0),
        ]
        pred = NetBouncer(
            regularization=0.0, drop_threshold=5e-3
        ).localize(problem_from(observations))
        assert pred.components == frozenset({1})
        assert pred.scores[1] == pytest.approx(0.01, rel=0.15)

    def test_estimates_drop_rate_magnitude(self):
        observations = [FlowObservation(((4,),), 50_000, 250)]
        pred = NetBouncer(regularization=0.0, drop_threshold=1e-3).localize(
            problem_from(observations)
        )
        assert pred.scores[4] == pytest.approx(0.005, rel=0.1)

    def test_regularizer_denoises(self):
        # A single stray drop out of 2000 packets: the x(1-x) penalty
        # should snap the estimate to healthy.
        observations = [FlowObservation(((0,),), 2000, 1)]
        noisy = NetBouncer(regularization=0.0, drop_threshold=3e-4).localize(
            problem_from(observations)
        )
        snapped = NetBouncer(regularization=0.5, drop_threshold=3e-4).localize(
            problem_from(observations)
        )
        assert noisy.components == frozenset({0})
        assert snapped.components == frozenset()

    def test_ignores_pathset_flows(self):
        observations = [FlowObservation(((0,), (1,)), 100, 50)]
        pred = NetBouncer().localize(problem_from(observations))
        assert pred.components == frozenset()


class TestDeviceRule:
    def test_device_blamed_when_links_fail(self):
        # Links 0 and 1 both lossy; both paths cross device 5.
        observations = [
            FlowObservation(((0, 5),), 10_000, 100),
            FlowObservation(((1, 5),), 10_000, 100),
        ]
        pred = NetBouncer(
            regularization=0.0, drop_threshold=5e-3, device_frac=0.9
        ).localize(problem_from(observations, n_components=6, n_links=5))
        assert 5 in pred.components

    def test_device_spared_when_minority_fails(self):
        observations = [
            FlowObservation(((0, 5),), 10_000, 100),
            FlowObservation(((1, 5),), 10_000, 0),
            FlowObservation(((2, 5),), 10_000, 0),
        ]
        pred = NetBouncer(
            regularization=0.0, drop_threshold=5e-3, device_frac=0.5
        ).localize(problem_from(observations, n_components=6, n_links=5))
        assert 5 not in pred.components


class TestValidation:
    def test_invalid_params(self):
        with pytest.raises(InferenceError):
            NetBouncer(regularization=-1.0)
        with pytest.raises(InferenceError):
            NetBouncer(drop_threshold=0.0)
        with pytest.raises(InferenceError):
            NetBouncer(device_frac=0.0)
        with pytest.raises(InferenceError):
            NetBouncer(max_sweeps=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"regularization": float("nan")},
            {"regularization": float("inf")},
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"tol": -1e-9},
            {"max_sweeps": 2.5},
            {"max_sweeps": 3.0},
            {"max_sweeps": True},
        ],
        ids=repr,
    )
    def test_rejects_non_finite_and_non_int_params(self, kwargs):
        with pytest.raises(InferenceError):
            NetBouncer(**kwargs)

    def test_accepts_boundary_params(self):
        NetBouncer(regularization=0.0, tol=0.0, max_sweeps=1)

    def test_empty_problem(self):
        pred = NetBouncer().localize(problem_from([]))
        assert pred.components == frozenset()
