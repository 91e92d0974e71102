"""Kernel backend registry, collapsed-row structure, and the vector
engines against the object oracle.

The raw-speed tier (``repro.core.kernels``) must change *where* the
likelihood arithmetic runs, never *what* it computes.  The vector
engines price collapsed likelihood rows, which re-orders float
accumulation relative to the object engines (``JleState``,
``GreedyWithoutJle``, ``LikelihoodModel`` and every scheme's
``engine="reference"``), so Δ and gains are compared to tight
tolerances while predictions and the structural per-flow failed-path
counts are compared exactly - on every registered scenario, with or
without numba.  The optional ``numba`` backend runs the same sweep and
is compared with ``numpy`` where it is installed; elsewhere it skips.

Prediction-identity holds up to exact ties: a problem with two
hypotheses at bitwise-equal likelihood (ECMP sibling links the
telemetry cannot distinguish) breaks the tie on rounding noise, so a
differently-ordered engine may pick the symmetric twin.  The
registered scenario x seed grid below contains no such tie.
"""

import numpy as np
import pytest

from helpers import records_only
from repro.core import kernels
from repro.core.flock_fast import (
    VectorArrays,
    VectorGreedyWithoutJle,
    VectorJleState,
)
from repro.core.flock import FlockInference
from repro.core.greedy_nojle import GreedyWithoutJle
from repro.core.jle import JleState
from repro.core.model import LikelihoodModel
from repro.core.params import DEFAULT_PER_PACKET
from repro.errors import InferenceError
from repro.eval.experiments import standard_topology
from repro.eval.harness import build_problem
from repro.eval.scenarios import make_trace
from repro.eval.schemes import build_localizer, make_setup
from repro.routing import EcmpRouting, PathSpace
from repro.simulation import FlowLevelSimulator, SilentLinkDrops
from repro.simulation.failures import make_scenario, scenario_names
from repro.telemetry import TelemetryConfig
from repro.traffic import SpecBatch, UniformTraffic, generate_passive_flows

#: Every registered backend; each is checked against the object oracle.
BACKENDS = kernels.backend_names()

#: Registered schemes that run on the vectorized kernel tier.
KERNEL_SCHEMES = ["flock", "flock-greedy", "sherlock", "sherlock-jle"]


def _require(backend: str) -> None:
    if not kernels.backend_available(backend):
        pytest.skip(f"kernel backend {backend!r} not available here")


@pytest.fixture(scope="module")
def tiny_world():
    topo = standard_topology("tiny")
    return topo, EcmpRouting(topo)


def _make_problem(tiny_world, scenario_name, seed=7, oracle=False):
    """The columnar problem of a scenario trace, or with ``oracle`` the
    object pipeline's problem of the same trace."""
    topo, routing = tiny_world
    trace = make_trace(
        topo, routing, make_scenario(scenario_name), seed=seed,
        n_passive=1_200, n_probes=200,
    )
    if oracle:
        trace = records_only(trace)
    return build_problem(trace, TelemetryConfig.from_spec("A1+A2+P"))


def _assert_state_matches_oracle(vec: VectorJleState, ref: JleState):
    assert vec.hypothesis == ref.hypothesis
    assert np.array_equal(vec.flow_b, np.asarray(ref.flow_b))
    np.testing.assert_allclose(vec.delta, ref.delta, rtol=1e-8, atol=1e-8)
    assert vec.ll == pytest.approx(ref.ll, rel=1e-9, abs=1e-9)


# --- registry ---------------------------------------------------------

def test_registry_contents():
    assert kernels.backend_names() == ["numba", "numpy"]
    assert kernels.DEFAULT_BACKEND == "numpy"
    assert kernels.backend_available("numpy")
    assert "numpy" in kernels.available_backend_names()


def test_unknown_backend_rejected(tiny_world):
    with pytest.raises(InferenceError, match="registered"):
        kernels.resolve_backend("warp-drive")
    # The collapsed layout is the only layout; its old name is gone.
    with pytest.raises(InferenceError, match="registered: numba, numpy"):
        kernels.resolve_backend("collapsed")
    # Engines validate at construction, not first localize.
    with pytest.raises(InferenceError, match="registered"):
        FlockInference(DEFAULT_PER_PACKET, kernel_backend="warp-drive")
    with pytest.raises(InferenceError, match="registered"):
        build_localizer("flock", kernel_backend="warp-drive")


def test_env_var_selects_backend(tiny_world, monkeypatch):
    problem = _make_problem(tiny_world, "no-failure")
    monkeypatch.setenv(kernels.ENV_VAR, "warp-drive")
    with pytest.raises(InferenceError, match="warp-drive"):
        VectorArrays(problem, DEFAULT_PER_PACKET)
    # The explicit argument outranks the environment.
    arrays = VectorArrays(problem, DEFAULT_PER_PACKET, kernel_backend="numpy")
    assert arrays.kernels.name == "numpy"
    monkeypatch.setenv(kernels.ENV_VAR, "numpy")
    assert VectorArrays(problem, DEFAULT_PER_PACKET).kernels.name == "numpy"
    monkeypatch.delenv(kernels.ENV_VAR)
    arrays = VectorArrays(problem, DEFAULT_PER_PACKET)
    assert arrays.kernels.name == kernels.DEFAULT_BACKEND == "numpy"


def test_numba_missing_raises_install_hint():
    if kernels.backend_available("numba"):
        pytest.skip("numba installed here; the miss path is not reachable")
    assert "numba" in kernels.backend_names()
    assert "numba" not in kernels.available_backend_names()
    with pytest.raises(InferenceError, match=r"repro-flock\[numba\]"):
        kernels.resolve_backend("numba")


# --- collapsed-row structure ------------------------------------------

@pytest.mark.parametrize("scenario_name", scenario_names())
def test_collapsed_row_invariants(tiny_world, scenario_name):
    """Every flow must match its row header *bitwise*: (w, s, es) are
    pure functions of the (interior set, observation bucket) key, so a
    singleton row and a thousand-flow row obey the same check."""
    problem = _make_problem(tiny_world, scenario_name)
    va = VectorArrays(problem, DEFAULT_PER_PACKET)
    assert va.n_rows <= problem.n_flows
    rof = va._row_of_flow
    iset_of_flow = va.iset_of_set[va.set_of_flow]
    assert np.array_equal(va._row_iset[rof], iset_of_flow)
    # Rows are iset-major sorted (the pair expansion relies on it).
    assert np.all(np.diff(va._row_iset) >= 0)
    # Bitwise header agreement for every member flow, not just the first.
    assert np.array_equal(va._row_w[rof], va.w)
    assert np.array_equal(va._row_s[rof], va.s)
    assert np.array_equal(va._row_es[rof], va._es)
    # Two flows in one row share the observation bucket exactly.
    bad = problem.bad_packets
    sent = problem.packets_sent
    order = np.argsort(rof, kind="stable")
    same_row = np.diff(rof[order]) == 0
    assert np.array_equal(bad[order][1:][same_row], bad[order][:-1][same_row])
    assert np.array_equal(sent[order][1:][same_row], sent[order][:-1][same_row])


def test_collapse_shrinks_identical_buckets(tiny_world):
    """A no-failure trace (every observation lands in the zero-bad
    bucket family) collapses below one row per flow: the columnar
    build is already weight-deduped per (set, observation), and
    collapsing still merges rows across sets that share an interior
    set and a bucket."""
    col = _make_problem(tiny_world, "no-failure")
    va_c = VectorArrays(col, DEFAULT_PER_PACKET)
    assert va_c.n_rows < col.n_flows
    # The object pipeline factors every set trivially (one interior
    # set per set), so every row is a singleton there: the collapse
    # degenerates to the identity and must still price correctly
    # (test_columnar_and_object_collapse_agree).
    obj = _make_problem(tiny_world, "no-failure", oracle=True)
    va_o = VectorArrays(obj, DEFAULT_PER_PACKET)
    assert va_o.n_rows == obj.n_flows
    assert va_c.n_rows < va_o.n_rows


def test_collapsed_rows_tiny_trace(tiny_world):
    """A near-degenerate trace (few flows, mostly singleton rows) runs
    the same oracle comparison the big sweep checks."""
    topo, routing = tiny_world
    trace = make_trace(
        topo, routing, make_scenario("silent-link-drops"), seed=5,
        n_passive=50, n_probes=10,
    )
    problem = build_problem(trace, TelemetryConfig.from_spec("A1+A2+P"))
    ref = JleState(problem, DEFAULT_PER_PACKET)
    vec = VectorJleState(problem, DEFAULT_PER_PACKET)
    np.testing.assert_allclose(vec.delta, ref.delta, rtol=1e-9, atol=1e-9)
    comp = int(np.argmax(ref.delta))
    ref.flip(comp)
    vec.flip(comp)
    _assert_state_matches_oracle(vec, ref)


# --- vector engines against the object oracle -------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scenario_name", scenario_names())
def test_state_equivalence(tiny_world, scenario_name, backend):
    """Initial Δ, greedy flips, removal gains and hypothesis_ll agree
    with the object engines; per-flow failed-path counts are exact."""
    _require(backend)
    problem = _make_problem(tiny_world, scenario_name)
    ref = JleState(problem, DEFAULT_PER_PACKET)
    vec = VectorJleState(problem, DEFAULT_PER_PACKET, kernel_backend=backend)
    np.testing.assert_allclose(vec.delta, ref.delta, rtol=1e-9, atol=1e-9)

    for _ in range(4):
        comp = int(np.argmax(ref.delta))
        ref.flip(comp)
        vec.flip(comp)
        _assert_state_matches_oracle(vec, ref)

    for comp in sorted(ref.hypothesis):
        assert vec.removal_gain(comp) == pytest.approx(
            ref.gain(comp), rel=1e-7, abs=1e-7
        )
    hyp = sorted(ref.hypothesis)
    model = LikelihoodModel(problem, DEFAULT_PER_PACKET)
    assert vec.hypothesis_ll(hyp) == pytest.approx(
        model.log_likelihood(hyp), rel=1e-7, abs=1e-7
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scenario_name", scenario_names())
def test_greedy_without_jle_equivalence(tiny_world, scenario_name, backend):
    """The non-JLE greedy (candidate_gain path) localizes like the
    object greedy-only engine."""
    _require(backend)
    problem = _make_problem(tiny_world, scenario_name)
    ref = GreedyWithoutJle(DEFAULT_PER_PACKET).localize(problem)
    vec = VectorGreedyWithoutJle(
        problem, DEFAULT_PER_PACKET, kernel_backend=backend
    ).run()
    assert vec.components == ref.components
    assert vec.log_likelihood == pytest.approx(
        ref.log_likelihood, rel=1e-9, abs=1e-9
    )


@pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
@pytest.mark.parametrize("scenario_name", scenario_names())
def test_scheme_predictions_match_across_backends(
    tiny_world, scenario_name, scheme
):
    """Every kernel scheme predicts what its ``engine="reference"``
    object engine predicts (scores and log-likelihood to float
    tolerance), and every other installed backend reports exactly what
    ``numpy`` reports: reported floats are priced per flow."""
    topo, routing = tiny_world
    trace = make_trace(
        topo, routing, make_scenario(scenario_name), seed=7,
        n_passive=1_200, n_probes=200,
    )
    setup = make_setup(scheme)
    problem = build_problem(trace, setup.telemetry)
    reference = build_localizer(scheme, engine="reference").localize(problem)
    pred = build_localizer(scheme).localize(problem)
    assert pred.components == reference.components
    assert pred.log_likelihood == pytest.approx(
        reference.log_likelihood, rel=1e-7, abs=1e-7
    )
    if reference.scores is None:
        assert pred.scores is None
    else:
        assert set(pred.scores) == set(reference.scores)
        for comp, score in pred.scores.items():
            assert score == pytest.approx(
                reference.scores[comp], rel=1e-7, abs=1e-7
            )
    for backend in kernels.available_backend_names():
        other = build_localizer(scheme, kernel_backend=backend).localize(
            problem
        )
        assert other.components == pred.components
        assert other.scores == pred.scores
        assert other.log_likelihood == pred.log_likelihood


@pytest.mark.parametrize("backend", BACKENDS)
def test_columnar_and_object_collapse_agree(tiny_world, backend):
    """Collapsed rows differ between the columnar build and the object
    pipeline's trivial factoring, yet both localize identically and
    report bit-identical floats, on every registered scenario."""
    _require(backend)
    localizer = build_localizer("flock", kernel_backend=backend)
    for scenario_name in scenario_names():
        columnar = _make_problem(tiny_world, scenario_name)
        oracle = _make_problem(tiny_world, scenario_name, oracle=True)
        reference = build_localizer("flock").localize(columnar)
        for problem in (columnar, oracle):
            pred = localizer.localize(problem)
            assert pred.components == reference.components
            assert pred.scores == reference.scores
            assert pred.log_likelihood == reference.log_likelihood


# --- vectorized simulator RNG -----------------------------------------

def _spec_batch(tiny_world, seed, n_flows=800):
    topo, routing = tiny_world
    rng = np.random.default_rng(seed)
    injection = SilentLinkDrops(n_failures=2, min_rate=4e-3).inject(topo, rng)
    specs = generate_passive_flows(
        routing, UniformTraffic(topo), n_flows, rng
    )
    space = PathSpace(topo, routing)
    return SpecBatch.from_specs(specs, space), injection


def test_rng_modes_deterministic(tiny_world):
    topo, _ = tiny_world
    batch, injection = _spec_batch(tiny_world, seed=11)
    sim = FlowLevelSimulator(topo)
    for mode in ("grouped", "vectorized"):
        a = sim.simulate_batch(
            batch, injection, np.random.default_rng(5), rng_mode=mode
        )
        b = sim.simulate_batch(
            batch, injection, np.random.default_rng(5), rng_mode=mode
        )
        assert np.array_equal(a.bad, b.bad)
        assert np.array_equal(a.chosen_path, b.chosen_path)
    # grouped is the default: omitting rng_mode is the historical stream.
    default = sim.simulate_batch(batch, injection, np.random.default_rng(5))
    grouped = sim.simulate_batch(
        batch, injection, np.random.default_rng(5), rng_mode="grouped"
    )
    assert np.array_equal(default.bad, grouped.bad)
    assert np.array_equal(default.chosen_path, grouped.chosen_path)


def test_vectorized_rng_is_versioned_but_valid(tiny_world):
    """The vectorized stream is explicitly different from grouped, but
    every chosen path must still be a real (src, dst) member path and
    loss mass must stay in the same regime."""
    topo, _ = tiny_world
    batch, injection = _spec_batch(tiny_world, seed=11)
    sim = FlowLevelSimulator(topo)
    grouped = sim.simulate_batch(
        batch, injection, np.random.default_rng(5), rng_mode="grouped"
    )
    vec = sim.simulate_batch(
        batch, injection, np.random.default_rng(5), rng_mode="vectorized"
    )
    assert not np.array_equal(grouped.bad, vec.bad)
    space = batch.space
    for i in range(0, len(batch), 37):
        nodes = space.path_nodes(int(vec.chosen_path[i]))
        assert nodes[0] == batch.src[i]
        assert nodes[-1] == batch.dst[i]
    g_rate = grouped.bad.sum() / grouped.packets.sum()
    v_rate = vec.bad.sum() / vec.packets.sum()
    assert v_rate > 0
    assert 0.2 < v_rate / g_rate < 5.0


def test_rng_mode_rejects_unknown(tiny_world):
    topo, _ = tiny_world
    batch, injection = _spec_batch(tiny_world, seed=11, n_flows=10)
    with pytest.raises(ValueError, match="rng_mode"):
        FlowLevelSimulator(topo).simulate_batch(
            batch, injection, np.random.default_rng(5), rng_mode="turbo"
        )
