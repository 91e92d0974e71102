#!/usr/bin/env python
"""Per-kernel backend comparison: numpy vs numba.

Where ``run_benchmarks.py`` tracks the repo's headline numbers, this
runner isolates the localization hot loops and times each registered
kernel backend on the same :class:`InferenceProblem`:

* ``delta_init`` - the full Δ-array build (``VectorJleState``
  construction, prior warm problem so interning is amortized).
* ``flip_pair`` - one flip + unflip of the highest-gain component.
* ``removal_gain`` - ``removal_gain`` over every observed component.
* ``localize_greedy`` - the end-to-end greedy+JLE localization.

Backends that are registered but not constructible here (numba without
the numba package) are reported as skipped rather than failing the run.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel_backends.py \
        --preset ci --repeats 3

Writes ``BENCH_kernels_<label>.json`` with per-(benchmark, backend)
mean/stddev plus ``derived`` speedups of every other backend (numba,
where installed) over the default numpy backend.  Timing semantics match ``run_benchmarks.py``: one cold
warmup call (recorded as ``cold_s`` — includes JIT compilation for the
numba backend), then ``repeats`` warm calls.

The module also carries pytest-benchmark arms (like the rest of
``benchmarks/``), parametrized over every registered backend, so
``pytest benchmarks/bench_kernel_backends.py`` compares the backends
on the shared ``drop_problem`` fixture; unavailable backends skip.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from run_benchmarks import (
    PRESETS,
    TIMING_SEMANTICS,
    _git_sha,
    _stats,
    _timed,
    machine_fingerprint,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def build_problem(preset: str, seed: int):
    from repro.core.problem import InferenceProblem
    from repro.eval.experiments import standard_topology
    from repro.eval.scenarios import make_trace
    from repro.routing import EcmpRouting
    from repro.simulation import SilentLinkDrops
    from repro.telemetry.inputs import TelemetryConfig, build_observation_batch

    n_passive, n_probes = PRESETS[preset]
    topo = standard_topology(preset if preset in ("tiny", "paper") else "ci")
    routing = EcmpRouting(topo)
    scenario = SilentLinkDrops(n_failures=3, min_rate=4e-3, max_rate=1e-2)
    trace = make_trace(
        topo, routing, scenario, seed=seed,
        n_passive=n_passive, n_probes=n_probes,
    )
    batch = build_observation_batch(
        trace.batch, TelemetryConfig.from_spec("A1+A2+P"),
        np.random.default_rng(5),
    )
    return InferenceProblem.from_batch(batch, topo.n_components, topo.n_links)


def build_backend_benchmarks(problem, backend: str):
    """Return {name: callable(i)} for one kernel backend."""
    from repro.core.flock_fast import VectorJleState
    from repro.core.params import DEFAULT_PER_PACKET
    from repro.eval.schemes import build_localizer

    def delta_init(i):
        return VectorJleState(
            problem, DEFAULT_PER_PACKET, kernel_backend=backend
        )

    state = delta_init(0)
    flip_comp = int(np.argmax(state.delta))

    def flip_pair(i):
        state.flip(flip_comp)
        state.flip(flip_comp)

    # A second state holding a small hypothesis, so removal_gain is
    # timed on its own rather than through the flips that build it.
    gain_state = delta_init(0)
    for comp in np.argsort(gain_state.delta)[::-1][:4]:
        gain_state.flip(int(comp))
    members = sorted(gain_state.hypothesis)

    def removal_gain(i):
        return sum(gain_state.removal_gain(comp) for comp in members)

    localizer = build_localizer("flock", kernel_backend=backend)

    def localize_greedy(i):
        return localizer.localize(problem)

    return {
        "delta_init": delta_init,
        "flip_pair": flip_pair,
        "removal_gain": removal_gain,
        "localize_greedy": localize_greedy,
    }


# --- pytest-benchmark arms (collected by ``pytest benchmarks/``) -----

def _registered_backends():
    from repro.core.kernels import backend_names

    return backend_names()


def _require_backend(backend: str):
    from repro.core.kernels import backend_available

    if not backend_available(backend):
        pytest.skip(f"kernel backend {backend!r} not available here")


@pytest.mark.parametrize("backend", _registered_backends())
def test_delta_init_backend(benchmark, drop_problem, backend):
    from repro.core.flock_fast import VectorJleState
    from repro.core.params import DEFAULT_PER_PACKET

    _require_backend(backend)
    state = benchmark(
        VectorJleState, drop_problem, DEFAULT_PER_PACKET,
        kernel_backend=backend,
    )
    assert state.delta.shape == (drop_problem.n_components,)


@pytest.mark.parametrize("backend", _registered_backends())
def test_flip_pair_backend(benchmark, drop_problem, backend):
    from repro.core.flock_fast import VectorJleState
    from repro.core.params import DEFAULT_PER_PACKET

    _require_backend(backend)
    state = VectorJleState(
        drop_problem, DEFAULT_PER_PACKET, kernel_backend=backend
    )
    comp = drop_problem.observed_components[0]

    def flip_pair():
        state.flip(comp)
        state.flip(comp)

    benchmark(flip_pair)
    assert not state.hypothesis


@pytest.mark.parametrize("backend", _registered_backends())
def test_localize_greedy_backend(benchmark, drop_problem, backend):
    from repro.eval.schemes import build_localizer

    _require_backend(backend)
    localizer = build_localizer("flock", kernel_backend=backend)
    pred = benchmark(localizer.localize, drop_problem)
    assert pred.components


# --- standalone runner ----------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--preset", choices=sorted(PRESETS), default="ci")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--label", default=None,
                        help="BENCH_kernels_<label>.json (default: preset)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out-dir", default=str(REPO_ROOT))
    args = parser.parse_args()

    from repro.core.kernels import backend_available, backend_names

    problem = build_problem(args.preset, args.seed)
    results = {}
    skipped = []
    for backend in backend_names():
        if not backend_available(backend):
            skipped.append(backend)
            print(f"[{backend}] skipped (not available here)")
            continue
        for name, fn in build_backend_benchmarks(problem, backend).items():
            times, cold = _timed(fn, args.repeats)
            entry = _stats(times, cold)
            results.setdefault(name, {})[backend] = entry
            print(f"[{backend}] {name:16s} mean {entry['mean_s']:8.4f}s "
                  f"(cold {entry['cold_s']:.4f})")

    derived = {}
    for name, per_backend in sorted(results.items()):
        ref = per_backend.get("numpy", {}).get("mean_s")
        if not ref:
            continue
        for backend, entry in sorted(per_backend.items()):
            if backend == "numpy" or not entry["mean_s"]:
                continue
            key = f"{name}_{backend}_speedup"
            derived[key] = ref / entry["mean_s"]
            print(f"{name} speedup (numpy/{backend}): {derived[key]:.2f}x")

    label = args.label or args.preset
    payload = {
        "label": label,
        "git_sha": _git_sha(),
        "machine": machine_fingerprint(),
        "preset": args.preset,
        "repeats": args.repeats,
        "timing": TIMING_SEMANTICS,
        "skipped_backends": skipped,
        "benchmarks": results,
        "derived": derived,
    }
    out = Path(args.out_dir) / f"BENCH_kernels_{label}.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
