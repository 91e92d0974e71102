"""Per-layer metrics: where each is measured and what it should move.

Layer names are the module names of ``src/repro``.  Each entry of
:data:`PER_LAYER` is ``(name, unit, better, moves)``; ``moves`` names
the end-to-end metric and workload the layer metric should move, as
written down before anything was measured.  ``BENCHMARK.json`` lists
the same names, units and directions.

Values are per traced repetition (one experiment, one stream pass, one
fleet drain); a layer the workload does not reach reads 0.  The notes
name ``clos-paper`` where it is the workload a layer shows most on; it
is run by hand (see ``run.py``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from spans import LayerTotals, Probe, Tracer, layer_totals, self_times

PER_LAYER: List[Tuple[str, str, str, str]] = [
    ("routing.switch_paths.calls", "count", "lower",
     "latency_ms and peak_rss_mb on clos-paper; barely fig2-ci, whose route cache fills in the first trace"),
    ("routing.switch_paths.busy_s", "s", "lower", "latency_ms on clos-paper"),
    ("routing.cached_pairs", "count", "lower", "peak_rss_mb on clos-paper"),
    ("routing.path_space.n_paths", "count", "lower", "peak_rss_mb on clos-paper"),
    ("routing.path_space.n_comp_paths", "count", "lower", "peak_rss_mb on clos-paper"),
    ("simulation.make_trace.calls", "count", "lower", "latency_ms on fig2-ci and clos-paper"),
    ("simulation.make_trace.self_s", "s", "lower",
     "latency_ms on fig2-ci (about 18%) and clos-paper (largest share); excludes nested routing"),
    ("telemetry.build_observation_batch.busy_s", "s", "lower",
     "latency_ms on clos-paper and fig2-ci, and on stream-gray-drift (about 6%)"),
    ("core.problem.from_batch.busy_s", "s", "lower",
     "latency_ms on clos-paper (with telemetry about 40%) and fig2-ci (about 11%)"),
    ("core.problem.grouped_rows", "count", "lower", "latency_ms and peak_rss_mb on clos-paper"),
    ("eval.runner.problem_builds", "count", "lower", "latency_ms on fig2-ci (60 builds for 96 evaluations)"),
    ("eval.runner.cache_hit_ratio", "ratio", "higher", "latency_ms on fig2-ci"),
    ("baselines.netbouncer.localize.calls", "count", "lower", "latency_ms on fig2-ci; nothing on clos-paper or the stream"),
    ("baselines.netbouncer.localize.busy_s", "s", "lower",
     "latency_ms on fig2-ci (about 60%); nothing on clos-paper or the stream"),
    ("baselines.b007.localize.busy_s", "s", "lower", "latency_ms on fig2-ci"),
    ("core.flock.localize.calls", "count", "lower", "latency_ms on clos-paper, fig2-ci and stream-gray-drift"),
    ("core.flock.localize.busy_s", "s", "lower",
     "latency_ms on clos-paper (about 10%), fig2-ci (about 11%) and stream-gray-drift (about 10%)"),
    ("eval.metrics.evaluate_prediction.busy_s", "s", "lower", "latency_ms on fig2-ci"),
    ("core.window.append.busy_s", "s", "lower",
     "latency_ms on stream-gray-drift (with rebase about 80% of a cycle); no batch workload"),
    ("core.window.retained_rows", "count", "lower", "latency_ms on stream-gray-drift"),
    ("core.flock_fast.rebase.busy_s", "s", "lower", "latency_ms on stream-gray-drift"),
    ("eval.stream.degraded_cycles", "count", "lower", "expected 0; latency_ms on stream-gray-drift"),
    ("eval.fleet.idle_wait_s", "s", "lower", "latency_ms (the drain) on fleet-fig2"),
    ("eval.fleet.unit_exec.busy_s", "s", "lower", "latency_ms on fleet-fig2"),
    ("eval.fleet.units_completed", "count", "higher", "fixed by the plan; fleet-fig2"),
    ("eval.fleet.useful_ratio", "ratio", "higher", "latency_ms on fleet-fig2"),
    ("eval.fleet.io_retries", "count", "lower", "latency_ms on fleet-fig2"),
    ("eval.broker.claim.calls", "count", "lower", "latency_ms on fleet-fig2 (under 2% today)"),
    ("eval.broker.claim.busy_s", "s", "lower", "latency_ms on fleet-fig2 (under 2% today)"),
    ("eval.broker.complete.calls", "count", "lower", "latency_ms on fleet-fig2 (under 2% today)"),
    ("eval.broker.complete.busy_s", "s", "lower", "latency_ms on fleet-fig2 (under 2% today)"),
    ("eval.fleet.submit.busy_s", "s", "lower", "setup_s on fleet-fig2"),
    ("eval.fleet.collect.busy_s", "s", "lower", "latency_ms on fleet-fig2 is the drain only; guards collect"),
    ("trace.coverage", "ratio", "higher",
     "share of a traced operation that named layers account for; at least 0.95 on fig2-ci"),
    ("trace.overhead_s", "s", "lower", "traced minus untraced operation time; no end-to-end metric"),
]

#: Span names whose busy time becomes ``<name>.busy_s``.
_BUSY = (
    "routing.switch_paths",
    "telemetry.build_observation_batch",
    "core.problem.from_batch",
    "baselines.netbouncer.localize",
    "baselines.b007.localize",
    "core.flock.localize",
    "eval.metrics.evaluate_prediction",
    "core.window.append",
    "core.flock_fast.rebase",
    "eval.fleet.unit_exec",
    "eval.broker.claim",
    "eval.broker.complete",
    "eval.fleet.submit",
    "eval.fleet.collect",
)
_CALLS = (
    "routing.switch_paths",
    "simulation.make_trace",
    "baselines.netbouncer.localize",
    "core.flock.localize",
    "eval.broker.claim",
    "eval.broker.complete",
)

#: The span that times one whole operation of a workload.
OP = "op"


def _count_rows(tracer: Tracer, problem) -> None:
    tracer.count("core.problem.grouped_rows", problem.n_flows)


def _count_window(tracer: Tracer, update) -> None:
    tracer.count("core.window.retained_rows.sum", update.problem.n_flows)
    tracer.count("core.window.retained_rows.n")


def _keep_routing(tracer: Tracer, trace) -> None:
    tracer.keep("routing", trace.routing)


def program_probes() -> List[Probe]:
    """Wrappers for every layer boundary the workloads cross.

    Module globals are patched where the caller looks them up (e.g.
    ``repro.eval.spec.make_trace``, not the defining module), methods
    on their class.
    """
    import repro.eval.harness as harness
    import repro.eval.spec as spec
    import repro.eval.stream as stream
    from repro.baselines.b007 import Vote007
    from repro.baselines.netbouncer import NetBouncer
    from repro.core.flock import FlockInference
    from repro.core.flock_fast import VectorJleState
    from repro.core.problem import InferenceProblem
    from repro.core.window import WindowedProblem
    from repro.eval.broker import Broker
    from repro.eval.runner import ProblemCache
    from repro.routing.ecmp import EcmpRouting

    return [
        Probe(spec, "make_trace", "simulation.make_trace", _keep_routing),
        Probe(EcmpRouting, "switch_paths", "routing.switch_paths"),
        Probe(harness, "build_observation_batch", "telemetry.build_observation_batch"),
        Probe(stream, "build_observation_batch", "telemetry.build_observation_batch"),
        Probe(InferenceProblem, "from_batch", "core.problem.from_batch", _count_rows),
        Probe(ProblemCache, "get", "eval.runner.ProblemCache.get"),
        Probe(harness, "build_problem", "eval.runner.build_problem"),
        Probe(harness, "evaluate_prediction", "eval.metrics.evaluate_prediction"),
        Probe(FlockInference, "localize", "core.flock.localize"),
        Probe(NetBouncer, "localize", "baselines.netbouncer.localize"),
        Probe(Vote007, "localize", "baselines.b007.localize"),
        Probe(WindowedProblem, "append", "core.window.append", _count_window),
        Probe(VectorJleState, "rebase", "core.flock_fast.rebase"),
        Probe(Broker, "claim", "eval.broker.claim"),
        Probe(Broker, "complete", "eval.broker.complete"),
    ]


def _op_coverage(spans) -> float:
    """Share of the operation spans that named layers account for."""
    selfs = self_times(spans)
    ops = [s for s in spans if s.name == OP]
    total = sum(s.duration for s in ops)
    if total <= 0:
        return 0.0
    return 1.0 - sum(selfs[s.id] for s in ops) / total


def layer_metrics(tracer: Tracer, run: str) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value for one traced repetition.

    Counts the workload records itself (fleet tallies, degraded cycles)
    are read from the run's counters; ``trace.overhead_s`` is filled in
    by the caller.
    """
    spans = tracer.run_spans(run)
    totals: Dict[str, LayerTotals] = layer_totals(spans)

    def get(name: str) -> LayerTotals:
        return totals.get(name, LayerTotals())

    counters = tracer.run_counters(run)
    out: Dict[str, float] = {name: 0.0 for name, *_ in PER_LAYER}
    for name in _BUSY:
        out[f"{name}.busy_s"] = get(name).busy_s
    for name in _CALLS:
        out[f"{name}.calls"] = get(name).calls
    out["simulation.make_trace.self_s"] = get("simulation.make_trace").self_s
    routings = tracer.kept(run, "routing")
    out["routing.cached_pairs"] = sum(r.cached_pairs for r in routings)
    spaces = [r.path_space() for r in routings]
    out["routing.path_space.n_paths"] = sum(s.n_paths for s in spaces)
    out["routing.path_space.n_comp_paths"] = sum(s.n_comp_paths for s in spaces)
    out["core.problem.grouped_rows"] = counters.get("core.problem.grouped_rows", 0)
    builds = get("eval.runner.build_problem").calls
    gets = get("eval.runner.ProblemCache.get").calls
    out["eval.runner.problem_builds"] = builds
    out["eval.runner.cache_hit_ratio"] = (gets - builds) / gets if gets else 0.0
    windows = counters.get("core.window.retained_rows.n", 0)
    out["core.window.retained_rows"] = (
        counters.get("core.window.retained_rows.sum", 0) / windows if windows else 0.0
    )
    out["eval.fleet.idle_wait_s"] = get("eval.fleet.idle_wait").busy_s
    for name in ("eval.stream.degraded_cycles", "eval.fleet.units_completed",
                 "eval.fleet.io_retries"):
        out[name] = counters.get(name, 0)
    attempts = sum(counters.get(f"eval.fleet.units_{k}", 0)
                   for k in ("completed", "failed", "stale"))
    out["eval.fleet.useful_ratio"] = (
        counters.get("eval.fleet.units_completed", 0) / attempts if attempts else 0.0
    )
    out["trace.coverage"] = _op_coverage(spans)
    return out
