"""The four workloads, each run through the public ``repro`` API.

Every workload repeats one user-facing operation until the run's time
is spent: a whole experiment (``fig2-ci``, ``clos-paper``), a stream
cycle (``stream-gray-drift``) or a two-worker fleet drain
(``fleet-fig2``).  Each repetition sets up afresh, so set-up is
sampled as often as the operation.  In a traced run, repetitions
alternate untraced and traced; only traced ones install the layer
wrappers, and only untraced ones give latency samples.

Output checks: at a workload's default seed its outputs must match
``pins.json``; at any seed every repetition must reproduce the first
one exactly, and the fleet must reproduce a serial run.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from checks import digest, summarize_latencies
from layers import OP
from spans import Probe, Tracer, instrument

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: Stream shape: a replay of N_CHUNKS chunks whose incident starts a
#: third of the way in; the first WINDOW cycles fill the window and
#: count as set-up.
N_CHUNKS = 30
WINDOW = 4
FLOWS_PER_CHUNK = 4_000
PROBES_PER_CHUNK = 600

#: Distance between the experiment seeds of one batch run; larger
#: than any experiment's trace count, so their trace sets are disjoint.
SEED_STRIDE = 1000

#: A fleet drain that has not finished by then is reported as failed.
DRAIN_TIMEOUT_S = 120.0

#: Fresh-interpreter import samples per untraced run, for ``setup_s``.
IMPORT_SAMPLES = 12


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    #: Times one import of the program in a fresh interpreter.
    time_import: Callable[[], float]
    tracer: Tracer = field(default_factory=Tracer)
    probes: List[Probe] = field(default_factory=list)


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Seconds per operation, untraced repetitions only.
    latencies: List[float] = field(default_factory=list)
    #: Seconds of set-up per repetition.
    setups: List[float] = field(default_factory=list)
    #: Seconds to import the program, one per fresh interpreter.
    imports: List[float] = field(default_factory=list)
    #: (run id, seconds of operation) per traced repetition.
    traced: List[Tuple[str, float]] = field(default_factory=list)
    #: Untraced operation seconds per repetition (the overhead base).
    untraced: List[float] = field(default_factory=list)
    #: Workload-specific figures for the report (name -> (value, unit)).
    report: Dict[str, Tuple[object, str]] = field(default_factory=dict)

    def fail(self, n: int, message: str) -> None:
        self.failed += n
        self.errors.append(message)


def load_pins() -> Dict[str, Dict]:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def repeat(
    ctx: Context, res: Result, min_reps: int, rep: Callable[[int, bool], float]
) -> None:
    """Call ``rep(index, traced)`` until ``ctx.seconds`` are spent.

    A repetition starts only if a typical one still fits; at least
    ``min_reps`` run.  In a traced run every second repetition is
    traced.  An untraced run also times ``IMPORT_SAMPLES`` imports of
    the program, spread between repetitions in step with the elapsed
    time, so that their median sees the same machine as the operation's;
    that time is not counted against ``ctx.seconds``.
    """
    start = time.perf_counter()
    outside = 0.0
    durations: List[float] = []
    index = 0
    while True:
        durations.append(rep(index, ctx.trace and index % 2 == 1))
        index += 1
        elapsed = time.perf_counter() - start - outside
        done = index >= min_reps and elapsed + statistics.median(durations) > ctx.seconds
        if not ctx.trace:
            due = IMPORT_SAMPLES if done else math.ceil(
                IMPORT_SAMPLES * min(1.0, elapsed / ctx.seconds))
            t0 = time.perf_counter()
            while len(res.imports) < due:
                res.imports.append(ctx.time_import())
            outside += time.perf_counter() - t0
        if done:
            return


@contextmanager
def traced_rep(ctx: Context, traced: bool, run: str) -> Iterator[None]:
    """Install the layer wrappers for one traced repetition."""
    if not traced:
        yield
        return
    ctx.tracer.run = run
    with instrument(ctx.tracer, ctx.probes):
        yield


def _op_span(ctx: Context, traced: bool):
    return ctx.tracer.span(OP) if traced else nullcontext()


# ----------------------------------------------------------------------
# fig2-ci, clos-paper: one registered experiment per repetition
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Batch:
    """One registered experiment per repetition, at least ``reps``.

    An untraced run repeats the workload seed once, to check that it
    reproduces, then moves to a new experiment seed each repetition, so
    the run's median spans many trace sets rather than one.  A traced
    run stays on the workload seed.
    """

    experiment: str
    preset: str
    reps: int = 2
    overrides: Optional[Dict[str, object]] = None

    def run(self, name: str, ctx: Context, res: Result) -> None:
        from repro.eval.runner import RunnerConfig
        from repro.eval.spec import build_experiment_spec, run_spec

        runner = RunnerConfig(executor="serial")
        pinned = load_pins().get(name, {})
        digests: Dict[int, str] = {}
        fscores: Dict[int, float] = {}

        def rep(index: int, traced: bool) -> float:
            seed = ctx.seed if ctx.trace else ctx.seed + SEED_STRIDE * max(0, index - 1)
            t0 = time.perf_counter()
            spec = build_experiment_spec(
                self.experiment, preset=self.preset, seed=seed,
                overrides=self.overrides, build_runner=runner,
            )
            res.setups.append(time.perf_counter() - t0)
            n_traces = sum(len(p.trace.seeds) for p in spec.points if p.trace)
            res.attempted += n_traces
            rows = None
            with traced_rep(ctx, traced, f"rep{index}"), _op_span(ctx, traced):
                t0 = time.perf_counter()
                try:
                    rows = run_spec(spec, runner).rows
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    res.fail(n_traces, f"rep {index} (seed {seed}) raised {exc!r}")
                seconds = time.perf_counter() - t0
            _record(res, traced, index, seconds)
            if rows is None:
                return seconds
            got = digest(rows)
            fscores.setdefault(seed, statistics.mean(float(r["fscore"]) for r in rows))
            want = digests.setdefault(seed, got)
            if seed == pinned.get("seed"):
                want = pinned["digest"]
            if got != want:
                res.fail(n_traces, f"rep {index} (seed {seed}): rows digest {got} != {want}")
            return seconds

        repeat(ctx, res, 2 if ctx.trace else self.reps, rep)
        if res.latencies:
            res.report["run_s"] = (statistics.median(res.latencies), "s")
        if fscores:
            res.report["fscore_mean"] = (statistics.mean(fscores.values()), "ratio")
        res.report["rows_digest"] = (digests.get(ctx.seed), "sha256")
        res.report["seeds"] = (sorted(digests), "list")


def _record(res: Result, traced: bool, index: int, seconds: float) -> None:
    if traced:
        res.traced.append((f"rep{index}", seconds))
    else:
        res.latencies.append(seconds)
        res.untraced.append(seconds)


# ----------------------------------------------------------------------
# stream-gray-drift: warm sliding-window monitor over a replayed incident
# ----------------------------------------------------------------------


def run_stream(ctx: Context, res: Result) -> None:
    from repro.eval.experiments import standard_topology
    from repro.eval.stream import StreamMonitor, incident_latencies
    from repro.routing.ecmp import EcmpRouting
    from repro.simulation.failures import make_scenario
    from repro.simulation.stream import replay_stream

    # The chunks are the load: generated once, outside every metric.
    topology = standard_topology("ci")
    chunks = list(replay_stream(
        topology, EcmpRouting(topology), make_scenario("gray-drift"),
        seed=ctx.seed, n_chunks=N_CHUNKS, flows_per_chunk=FLOWS_PER_CHUNK,
        probes_per_chunk=PROBES_PER_CHUNK, chunk_seconds=1.0,
        onset_chunk=N_CHUNKS // 3,
    ))
    pinned = load_pins().get("stream-gray-drift", {})
    first: Dict[str, object] = {}
    degraded = 0

    def rep(index: int, traced: bool) -> float:
        nonlocal degraded
        res.attempted += len(chunks)
        t0 = time.perf_counter()
        monitor = StreamMonitor(topology, scheme="flock", window=WINDOW,
                                warm=True, seed=ctx.seed)
        reports = []
        seconds = 0.0
        try:
            reports = [monitor.step(chunk) for chunk in chunks[:WINDOW]]
            res.setups.append(time.perf_counter() - t0)
            with traced_rep(ctx, traced, f"rep{index}"):
                for chunk in chunks[WINDOW:]:
                    with _op_span(ctx, traced):
                        t0 = time.perf_counter()
                        reports.append(monitor.step(chunk))
                        cycle = time.perf_counter() - t0
                    seconds += cycle
                    if not traced:
                        res.latencies.append(cycle)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            res.fail(len(chunks) - len(reports), f"pass {index} raised {exc!r}")
        if traced:
            res.traced.append((f"rep{index}", seconds))
            ctx.tracer.count("eval.stream.degraded_cycles", monitor.degraded_cycles)
        else:
            res.untraced.append(seconds)
        degraded += monitor.degraded_cycles
        predictions = [sorted(int(c) for c in r.prediction.components) for r in reports]
        incidents = incident_latencies(reports) if reports else []
        detect = incidents[0]["latency_cycles"] if incidents else None
        if not first:
            first.update(predictions=predictions, detect=detect)
        want = (
            {"predictions": pinned["predictions"], "detect": pinned["detect_cycles"]}
            if ctx.seed == pinned.get("seed") else first
        )
        wrong = sum(
            got != exp for got, exp in zip(predictions, want["predictions"])
        )
        if wrong:
            res.fail(wrong, f"pass {index}: {wrong} cycle prediction(s) differ")
        if detect is None or detect != want["detect"]:
            res.fail(1, f"pass {index}: detect_cycles {detect} != {want['detect']}")
        return seconds

    repeat(ctx, res, 4, rep)
    summary = summarize_latencies(res.latencies)
    res.report["cycle_ms_p50"] = (summary["p50_ms"], "ms")
    res.report["cycle_ms_p90"] = (summary["p90_ms"], "ms")
    res.report["cycle_samples"] = (summary["n"], "count")
    res.report["cycle_samples_beyond_p90"] = (summary["beyond_p90"], "count")
    res.report["detect_cycles"] = (first.get("detect"), "cycles")
    res.report["degraded_cycles"] = (degraded, "count")


# ----------------------------------------------------------------------
# fleet-fig2: submit, two worker threads drain, collect
# ----------------------------------------------------------------------


def run_fleet(ctx: Context, res: Result) -> None:
    from repro.eval import fleet
    from repro.eval.runner import RunnerConfig
    from repro.eval.spec import run_experiment

    runner = RunnerConfig(executor="serial")
    # The oracle: a serial run of the same experiment, outside every metric.
    reference = run_experiment("fig2", preset="tiny", seed=ctx.seed, runner=runner).rows
    fscores: List[float] = []
    tracer = ctx.tracer

    def idle_sleep(seconds: float) -> None:
        with tracer.span("eval.fleet.idle_wait"):
            time.sleep(seconds)

    def rep(index: int, traced: bool) -> float:
        directory = ctx.workdir / f"fleet-{os.getpid()}-{index}"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        path = directory / "broker.sqlite"
        span = tracer.span if traced else (lambda name, parent=None: nullcontext())
        n_units = 0
        try:
            with traced_rep(ctx, traced, f"rep{index}"):
                t0 = time.perf_counter()
                with span("eval.fleet.submit"):
                    submitted = fleet.submit(
                        path, "fig2", preset="tiny", seed=ctx.seed,
                        unit_traces=1, lease_seconds=5.0,
                    )
                res.setups.append(time.perf_counter() - t0)
                n_units = submitted.n_units
                res.attempted += n_units
                reports: List = [None, None]
                errors: List = [None, None]

                def worker(k: int, parent: Optional[int]) -> None:
                    try:
                        with span("eval.fleet.worker", parent=parent):
                            reports[k] = fleet.work(
                                path, worker_id=f"bench-{k}", runner=runner,
                                sleep=idle_sleep if traced else time.sleep,
                            )
                    except Exception as exc:  # noqa: BLE001 - counted as failed
                        errors[k] = exc

                exec_probe = [Probe(fleet, "run_spec", "eval.fleet.unit_exec")]
                with instrument(tracer, exec_probe) if traced else nullcontext():
                    with span(OP) as op_id:
                        t0 = time.perf_counter()
                        threads = [
                            threading.Thread(target=worker, args=(k, op_id), daemon=True)
                            for k in range(2)
                        ]
                        for thread in threads:
                            thread.start()
                        for thread in threads:
                            thread.join(DRAIN_TIMEOUT_S)
                        seconds = time.perf_counter() - t0
                _record(res, traced, index, seconds)
                if any(thread.is_alive() for thread in threads):
                    res.fail(n_units, f"rep {index}: drain did not finish")
                    return seconds
                if any(e is not None for e in errors):
                    res.fail(n_units, f"rep {index}: worker raised {errors!r}")
                    return seconds
                for report in reports if traced else ():
                    for kind in ("completed", "failed", "stale"):
                        tracer.count(f"eval.fleet.units_{kind}", getattr(report, kind))
                    tracer.count("eval.fleet.io_retries", report.io_retries)
                raised = sum(report.failed for report in reports)
                with span("eval.fleet.collect"):
                    rows = fleet.collect(path, runner=runner).rows
            fscores.append(statistics.mean(float(r["fscore"]) for r in rows))
            if rows != reference:
                res.fail(n_units, f"rep {index}: collected rows differ from a serial run")
            elif raised:
                res.fail(raised, f"rep {index}: {raised} unit attempt(s) raised")
        except Exception as exc:  # noqa: BLE001 - counted as failed
            res.fail(max(n_units, 1), f"rep {index} raised {exc!r}")
            return 0.0
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return seconds

    repeat(ctx, res, 2, rep)
    if res.latencies:
        res.report["drain_s"] = (statistics.median(res.latencies), "s")
    if fscores:
        res.report["fscore_mean"] = (fscores[0], "ratio")


WORKLOADS: Dict[str, Tuple[int, Callable[[Context, Result], None]]] = {
    "fig2-ci": (7, lambda ctx, res: Batch("fig2", "ci").run("fig2-ci", ctx, res)),
    "clos-paper": (61, lambda ctx, res: Batch(
        "paper-clos", "paper", reps=3,
        overrides={"n_passive": 20_000, "n_probes": 1_000, "n_traces": 2},
    ).run("clos-paper", ctx, res)),
    "stream-gray-drift": (61, run_stream),
    "fleet-fig2": (7, run_fleet),
}
