#!/usr/bin/env python3
"""End-to-end benchmark of the Flock reproduction, with a per-layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig2-ci --seed 7 --seconds 38 --trace 0

Workloads (see ``BENCHMARK.json`` for why each is there):

* ``fig2-ci``           ``run_experiment("fig2", preset="ci")``
* ``stream-gray-drift`` a warm ``StreamMonitor`` over a gray-drift replay
* ``fleet-fig2``        ``fleet.submit`` + two worker threads + ``fleet.collect``
* ``clos-paper``        ``paper-clos`` on the 2496-link paper fabric, Flock
  only; run by hand, not listed in ``BENCHMARK.json``: a run takes about
  50 s and its latency spread between runs on a shared 2-core machine
  (22-28%) is wider than any bound the benchmark may set

``--trace 0`` measures the end-to-end metrics with nothing wrapped:

* ``setup_s``      the median import time of the program in a fresh
  interpreter plus the median per-repetition set-up
* ``latency_ms``   median wall time of one user-facing operation: the
  experiment (reported as ``run_s``), a steady-state stream cycle
  (``cycle_ms_p50``) or a two-worker drain (``drain_s``)
* ``peak_rss_mb``  the process's peak resident set size

``--trace 1`` alternates untraced and traced repetitions and reports
the per-layer metrics of ``layers.PER_LAYER`` from the traced ones; the
spans go to ``.perfbench/trace-<workload>-<seed>-<pid>.jsonl``.

Both print a human-readable report (including workload figures such as
``fscore_mean``, ``cycle_ms_p90`` with its sample count, ``detect_cycles``
and ``failed_frac``) and then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when an output check failed, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

#: Threads the numeric libraries may use; pinned so that runs compare.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: The program's modules a workload imports; fresh interpreters time
#: their import for ``setup_s``, spread over the run (see
#: ``workloads.repeat``).
IMPORTS = ("repro", "repro.eval.fleet", "repro.eval.stream", "repro.simulation.stream")

#: The ROADMAP bar: named layers account for all but this share of a
#: traced fig2-ci run.
MAX_UNATTRIBUTED = 0.05


def pin_environment() -> Dict[str, Optional[str]]:
    """Drop backend overrides and pin thread counts before numpy loads."""
    removed = os.environ.pop("REPRO_KERNEL_BACKEND", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {"REPRO_KERNEL_BACKEND_removed": removed}


def import_seconds() -> float:
    """Time to import the program in a fresh interpreter."""
    code = (
        "import importlib, time\n"
        "t = time.perf_counter()\n"
        f"for name in {IMPORTS!r}: importlib.import_module(name)\n"
        "print(time.perf_counter() - t)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    )
    return float(done.stdout.split()[-1])


def describe_machine(seed: int, workload: str) -> Dict[str, object]:
    import numpy

    # A checkout need not be a git repository; the ceiling keeps git
    # from reporting an enclosing repository's commit instead.
    git_env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode())
        source.update(path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")), cpu,
            )
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha,
        "src_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "executor": "serial",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        return 2
    pinned = pin_environment()
    sys.path.insert(0, str(SRC))
    from layers import PER_LAYER, layer_metrics, program_probes
    from workloads import WORKLOADS, Context, Result

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    default_seed, run_workload = WORKLOADS[args.workload]
    seed = default_seed if args.seed is None else args.seed
    WORKDIR.mkdir(exist_ok=True)
    ctx = Context(seed=seed, seconds=args.seconds, trace=bool(args.trace),
                  workdir=WORKDIR, time_import=import_seconds)
    if ctx.trace:
        ctx.probes = program_probes()
    res = Result()
    run_workload(ctx, res)

    env = {**describe_machine(seed, args.workload), **pinned}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = dict(res.report)
    report["failed_frac"] = (res.failed / res.attempted if res.attempted else 1.0, "ratio")
    report["repetitions"] = (len(res.setups), "count")

    if ctx.trace:
        per_run = [layer_metrics(ctx.tracer, run) for run, _ in res.traced]
        metrics = {
            name: (statistics.median(m[name] for m in per_run) if per_run else 0.0, unit)
            for name, unit, _, _ in PER_LAYER
        }
        traced_s = statistics.median(s for _, s in res.traced) if res.traced else 0.0
        untraced_s = statistics.median(res.untraced) if res.untraced else 0.0
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        coverage = metrics["trace.coverage"][0]
        if args.workload == "fig2-ci" and coverage < 1.0 - MAX_UNATTRIBUTED:
            res.errors.append(
                f"named layers cover {coverage:.3f} of a traced run, "
                f"below {1.0 - MAX_UNATTRIBUTED}"
            )
        trace_path = WORKDIR / f"trace-{args.workload}-{seed}-{os.getpid()}.jsonl"
        ctx.tracer.write_jsonl(trace_path, {"env": env, "metrics": metrics})
        print(f"spans: {trace_path.relative_to(ROOT)}")
    else:
        latency_ms = statistics.median(res.latencies) * 1e3 if res.latencies else 0.0
        imports_s = statistics.median(res.imports)
        rep_setup_s = statistics.median(res.setups) if res.setups else 0.0
        setup_s = imports_s + rep_setup_s
        report["setup_import_s"] = (imports_s, "s")
        report["setup_per_rep_s"] = (rep_setup_s, "s")
        report["setup_import_samples"] = (len(res.imports), "count")
        report["setup_samples"] = (len(res.setups), "count")
        metrics = {
            "setup_s": (setup_s, "s"),
            "latency_ms": (latency_ms, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        report["latency_samples"] = (len(res.latencies), "count")

    print("env: " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in report.items():
        print(f"report {args.workload} {name} = {value} {unit}")
    moves = {name: text for name, _, _, text in PER_LAYER}
    for name, (value, unit) in metrics.items():
        note = f"  (should move: {moves[name]})" if name in moves else ""
        print(f"metric {args.workload} {name} = {value} {unit}{note}")
    for message in res.errors:
        print(f"check failed: {message}")
    correct = not res.errors
    print(json.dumps({
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
