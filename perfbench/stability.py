#!/usr/bin/env python3
"""Run one workload over several seeds and report each end-to-end
metric's median and quartile spread against its bound.

    python3 perfbench/stability.py --workload fig2-ci --runs 10
    python3 perfbench/stability.py --workload fig2-ci --runs 10 \
        --baseline .perfbench/stability-fig2-ci.json

Each run is ``BENCHMARK.json``'s command with a different ``--seed``.
A metric is steady when its spread (quartile distance over median) is
within its bound; ``--baseline`` also checks that no median got worse
than a saved set's by more than the bound.  Results are saved to
``.perfbench/stability-<workload>.json``.  Exits 1 when a run fails or
a check does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from checks import spread

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark stability check")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(bench["command"], args.workload, seed, bench["run_seconds"])
        ok &= bool(result["correct"])
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)

    baseline = json.loads(args.baseline.read_text()) if args.baseline else None
    for name, metric in bounds.items():
        median = statistics.median(values[name])
        share = spread(values[name])
        line = (f"{name}: median {median:.6g} {metric['unit']}, spread "
                f"{share:.4f} (bound {metric['bound']}, {share / metric['bound']:.2f} of it)")
        if share > metric["bound"]:
            ok = False
            line += "  SPREAD OVER BOUND"
        if baseline is not None:
            before = statistics.median(baseline[name])
            change = (median - before) / before
            worse = change if metric["better"] == "lower" else -change
            line += f"; vs baseline median {before:.6g}: {change:+.4f}"
            if worse > metric["bound"]:
                ok = False
                line += "  WORSE THAN BOUND"
        print(line)
    out = ROOT / ".perfbench" / f"stability-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(values, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
