"""Sharded evaluation: shard-count scaling and merge overhead.

The shard layer exists so a trace batch can be split across OS
processes (or machines) with only serialized results crossing back.
This benchmark runs the Fig. 2 scheme grid over one batch three ways -
serial, sharded but executed sequentially in-process (pure overhead
measurement), and sharded across concurrent worker processes - then
times the merge fold in isolation.

Shape asserted:

* every path is bit-identical to serial in metrics;
* concurrent process shards beat serial wall-clock (the scaling win);
* the merge fold itself is a negligible fraction of serial runtime
  (it only deserializes and streams units through the accumulators).
"""

import os
import time

from repro.eval.experiments import (
    silent_drop_traces,
    standard_scheme_suite,
)
from repro.eval.runner import RunnerConfig, run_grid
from repro.eval.shard import (
    ShardRecorder,
    ShardSpec,
    merge_shards,
    run_sharded,
)
from repro.eval.spec import ExperimentResult

from _common import run_once


def _identical(serial, other):
    for label, expected in serial.items():
        assert other[label].accuracy == expected.accuracy, label


def test_shard_scaling_and_merge_overhead(benchmark, show):
    setups = standard_scheme_suite()
    traces = silent_drop_traces("ci", seed=7, n_traces=8)
    run_grid(setups, traces[:1], RunnerConfig())  # warm-up

    t0 = time.perf_counter()
    serial = run_grid(setups, traces, RunnerConfig())
    serial_seconds = time.perf_counter() - t0

    timings = {"serial": serial_seconds}
    for n_shards in (2, 4):
        t0 = time.perf_counter()
        sequential = run_sharded(setups, traces, n_shards)
        timings[f"{n_shards} shards, sequential"] = time.perf_counter() - t0
        _identical(serial, sequential)

        t0 = time.perf_counter()
        if n_shards == 4:
            # The headline configuration doubles as the pytest-benchmark
            # measurement.
            concurrent = run_once(
                benchmark, run_sharded, setups, traces, n_shards,
                shard_jobs=n_shards,
            )
        else:
            concurrent = run_sharded(
                setups, traces, n_shards, shard_jobs=n_shards
            )
        timings[f"{n_shards} shards, {n_shards} processes"] = (
            time.perf_counter() - t0
        )
        _identical(serial, concurrent)

    # Merge overhead in isolation: record all shards once, then time
    # only the replay fold that reassembles full summaries.
    payloads = []
    for index in range(4):
        recorder = ShardRecorder(ShardSpec(index, 4))
        run_grid(setups, traces, RunnerConfig(shard=recorder))
        payloads.append(recorder.payload())
    t0 = time.perf_counter()
    merged = merge_shards(setups, traces, payloads)
    merge_seconds = time.perf_counter() - t0
    _identical(serial, merged)
    timings["merge fold only"] = merge_seconds

    show(
        ExperimentResult(
            experiment="shard-eval",
            description="Fig. 2 grid: shard-count scaling and merge overhead",
            rows=[
                {
                    "path": name,
                    "seconds": seconds,
                    "vs_serial": seconds / serial_seconds,
                }
                for name, seconds in timings.items()
            ],
        )
    )

    # Concurrent process shards must win over serial (measured ~2-3x
    # for 4 shards on a 4-core box).  A single-core runner can't show
    # the win - there, only require bounded overhead (shards re-derive
    # traces, so allow pickling + re-simulation on top of the eval).
    if (os.cpu_count() or 1) >= 4:
        assert timings["4 shards, 4 processes"] < serial_seconds, (
            f"4 concurrent shard processes "
            f"({timings['4 shards, 4 processes']:.2f}s) should beat serial "
            f"({serial_seconds:.2f}s)"
        )
    else:
        assert timings["4 shards, 4 processes"] < serial_seconds * 3, (
            "sharding overhead on a single core should stay bounded"
        )
    # The merge fold does no inference; it must be a small fraction of
    # the evaluation it reassembles.
    assert merge_seconds < serial_seconds / 5, (
        f"merge fold ({merge_seconds:.3f}s) should be <20% of serial "
        f"({serial_seconds:.2f}s)"
    )
