"""Tests for the shard layer: codec round-trips, shard determinism,
merge validation, and the CLI worker/merge path."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.baselines.b007 import Vote007
from repro.core.flock import FlockInference
from repro.core.params import DEFAULT_PER_PACKET
from repro.errors import ExperimentError
from repro.eval.harness import SchemeSetup, evaluate
from repro.eval.runner import RunnerConfig, run_grid
from repro.eval.scenarios import make_trace_batch
from repro.eval.serialize import (
    eval_summary_from_wire,
    eval_summary_to_wire,
    prediction_from_wire,
    prediction_to_wire,
    trace_metrics_from_wire,
    trace_metrics_to_wire,
    trace_result_from_wire,
    trace_result_to_wire,
)
from repro.eval.shard import (
    ShardRecorder,
    ShardReplayer,
    ShardSpec,
    merge_payloads,
    merge_shards,
    run_sharded,
    shard_bounds,
)
from repro.eval.metrics import TraceMetrics
from repro.simulation.failures import SilentLinkDrops
from repro.telemetry.inputs import TelemetryConfig
from repro.types import Prediction

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def traces(small_fat_tree, ft_routing):
    return make_trace_batch(
        small_fat_tree,
        ft_routing,
        [SilentLinkDrops(n_failures=2, min_rate=4e-3, max_rate=1e-2)] * 5,
        base_seed=33,
        n_passive=600,
        n_probes=120,
    )


def suite():
    return [
        SchemeSetup("Flock", FlockInference(DEFAULT_PER_PACKET),
                    TelemetryConfig.from_spec("A1+A2+P")),
        SchemeSetup("Flock", FlockInference(DEFAULT_PER_PACKET),
                    TelemetryConfig.from_spec("A2")),
        SchemeSetup("007", Vote007(threshold=0.6),
                    TelemetryConfig.from_spec("A2")),
    ]


def assert_metrics_identical(serial, merged):
    """Bit-identical metrics + predictions (timings are fresh per run)."""
    assert set(serial) == set(merged)
    for label, expected in serial.items():
        got = merged[label]
        assert got.accuracy == expected.accuracy, label
        assert len(got.per_trace) == len(expected.per_trace)
        for a, b in zip(expected.per_trace, got.per_trace):
            assert a.prediction == b.prediction
            assert a.metrics == b.metrics


class TestShardBounds:
    @pytest.mark.parametrize("n_items", [0, 1, 2, 5, 16, 17])
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
    def test_contiguous_balanced_cover(self, n_items, n_shards):
        bounds = shard_bounds(n_items, n_shards)
        assert len(bounds) == n_shards
        assert bounds[0][0] == 0 and bounds[-1][1] == n_items
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start
        sizes = [stop - start for start, stop in bounds]
        assert max(sizes) - min(sizes) <= 1

    def test_spec_bounds_match(self):
        for i in range(3):
            assert ShardSpec(i, 3).bounds(7) == shard_bounds(7, 3)[i]

    def test_validation(self):
        with pytest.raises(ExperimentError):
            shard_bounds(4, 0)
        with pytest.raises(ExperimentError):
            ShardSpec(2, 2)
        with pytest.raises(ExperimentError):
            ShardSpec(-1, 2)


class TestCodec:
    def test_trace_metrics_round_trip(self):
        metrics = TraceMetrics(precision=1 / 3, recall=2 / 7)
        wire = json.loads(json.dumps(trace_metrics_to_wire(metrics)))
        assert trace_metrics_from_wire(wire) == metrics

    @pytest.mark.parametrize("scores", [None, {}, {3: 0.1 + 0.2, 41: -7.25}])
    def test_prediction_round_trip(self, scores):
        prediction = Prediction(
            components=frozenset({3, 41}),
            scores=scores,
            log_likelihood=-123.456789012345,
            hypotheses_scanned=9001,
        )
        wire = json.loads(json.dumps(prediction_to_wire(prediction)))
        assert prediction_from_wire(wire) == prediction

    def test_empty_prediction_round_trip(self):
        wire = json.loads(json.dumps(prediction_to_wire(Prediction.empty())))
        assert prediction_from_wire(wire) == Prediction.empty()

    def test_trace_result_drops_problem(self, traces):
        setup = suite()[0]
        summary = evaluate(setup, traces[:1])
        result = summary.per_trace[0]
        assert result.problem is not None
        wire = json.loads(json.dumps(trace_result_to_wire(result)))
        back = trace_result_from_wire(wire)
        assert back.problem is None
        assert back.prediction == result.prediction
        assert back.metrics == result.metrics
        assert back.build_seconds == result.build_seconds
        assert back.inference_seconds == result.inference_seconds

    def test_eval_summary_round_trip(self, traces):
        setup = suite()[0]
        summary = evaluate(setup, traces[:2])
        wire = json.loads(json.dumps(eval_summary_to_wire(summary)))
        back = eval_summary_from_wire(wire)
        assert back.setup_label == summary.setup_label
        assert back.accuracy == summary.accuracy
        assert back.mean_inference_seconds == summary.mean_inference_seconds
        assert back.mean_build_seconds == summary.mean_build_seconds
        for a, b in zip(summary.per_trace, back.per_trace):
            assert a.prediction == b.prediction
            assert a.metrics == b.metrics

    @pytest.mark.parametrize(
        "decoder",
        [trace_metrics_from_wire, prediction_from_wire,
         trace_result_from_wire, eval_summary_from_wire],
    )
    def test_malformed_payloads_rejected(self, decoder):
        with pytest.raises(ExperimentError):
            decoder({"nope": 1})

    @pytest.mark.parametrize(
        "payload",
        [
            ["0.5", 0.5],                     # string where number expected
            [0.5, True],                      # bool is not a metric
        ],
    )
    def test_non_numeric_metrics_rejected(self, payload):
        with pytest.raises(ExperimentError, match="must be a number"):
            trace_metrics_from_wire(payload)

    def test_non_numeric_result_fields_rejected(self):
        good = trace_result_to_wire(
            # A minimal hand-built result, no evaluation needed.
            trace_result_from_wire({
                "p": {"c": [], "s": None, "ll": 0.0, "hs": 0},
                "m": [1.0, 1.0], "b": 0.1, "i": 0.2,
            })
        )
        bad = dict(good)
        bad["b"] = "0.1"
        with pytest.raises(ExperimentError, match="build_seconds"):
            trace_result_from_wire(bad)
        bad = dict(good)
        bad["p"] = dict(good["p"], hs="many")
        with pytest.raises(ExperimentError, match="hypotheses_scanned"):
            trace_result_from_wire(bad)
        bad = dict(good)
        bad["p"] = dict(good["p"], c=["x"])
        with pytest.raises(ExperimentError, match="component id"):
            trace_result_from_wire(bad)
        bad = dict(good)
        bad["p"] = dict(good["p"], s=[[1]])
        with pytest.raises(ExperimentError, match="pairs"):
            trace_result_from_wire(bad)
        bad = dict(good)
        bad["p"] = dict(good["p"], s=[[1, "x"]])
        with pytest.raises(ExperimentError, match="score value"):
            trace_result_from_wire(bad)

    def test_non_numeric_summary_fields_rejected(self):
        good = {"label": "x (A2)", "t": [], "a": [1.0, 1.0, 1.0, 1],
                "mi": 0.1, "mb": 0.2}
        assert eval_summary_from_wire(good).setup_label == "x (A2)"
        for key, value in (("mi", "0.1"), ("label", 3), ("t", "oops")):
            with pytest.raises(ExperimentError):
                eval_summary_from_wire({**good, key: value})


class TestShardDeterminism:
    @pytest.fixture(scope="class")
    def serial(self, traces):
        return run_grid(suite(), traces, RunnerConfig())

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5, 7])
    def test_any_shard_count_matches_serial(self, traces, serial, n_shards):
        # n_shards=7 > n_traces=5 exercises empty shards too.
        assert_metrics_identical(serial, run_sharded(suite(), traces, n_shards))

    def test_any_merge_order_matches_serial(self, traces, serial):
        recorders = []
        for index in range(3):
            recorder = ShardRecorder(ShardSpec(index, 3))
            run_grid(suite(), traces, RunnerConfig(shard=recorder))
            recorders.append(recorder)
        payloads = [r.payload() for r in recorders]
        for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0]):
            merged = merge_shards(
                suite(), traces, [payloads[i] for i in order]
            )
            assert_metrics_identical(serial, merged)

    def test_subprocess_shards_match_serial(self, traces, serial):
        merged = run_sharded(suite(), traces, 2, shard_jobs=2)
        assert_metrics_identical(serial, merged)

    def test_shard_results_are_json_serializable(self, traces):
        recorder = ShardRecorder(ShardSpec(0, 2))
        run_grid(suite(), traces, RunnerConfig(shard=recorder))
        payload = json.loads(json.dumps(recorder.payload()))
        assert payload["format"] == "flock-shard-v1"
        assert all(call["units"] for call in payload["calls"])

    def test_composes_with_process_executor(self, traces, serial):
        merged = run_sharded(
            suite(), traces, 2, RunnerConfig(executor="process", jobs=2)
        )
        assert_metrics_identical(serial, merged)


class TestMergeValidation:
    @pytest.fixture(scope="class")
    def payloads(self, traces):
        out = []
        for index in range(2):
            recorder = ShardRecorder(ShardSpec(index, 2))
            run_grid(suite(), traces, RunnerConfig(shard=recorder))
            out.append(recorder.payload(experiment="demo", preset="ci", seed=1))
        return out

    def test_empty_merge_rejected(self):
        with pytest.raises(ExperimentError, match="no shard payloads"):
            merge_payloads([])

    def test_incomplete_shard_set_rejected(self, payloads):
        with pytest.raises(ExperimentError, match="incomplete or duplicated"):
            merge_payloads(payloads[:1])

    def test_duplicated_shard_rejected(self, payloads):
        with pytest.raises(ExperimentError, match="incomplete or duplicated"):
            merge_payloads([payloads[0], payloads[0]])

    def test_mismatched_meta_rejected(self, payloads):
        other = dict(payloads[1])
        other["seed"] = 999
        with pytest.raises(ExperimentError, match="disagree on 'seed'"):
            merge_payloads([payloads[0], other])

    def test_coverage_gap_rejected(self, payloads):
        tampered = json.loads(json.dumps(payloads[1]))
        tampered["calls"][0]["units"].pop()
        with pytest.raises(ExperimentError, match="incomplete shard coverage"):
            merge_payloads([payloads[0], tampered])

    def test_wrong_format_rejected(self, payloads):
        bad = dict(payloads[0])
        bad["format"] = "something-else"
        with pytest.raises(ExperimentError, match="not a flock-shard"):
            merge_payloads([bad, payloads[1]])

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda p: p.pop("shard_index"),
            lambda p: p.update(shard_index="zero"),
            lambda p: p.pop("calls"),
            lambda p: p.update(calls={"not": "a list"}),
            lambda p: p["calls"][0].pop("units"),
            lambda p: p["calls"][0]["units"].append(["bad-idx", []]),
            lambda p: p["calls"][0]["units"].append([0]),
            lambda p: p["calls"][0]["units"].append([0, 5]),
        ],
    )
    def test_structurally_malformed_payload_rejected(self, payloads, corrupt):
        # Truncated or hand-edited shard files must fail as
        # ExperimentError (clean CLI error), never TypeError/KeyError.
        tampered = json.loads(json.dumps(payloads[0]))
        corrupt(tampered)
        with pytest.raises(ExperimentError):
            merge_payloads([tampered, payloads[1]])

    def test_non_dict_payload_rejected(self):
        with pytest.raises(ExperimentError, match="must be an object"):
            merge_payloads([["not", "a", "dict"]])

    def test_zero_trace_merge_rejected(self):
        # Every shard recorded zero-trace grids: merging must refuse to
        # report metrics instead of claiming a vacuous perfect score.
        payload = ShardRecorder(ShardSpec(0, 1)).payload()
        payload["calls"] = [{"labels": ["x (A2)"], "n_traces": 0, "units": []}]
        with pytest.raises(ExperimentError, match="no evaluated traces"):
            merge_payloads([payload])

    def test_replay_shape_mismatch_rejected(self, traces, payloads):
        wrong_setups = suite()[:1]
        with pytest.raises(ExperimentError, match="shard replay mismatch"):
            merge_shards(wrong_setups, traces, payloads)

    def test_replay_exhaustion_rejected(self, traces, payloads):
        calls, _meta = merge_payloads(payloads)
        replayer = ShardReplayer(calls)
        config = RunnerConfig(shard=replayer)
        run_grid(suite(), traces, config)
        with pytest.raises(ExperimentError, match="replay exhausted"):
            run_grid(suite(), traces, config)

    def test_unconsumed_calls_rejected(self, traces, payloads):
        # The opposite direction: shards recorded more grid calls than
        # the (since-edited) driver replays; silence would mean a
        # complete-looking but partial merged result.
        extra = [json.loads(json.dumps(p)) for p in payloads]
        for payload in extra:
            payload["calls"].append(payload["calls"][0])
        with pytest.raises(ExperimentError, match="replay incomplete"):
            merge_shards(suite(), traces, extra)

    def test_nested_sharding_rejected(self, traces):
        config = RunnerConfig(shard=ShardRecorder(ShardSpec(0, 2)))
        with pytest.raises(ExperimentError, match="cannot nest"):
            run_sharded(suite(), traces, 2, config)


class TestCliValidation:
    def test_shards_requires_index_and_out(self, capsys):
        from repro.cli import main

        assert main(["run", "fig2", "--shards", "2"]) == 2
        assert "requires --shard-index" in capsys.readouterr().err

    def test_shard_flags_require_shards(self, capsys):
        from repro.cli import main

        assert main(["run", "fig2", "--shard-index", "0"]) == 2
        assert "only valid with --shards" in capsys.readouterr().err

    def test_unshardable_experiment_rejected(self, capsys, tmp_path):
        from repro.cli import main

        code = main([
            "run", "table1", "--shards", "2", "--shard-index", "0",
            "--out", str(tmp_path / "s.json"),
        ])
        assert code == 2
        assert "cannot be sharded" in capsys.readouterr().err

    def test_merge_rejects_non_shard_file(self, capsys, tmp_path):
        from repro.cli import main

        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"format": "flock-trace-v1"}))
        assert main(["merge", str(bogus)]) == 2
        assert "not a flock-shard" in capsys.readouterr().err

    def test_merge_rejects_unshardable_experiment_fast(self, capsys, tmp_path):
        # Hand-crafted shard files naming a no-runner experiment must
        # fail before any (possibly minutes-long) re-execution starts.
        from repro.cli import main

        shard = tmp_path / "fig4c.json"
        shard.write_text(json.dumps({
            "format": "flock-shard-v1", "shard_index": 0, "n_shards": 1,
            "calls": [], "experiment": "fig4c", "preset": "ci", "seed": None,
        }))
        assert main(["merge", str(shard)]) == 2
        assert "not shardable" in capsys.readouterr().err

    def test_merge_rejects_unreadable_file(self, capsys, tmp_path):
        # The CLI contract: package errors print `repro-flock: error:`
        # and exit 2, never a traceback.
        from repro.cli import main

        garbled = tmp_path / "garbled.json"
        garbled.write_text("not json at all")
        assert main(["merge", str(garbled)]) == 2
        assert "cannot read shard file" in capsys.readouterr().err
        assert main(["merge", str(tmp_path / "missing.json")]) == 2
        assert "cannot read shard file" in capsys.readouterr().err
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe\x00\x01")
        assert main(["merge", str(binary)]) == 2
        assert "cannot read shard file" in capsys.readouterr().err


class TestCliEndToEnd:
    """The acceptance path: fig2 split into 2 OS-process shards, merged
    via the CLI, bit-identical (metrics) to the serial run."""

    def _cli(self, *argv, cwd):
        import os

        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            cwd=cwd, env=env,
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_fig2_two_process_shards_merge_bit_identical(self, tmp_path):
        from repro.eval.reporting import load_result
        from repro.eval.spec import run_experiment

        for index in range(2):
            out = self._cli(
                "run", "fig2", "--preset", "ci",
                "--shards", "2", "--shard-index", str(index),
                "--out", f"s{index}.json",
                cwd=tmp_path,
            )
            assert f"shard {index + 1}/2 of fig2" in out
        self._cli(
            "merge", "s0.json", "s1.json", "--out", "merged.json",
            cwd=tmp_path,
        )
        merged = load_result(tmp_path / "merged.json")
        serial = run_experiment("fig2", preset="ci")
        assert merged.experiment == "fig2"
        assert merged.rows == serial.rows
