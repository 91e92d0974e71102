"""Tests of the benchmark's own arithmetic.

Run with ``python3 -m pytest perfbench/test_perfbench.py -q``; they
need neither the program nor a timing run.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    digest,
    percentile,
    reportable_percentile,
    spread,
    summarize_latencies,
)
from layers import PER_LAYER  # noqa: E402
from spans import Probe, Span, Tracer, instrument, layer_totals, self_times  # noqa: E402


def span(id, name, start, end, parent=None):
    return Span(id, name, start, end, parent, "r", 0)


# -- percentiles -------------------------------------------------------


def test_percentile_nearest_rank_and_beyond_count():
    samples = list(range(1, 101))  # 1..100
    assert percentile(samples, 0.5) == (50, 50)
    assert percentile(samples, 0.9) == (90, 10)
    assert percentile(samples, 1.0) == (100, 0)
    assert percentile([3.0], 0.9) == (3.0, 0)


def test_percentile_ignores_input_order():
    assert percentile([5, 1, 4, 2, 3], 0.5) == percentile([1, 2, 3, 4, 5], 0.5)


def test_p90_needs_ten_samples_beyond_it():
    assert reportable_percentile(list(range(100)), 0.9) == 89
    # 99 samples: rank ceil(89.1) = 90 leaves only 9 beyond.
    assert reportable_percentile(list(range(99)), 0.9) is None
    assert reportable_percentile([], 0.9) is None


def test_summary_reports_counts_with_the_percentiles():
    short = summarize_latencies([0.010] * 50)
    assert short["n"] == 50 and short["beyond_p90"] == 5
    assert short["p50_ms"] == pytest.approx(10.0) and short["p90_ms"] is None
    long = summarize_latencies([i / 1000 for i in range(1, 201)])
    assert long["n"] == 200 and long["beyond_p90"] == 20
    assert long["p90_ms"] == pytest.approx(180.0)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


def test_spread_is_quartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / median)
    assert spread([5.0] * 10) == 0.0


# -- self time ---------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        span(1, "op", 0.0, 10.0),
        span(2, "a", 2.0, 5.0, parent=1),
        span(3, "b", 3.0, 4.0, parent=2),
    ]
    assert self_times(spans) == {1: 7.0, 2: 2.0, 3: 1.0}


def test_self_time_of_disjoint_siblings():
    spans = [
        span(1, "op", 0.0, 10.0),
        span(2, "a", 1.0, 3.0, parent=1),
        span(3, "a", 5.0, 6.0, parent=1),
    ]
    assert self_times(spans)[1] == pytest.approx(7.0)


def test_self_time_counts_overlapping_siblings_once():
    # Two worker threads' spans under one drain overlap in time.
    spans = [
        span(1, "op", 0.0, 10.0),
        span(2, "w", 1.0, 6.0, parent=1),
        span(3, "w", 4.0, 8.0, parent=1),
    ]
    assert self_times(spans)[1] == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span(1, "op", 0.0, 4.0), span(2, "a", 3.0, 6.0, parent=1)]
    assert self_times(spans)[1] == pytest.approx(3.0)


def test_self_times_sum_to_the_root():
    spans = [
        span(1, "op", 0.0, 10.0),
        span(2, "a", 1.0, 4.0, parent=1),
        span(3, "b", 2.0, 3.0, parent=2),
        span(4, "c", 5.0, 9.5, parent=1),
    ]
    assert sum(self_times(spans).values()) == pytest.approx(10.0)


def test_layer_totals_count_reentrant_busy_time_once():
    spans = [
        span(1, "op", 0.0, 10.0),
        span(2, "a", 1.0, 5.0, parent=1),
        span(3, "a", 2.0, 3.0, parent=2),
        span(4, "b", 6.0, 7.0, parent=1),
    ]
    totals = layer_totals(spans)
    assert totals["a"].calls == 2
    assert totals["a"].busy_s == pytest.approx(4.0)
    assert totals["a"].self_s == pytest.approx(4.0)
    assert totals["op"].self_s == pytest.approx(5.0)


def test_tracer_nests_per_thread_and_adopts_across_threads():
    tracer = Tracer()
    with tracer.span("op") as root:
        with tracer.span("inner"):
            pass

        def work():
            with tracer.span("w", parent=root):
                with tracer.span("x"):
                    pass

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(10)
        assert not worker.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == root
    assert by_name["w"].parent == root
    assert by_name["x"].parent == by_name["w"].id
    assert by_name["op"].parent is None


def test_instrument_wraps_and_restores():
    class Thing:
        def method(self, x):
            return x + 1

        @classmethod
        def build(cls, x):
            return cls, x

    module = types.SimpleNamespace(fn=lambda x: x * 2)
    originals = (Thing.__dict__["method"], Thing.__dict__["build"], module.fn)
    tracer = Tracer()
    seen = []
    probes = [
        Probe(Thing, "method", "thing.method", lambda t, r: seen.append(r)),
        Probe(Thing, "build", "thing.build"),
        Probe(module, "fn", "module.fn"),
    ]
    with instrument(tracer, probes):
        assert Thing().method(1) == 2
        assert Thing.build(3) == (Thing, 3)
        assert module.fn(4) == 8
    assert seen == [2]
    assert [s.name for s in tracer.spans] == ["thing.method", "thing.build", "module.fn"]
    assert (Thing.__dict__["method"], Thing.__dict__["build"], module.fn) == originals


# -- digests -----------------------------------------------------------


def test_digest_ignores_key_order():
    a = [{"scheme": "Flock (INT)", "fscore": 0.5, "recall": 1.0}]
    b = [{"recall": 1.0, "fscore": 0.5, "scheme": "Flock (INT)"}]
    assert digest(a) == digest(b)


def test_digest_sees_the_last_float_digit():
    assert digest([{"fscore": 0.1 + 0.2}]) != digest([{"fscore": 0.3}])


def test_digest_sees_row_order():
    assert digest([{"a": 1}, {"a": 2}]) != digest([{"a": 2}, {"a": 1}])


def test_digest_treats_numpy_scalars_and_tuples_like_python():
    np = pytest.importorskip("numpy")
    assert digest([{"x": np.float64(0.25), "p": (1, 2)}]) == digest([{"x": 0.25, "p": [1, 2]}])


def test_digest_is_stable_across_calls():
    rows = [{"volume": "low", "fscore": 0.6943743264986787}]
    assert digest(rows) == digest(json.loads(json.dumps(rows)))
    assert len(digest(rows)) == 64


def test_digest_canonical_form_is_pinned():
    # pins.json holds digests in this form; changing the canonical
    # encoding would silently invalidate every pin.
    rows = [{"scheme": "Flock (INT)", "fscore": 0.6943743264986787, "n_passive": 1000}]
    assert digest(rows) == "cba8d6f859f8dea3a76de15d7780049f184ec07cc94152a39a0f38d482b63f04"


# -- declared metrics --------------------------------------------------


def test_benchmark_json_lists_the_layer_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert declared == [(name, unit, better) for name, unit, better, _ in PER_LAYER]
    assert all(moves for *_, moves in PER_LAYER)
