"""Tests of the benchmark's own arithmetic.

Run from the repository root with::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import run
from perfbench.layers import SpanRecorder, layer_metrics
from perfbench.measure import (
    MIN_SAMPLES_BEYOND,
    Op,
    failed_count,
    failed_frac,
    lane_agreement,
    percentile,
    samples_beyond,
    self_times,
    within_limit_frac,
)

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class TestSelfTime:
    def test_nested_spans_subtract_their_children(self):
        spans = [
            ("root", 0.0, 10.0, -1),
            ("mid", 1.0, 6.0, 0),
            ("leaf", 2.0, 3.0, 1),
        ]
        assert self_times(spans) == pytest.approx(
            {"root": 5.0, "mid": 4.0, "leaf": 1.0}
        )

    def test_sibling_spans_each_subtract_from_the_parent(self):
        spans = [
            ("root", 0.0, 10.0, -1),
            ("a", 1.0, 3.0, 0),
            ("b", 4.0, 8.0, 0),
            ("a", 8.5, 9.0, 0),
        ]
        assert self_times(spans) == pytest.approx(
            {"root": 3.5, "a": 2.5, "b": 4.0}
        )

    def test_overlapping_children_are_covered_once(self):
        # Two requests in flight together cover [1, 5] of the root.
        spans = [
            ("root", 0.0, 10.0, -1),
            ("req", 1.0, 4.0, 0),
            ("req", 2.0, 5.0, 0),
        ]
        times = self_times(spans)
        assert times["root"] == pytest.approx(6.0)
        assert times["req"] == pytest.approx(4.0)

    def test_children_outside_the_parent_are_clipped(self):
        spans = [("root", 0.0, 2.0, -1), ("late", 1.5, 3.0, 0)]
        assert self_times(spans)["root"] == pytest.approx(1.5)

    def test_layer_self_times_and_remainder_add_up_to_the_wall(self):
        recorder = SpanRecorder()
        recorder.spans.extend([
            ["bench.section", 0.0, 10.0, -1],
            ["bench.op", 0.5, 9.0, 0],
            ["engine.run", 1.0, 8.0, 1],
            ["core.map_onto", 1.5, 6.0, 2],
            ["routing.route_all", 2.0, 3.0, 3],
            ["physical.estimate", 3.5, 4.0, 3],
            ["physical.estimate", 3.6, 3.7, 5],
        ])
        metrics = layer_metrics(recorder)
        layers = (
            metrics["engine.run.self_s"]
            + metrics["core.map_onto.self_s"]
            + metrics["routing.route_all.self_s"]
            + metrics["physical.estimate.self_s"]
        )
        assert metrics["bench.traced_wall_s"] == pytest.approx(10.0)
        assert layers + metrics["bench.unattributed_s"] == pytest.approx(10.0)
        assert metrics["bench.unattributed_s"] == pytest.approx(3.0)
        assert metrics["physical.estimate.calls"] == 2
        assert metrics["physical.estimate.self_s"] == pytest.approx(0.5)

    def test_recorder_wrap_nests_spans(self):
        ticks = iter(range(100))
        recorder = SpanRecorder(clock=lambda: float(next(ticks)))
        inner = recorder.wrap("inner", lambda: "x")
        outer = recorder.wrap("outer", lambda: inner() + inner())
        with recorder.span("bench.section"):
            assert outer() == "xx"
        names = [(s[0], s[3]) for s in recorder.spans]
        assert names == [
            ("bench.section", -1), ("outer", 0), ("inner", 1), ("inner", 1),
        ]


class TestPercentiles:
    def test_interpolates_between_order_statistics(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)
        assert percentile([5.0], 95.0) == 5.0

    @pytest.mark.parametrize(
        ("n", "q", "beyond"),
        [(182, 95.0, 10), (181, 95.0, 9), (200, 95.0, 10), (902, 99.0, 10),
         (901, 99.0, 9), (20, 50.0, 10), (19, 50.0, 9)],
    )
    def test_samples_beyond_the_percentile(self, n, q, beyond):
        assert samples_beyond([float(i) for i in range(n)], q) == beyond

    def test_p95_sample_size_rule(self):
        # p95 has ten samples beyond it from 182 samples on, so a run of
        # that size may report it; a smaller one may not.
        assert samples_beyond([float(i) for i in range(182)], 95.0) >= (
            MIN_SAMPLES_BEYOND
        )
        assert samples_beyond([float(i) for i in range(181)], 95.0) < (
            MIN_SAMPLES_BEYOND
        )

    def test_ties_at_the_cut_are_not_beyond(self):
        assert samples_beyond([1.0] * 50 + [2.0] * 10, 50.0) == 10


class TestOpenLoop:
    def test_latency_is_timed_from_the_scheduled_send(self):
        # The generator ran 0.5 s late; the user waited 0.7 s.
        op = Op(due=10.0, sent=10.5, done=10.7, ok=True)
        assert op.latency_s == pytest.approx(0.7)
        assert op.late_s == pytest.approx(0.5)

    def test_stall_is_charged_to_the_delayed_requests(self):
        ops = [
            Op(due=0.0, sent=0.0, done=1.0, ok=True),
            Op(due=0.1, sent=1.0, done=1.05, ok=True),
        ]
        assert [op.latency_s for op in ops] == pytest.approx([1.0, 0.95])
        assert within_limit_frac(ops, 0.5) == 0.0

    def test_unanswered_request_has_unbounded_latency(self):
        assert Op(due=0.0, sent=0.0, done=None, ok=False).latency_s == math.inf


class TestFailures:
    def test_refused_and_unanswered_requests_count_as_failed(self):
        ops = [
            Op(due=0.0, sent=0.0, done=0.1, ok=True),
            Op(due=0.1, sent=0.1, done=0.12, ok=False),  # busy rejection
            Op(due=0.2, sent=0.2, done=None, ok=False),  # never answered
            Op(due=0.3, sent=0.3, done=0.4, ok=True),
        ]
        assert failed_count(ops) == 2
        assert failed_frac(ops) == pytest.approx(0.5)

    def test_a_fast_refusal_misses_the_latency_limit(self):
        ops = [
            Op(due=0.0, sent=0.0, done=0.01, ok=False),
            Op(due=0.0, sent=0.0, done=0.2, ok=True),
        ]
        assert within_limit_frac(ops, 1.0) == pytest.approx(0.5)

    def test_no_operations_is_an_error(self):
        with pytest.raises(ValueError):
            failed_frac([])


def _curve(saturation_rate, avg_latency):
    return SimpleNamespace(
        saturation_rate=saturation_rate, avg_latency=avg_latency
    )


class TestLaneAgreement:
    RATES = (0.1, 0.2, 0.3, 0.4)

    def _campaign(self, **curves):
        return SimpleNamespace(curves=curves)

    def test_adjacent_saturation_agrees_but_is_not_an_exact_match(self):
        exact = self._campaign(
            app=_curve(0.3, (10.0, 12.0, 50.0, 90.0)),
            uniform=_curve(None, (10.0, 11.0, 12.0, 13.0)),
        )
        batch = self._campaign(
            app=_curve(0.4, (11.0, 12.0, 45.0, 80.0)),
            uniform=_curve(0.4, (10.0, 11.0, 12.0, 30.0)),
        )
        agree, matches, patterns, errors = lane_agreement(
            exact, batch, self.RATES
        )
        assert agree and (matches, patterns) == (0, 2)
        # Errors only below both lanes' saturation: app 0.1/0.2,
        # uniform 0.1/0.2/0.3.
        assert errors == pytest.approx([0.1, 0.0, 0.0, 0.0, 0.0])

    def test_saturation_two_steps_apart_disagrees(self):
        exact = self._campaign(app=_curve(0.2, (10.0, 50.0, 90.0, 99.0)))
        batch = self._campaign(app=_curve(0.4, (10.0, 12.0, 14.0, 60.0)))
        agree, matches, _, _ = lane_agreement(exact, batch, self.RATES)
        assert not agree and matches == 0


class TestBenchmarkJson:
    @pytest.fixture(scope="class")
    def spec(self):
        return json.loads(BENCHMARK.read_text(encoding="utf-8"))

    def test_metrics_match_the_runner(self, spec):
        assert {
            m["name"]: m["unit"] for m in spec["end_to_end"]
        } == run.END_TO_END_UNITS
        assert {
            m["name"]: m["unit"] for m in spec["per_layer"]
        } == run.PER_LAYER_UNITS

    def test_workload_latency_limits_match_the_runner(self, spec):
        workloads = {w["name"]: w["why"] for w in spec["workloads"]}
        assert set(workloads) == set(run.LATENCY_LIMIT_MS)
        for name, why in workloads.items():
            stated = re.search(r"limit (\d+) ms", why)
            assert stated, name
            assert float(stated.group(1)) == run.LATENCY_LIMIT_MS[name]
