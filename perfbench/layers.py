"""Per-layer spans recorded from outside the program.

A traced run installs wrappers around each layer's public entry points
(:data:`LAYER_SPANS`) and a few counting wrappers (:data:`COUNTERS`),
runs the workload, then restores the originals. Nothing under ``src/``
is edited: the wrappers are module attributes swapped in for the
duration of the run, so only work done in this process is seen (every
in-process workload runs its engines at ``jobs=1``).

Spans are kept in memory as ``[name, start, end, parent]`` lists and
written out when the run ends; :func:`layer_metrics` turns them into the
per-layer metrics of ``BENCHMARK.json``.

Which end-to-end metric a change to each layer should move:

============  ==========================================================
layer         end-to-end metric it should move, on which workload
============  ==========================================================
core          ``wall_s`` on paper_flows and synthetic_scale
routing       ``wall_s`` on synthetic_scale (``route_swap``, the delta
              path) and paper_flows (netproc, ``route_all``)
floorplan     ``wall_s`` on paper_flows (converged power flow); none on
              synthetic_scale
physical      ``wall_s`` on paper_flows
xpipes        ``wall_s`` on paper_flows (under 1%: watch only)
simulation    ``wall_s`` on campaign_sweep; ``req_p95_ms`` on service_mix
engine        ``req_p50_ms``/``req_p95_ms`` on service_mix; none on
              paper_flows
service       ``req_p95_ms`` and ``req_within_limit_frac`` on service_mix
============  ==========================================================

``obs.trace_overhead_frac`` (traced over untraced ``wall_s``, from two
processes) bounds how far the breakdown can be trusted; on this
benchmark it is dominated by run-to-run machine noise.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter
from pathlib import Path

from perfbench.measure import self_times, span_counts

#: ``(module, class or None, attribute, span name)`` of every wrapped
#: layer entry point. Functions are patched where their callers look
#: them up (``map_onto`` is called through ``repro.engine.jobs``,
#: ``floorplan_mapping`` through ``repro.core.evaluate``, netlist and
#: SystemC generation through ``repro.sunmap``).
LAYER_SPANS = (
    ("repro.engine.engine", "ExplorationEngine", "run", "engine.run"),
    ("repro.engine.jobs", None, "map_onto", "core.map_onto"),
    ("repro.routing.base", "RoutingFunction", "route_all", "routing.route_all"),
    (
        "repro.routing.incremental", "IncrementalRoutingEngine",
        "route_swap", "routing.route_swap",
    ),
    ("repro.core.evaluate", None, "floorplan_mapping", "floorplan"),
    (
        "repro.physical.estimate", "NetworkEstimator",
        "network_power_mw", "physical.estimate",
    ),
    (
        "repro.physical.estimate", "NetworkEstimator",
        "switches_area_mm2", "physical.estimate",
    ),
    (
        "repro.physical.estimate", "NetworkEstimator",
        "channels_area_mm2", "physical.estimate",
    ),
    (
        "repro.physical.estimate", "NetworkEstimator",
        "used_switches", "physical.estimate",
    ),
    ("repro.sunmap", None, "build_netlist", "xpipes"),
    ("repro.sunmap", None, "generate_systemc", "xpipes"),
    (
        "repro.engine.jobs", None, "execute_simulation_job",
        "simulation.exact",
    ),
    (
        "repro.engine.jobs", None, "execute_batch_simulation_job",
        "simulation.batch",
    ),
)

#: ``(module, class or None, attribute, counter)`` of calls that are
#: counted but not spanned: the mapping memo's lookups and its
#: from-scratch evaluations.
COUNTERS = (
    ("repro.core.memo", "MemoizedMappingEvaluator", "evaluate", "memo.lookups"),
    (
        "repro.core.memo", "MemoizedMappingEvaluator", "evaluate_swap",
        "memo.swap_lookups",
    ),
    ("repro.core.memo", None, "evaluate_mapping", "memo.scratch_evals"),
)

#: Span names that belong to the benchmark itself; their self time is
#: the unattributed remainder.
BENCH_SPANS = ("bench.section", "bench.op")


class SpanRecorder:
    """In-memory spans plus named counters for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._swap_depth = 0

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = self.clock()

    def in_section(self) -> bool:
        """Whether the ``bench.section`` root is open (counters only
        count work of the timed section)."""
        stack = self._stack
        return bool(stack) and self.spans[stack[0]][0] == "bench.section"

    def add_span(self, name: str, start: float, end: float, parent: int = -1):
        """Record a span measured elsewhere (service requests); returns
        its index."""
        self.spans.append([name, start, end, parent])
        return len(self.spans) - 1

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recorded as a span named ``name`` on every call."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if on_result is not None and self.in_section():
                on_result(self, args, kwargs, result)
            return result

        return traced

    def count(self, counter: str, fn):
        """``fn`` with its calls tallied under ``counter``.

        The memo's from-scratch evaluations are split by whether they
        serve a swap lookup (``evaluate_swap`` chose the from-scratch
        path) or a plain lookup.
        """
        counters = self.counters

        if counter == "memo.swap_lookups":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counters[counter] += self.in_section()
                self._swap_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._swap_depth -= 1
        elif counter == "memo.scratch_evals":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.in_section():
                    counters[counter] += 1
                    if self._swap_depth:
                        counters["memo.swap_scratch_evals"] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counters[counter] += self.in_section()
                return fn(*args, **kwargs)

        return counted

    def write(self, path: Path) -> None:
        """Write the spans and counters as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": self.spans, "counters": dict(self.counters)},
                handle,
                separators=(",", ":"),
            )


def _count_sim_cycles(recorder: SpanRecorder, args, kwargs, result) -> None:
    """Tally simulated cycles of one exact-lane point."""
    report = result.value
    if result.error is None and report is not None:
        recorder.counters["simulation.exact.cycles"] += report.cycles


def _count_batch_cycles(recorder: SpanRecorder, args, kwargs, result) -> None:
    """Tally lanes, groups and lane-cycles of one batch-lane group."""
    recorder.counters["simulation.batch.groups"] += 1
    for point in result.value or ():
        recorder.counters["simulation.batch.points"] += 1
        if point.error is None and point.value is not None:
            recorder.counters["simulation.batch.cycles"] += point.value.cycles


def _count_engine_jobs(recorder: SpanRecorder, args, kwargs, result) -> None:
    """Tally jobs submitted to ``ExplorationEngine.run``."""
    jobs = args[1] if len(args) > 1 else kwargs["jobs"]
    recorder.counters["engine.jobs"] += len(jobs)


_ON_RESULT = {
    "execute_simulation_job": _count_sim_cycles,
    "execute_batch_simulation_job": _count_batch_cycles,
    "run": _count_engine_jobs,
}


@contextlib.contextmanager
def installed(recorder: SpanRecorder | None):
    """Swap the layer wrappers in for the enclosed block (no-op for
    ``None``), restoring every original on exit."""
    if recorder is None:
        yield
        return
    saved = []
    try:
        for module_name, cls_name, attr, name in LAYER_SPANS:
            owner = _owner(module_name, cls_name)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(
                owner, attr,
                recorder.wrap(name, original, _ON_RESULT.get(attr)),
            )
        for module_name, cls_name, attr, counter in COUNTERS:
            owner = _owner(module_name, cls_name)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.count(counter, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _owner(module_name: str, cls_name: str | None):
    module = importlib.import_module(module_name)
    return module if cls_name is None else getattr(module, cls_name)


def timed_spans(spans) -> list:
    """The ``bench.section`` spans and their descendants, re-indexed.

    A span is always recorded after its parent, so one forward pass
    decides membership.
    """
    keep: dict[int, int] = {}
    kept = []
    for index, (name, start, end, parent) in enumerate(spans):
        if name == "bench.section" or parent in keep:
            keep[index] = len(kept)
            kept.append((name, start, end, keep.get(parent, -1)))
    return kept


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Per-layer metrics from a traced run's spans and counters.

    Only spans inside the ``bench.section`` root count (work a workload
    does after its timed section, such as re-computing answers for an
    output check, does not). Layer self times plus
    ``bench.unattributed_s`` add up to ``bench.traced_wall_s``, the
    duration of the root.
    """
    spans = timed_spans(recorder.spans)
    self_s = self_times(spans)
    calls = span_counts(spans)
    counters = recorder.counters
    inclusive: Counter = Counter()
    for name, start, end, _parent in spans:
        inclusive[name] += end - start

    delta = calls.get("routing.route_swap", 0)
    scratch = counters["memo.scratch_evals"]
    swap_scratch = counters["memo.swap_scratch_evals"]
    evals = scratch + delta
    lookups = counters["memo.lookups"] + counters["memo.swap_lookups"]
    exact_self = self_s.get("simulation.exact", 0.0)
    batch_self = self_s.get("simulation.batch", 0.0)
    groups = counters["simulation.batch.groups"]
    wall = inclusive.get("bench.section", 0.0)
    attributed = sum(
        t for name, t in self_s.items() if name not in BENCH_SPANS
    )
    return {
        "core.map_onto.self_s": self_s.get("core.map_onto", 0.0),
        "core.map_onto.calls": calls.get("core.map_onto", 0),
        "core.evals": evals,
        "core.evals_per_s": _ratio(evals, inclusive.get("core.map_onto", 0.0)),
        "core.memo_hit_ratio": _ratio(lookups - evals, lookups),
        "routing.route_all.self_s": self_s.get("routing.route_all", 0.0),
        "routing.route_all.calls": calls.get("routing.route_all", 0),
        "routing.route_swap.self_s": self_s.get("routing.route_swap", 0.0),
        "routing.route_swap.calls": delta,
        "routing.delta_swap_frac": _ratio(delta, delta + swap_scratch),
        "floorplan.self_s": self_s.get("floorplan", 0.0),
        "floorplan.calls": calls.get("floorplan", 0),
        "physical.estimate.self_s": self_s.get("physical.estimate", 0.0),
        "physical.estimate.calls": calls.get("physical.estimate", 0),
        "xpipes.self_s": self_s.get("xpipes", 0.0),
        "simulation.exact.self_s": exact_self,
        "simulation.exact.points": calls.get("simulation.exact", 0),
        "simulation.exact.cycles_per_s": _ratio(
            counters["simulation.exact.cycles"], exact_self
        ),
        "simulation.batch.self_s": batch_self,
        "simulation.batch.points": counters["simulation.batch.points"],
        "simulation.batch.lanes_per_group": _ratio(
            counters["simulation.batch.points"], groups
        ),
        "simulation.batch.cycles_per_s": _ratio(
            counters["simulation.batch.cycles"], batch_self
        ),
        "engine.run.self_s": self_s.get("engine.run", 0.0),
        "engine.jobs": counters["engine.jobs"],
        "service.request.self_s": self_s.get("service.request", 0.0),
        "bench.traced_wall_s": wall,
        "bench.unattributed_s": wall - attributed,
    }
