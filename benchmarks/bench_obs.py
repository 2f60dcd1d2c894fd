"""Benchmark: what does observability cost?

Two questions, answered on a real campaign workload:

1. **Always-on metrics** — the registry counters/histograms are part of
   the production path and cannot be disabled, so their cost is bounded
   from microbenchmarks: per-event instrument cost x events per run,
   expressed as a fraction of the run's wall time.
2. **Tracing on vs off** — the A/B that can be measured directly: the
   same campaign with a JSONL trace sink installed vs untraced, best of
   N repetitions each, interleaved to cancel thermal/cache drift. The
   run also asserts bit-identity of the two campaign payloads (modulo
   the volatile ``runtime`` block).

Both overheads must land under the documented 5% budget
(``docs/OBSERVABILITY.md``); the committed record is ``BENCH_obs.json``
at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py
    PYTHONPATH=src python benchmarks/bench_obs.py --smoke --check
    PYTHONPATH=src python benchmarks/bench_obs.py --smoke --json PATH
"""

from __future__ import annotations

import json
import sys
import time

import harness
from repro.apps import vopd
from repro.core.greedy import initial_greedy_mapping
from repro.obs import JsonlSink, add_sink, get_registry, remove_sink, span
from repro.simulation.campaign import (
    CampaignConfig,
    run_campaign,
    strip_runtime,
)
from repro.topology.library import make_topology

#: The documented overhead ceiling (docs/OBSERVABILITY.md).
BUDGET = 0.05

#: Absolute wall-clock slack for the ratio gate: sub-second smoke
#: workloads jitter by tens of milliseconds, which would dwarf any real
#: ratio; a delta below this floor is noise, not overhead.
NOISE_FLOOR_S = 0.025


def canonical(value) -> str:
    """Canonical JSON for bit-identity comparison."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def instrument_costs(loops: int) -> dict:
    """Per-event cost (seconds) of each instrument primitive."""
    registry = get_registry()
    counter = registry.counter("repro_bench_obs_total", "bench", ("kind",))
    histogram = registry.histogram("repro_bench_obs_seconds", "bench", ("kind",))

    start = time.perf_counter()
    for _ in range(loops):
        counter.inc(kind="bench")
    counter_s = (time.perf_counter() - start) / loops

    start = time.perf_counter()
    for _ in range(loops):
        histogram.observe(0.01, kind="bench")
    histogram_s = (time.perf_counter() - start) / loops

    start = time.perf_counter()
    for _ in range(loops):
        with span("bench.noop"):
            pass
    span_off_s = (time.perf_counter() - start) / loops

    return {
        "counter_inc_s": counter_s,
        "histogram_observe_s": histogram_s,
        "span_noop_s": span_off_s,
    }


def campaign_once(app, topology, assignment, config) -> tuple[float, dict]:
    """One campaign run; returns (wall seconds, stripped payload)."""
    start = time.perf_counter()
    result = run_campaign(
        topology, core_graph=app, assignment=assignment, config=config
    )
    return time.perf_counter() - start, strip_runtime(result.to_dict())


def main(argv=None) -> int:
    args = harness.parse_args(
        "obs", __doc__, argv,
        smoke_help="reduced budget (CI)",
        check_help="fail if overhead exceeds the 5%% budget",
    )
    out_path = harness.output_path("obs", args)

    reps = 2 if args.smoke else 4
    measure = 400 if args.smoke else 2000
    loops = 20_000 if args.smoke else 200_000

    app = vopd()
    topology = make_topology("mesh", app.num_cores)
    assignment = initial_greedy_mapping(app, topology)
    rates = (0.05, 0.1) if args.smoke else (0.05, 0.1, 0.2, 0.3)
    config = CampaignConfig(
        rates=rates,
        patterns=("uniform",) if args.smoke else ("uniform", "transpose"),
        seeds=(1,),
        warmup=measure // 4,
        measure=measure,
        drain=measure // 2,
    )

    # Warm imports, topology layouts and code paths.
    campaign_once(app, topology, assignment, config)

    traced_times, untraced_times = [], []
    traced_payload = untraced_payload = None
    trace_file = out_path.with_suffix(".trace.jsonl")
    for _ in range(reps):
        wall, untraced_payload = campaign_once(
            app, topology, assignment, config
        )
        untraced_times.append(wall)
        sink = JsonlSink(str(trace_file))
        add_sink(sink)
        try:
            wall, traced_payload = campaign_once(
                app, topology, assignment, config
            )
        finally:
            remove_sink(sink)
            sink.close()
        traced_times.append(wall)
    trace_file.unlink(missing_ok=True)

    if canonical(traced_payload) != canonical(untraced_payload):
        print("FAIL: traced campaign payload differs from untraced")
        return 1

    untraced = min(untraced_times)
    traced = min(traced_times)
    tracing_overhead = max(0.0, traced / untraced - 1.0)

    costs = instrument_costs(loops)
    # The campaign above issues on the order of one histogram + a few
    # counter updates per engine job (point); even a 1000x denser
    # workload stays far under budget, but record the measured
    # projection for this workload honestly.
    events_per_run = 6 * len(rates) * len(config.patterns)
    metrics_overhead = (
        events_per_run
        * max(costs["counter_inc_s"], costs["histogram_observe_s"])
        / untraced
    )

    record = {
        "budget": BUDGET,
        "workload": {
            "app": "vopd",
            "topology": topology.name,
            "rates": list(rates),
            "patterns": list(config.patterns),
            "measure_cycles": measure,
            "reps": reps,
        },
        "instrument_costs_s": {k: round(v, 9) for k, v in costs.items()},
        "campaign_wall_s": {
            "untraced": round(untraced, 4),
            "traced": round(traced, 4),
        },
        "overhead": {
            "tracing_fraction": round(tracing_overhead, 4),
            "always_on_metrics_fraction": round(metrics_overhead, 6),
        },
        "bit_identical": True,
    }
    harness.write_record(out_path, record)

    print(
        f"untraced {untraced:.3f}s, traced {traced:.3f}s -> tracing "
        f"overhead {tracing_overhead * 100:.2f}% "
        f"(budget {BUDGET * 100:.0f}%)"
    )
    print(
        f"instrument costs: counter {costs['counter_inc_s'] * 1e9:.0f}ns, "
        f"histogram {costs['histogram_observe_s'] * 1e9:.0f}ns, "
        f"disabled span {costs['span_noop_s'] * 1e9:.0f}ns -> always-on "
        f"metrics {metrics_overhead * 100:.4f}% of this workload"
    )

    if args.check:
        failures = []
        if tracing_overhead > BUDGET and traced - untraced > NOISE_FLOOR_S:
            failures.append(
                f"tracing overhead {tracing_overhead:.1%} > {BUDGET:.0%} "
                f"(delta {traced - untraced:.3f}s above the "
                f"{NOISE_FLOOR_S:.3f}s noise floor)"
            )
        if metrics_overhead > BUDGET:
            failures.append(
                f"metrics overhead {metrics_overhead:.1%} > {BUDGET:.0%}"
            )
        for failure in failures:
            print(f"FAIL: {failure}")
        if failures:
            return 1
        print("observability overhead within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
