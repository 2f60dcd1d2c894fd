"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload's timed section once and prints the
end-to-end metrics of ``BENCHMARK.json``. ``--trace 1`` first runs the
same command with ``--trace 0`` in a child process, then runs the timed
section again with the layer wrappers of :mod:`perfbench.layers`
installed, checks that both runs produced identical outputs, writes the
spans to ``perfbench/out/`` and prints the per-layer metrics.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 5, "failed": 0,
     "metrics": {"wall_s": {"value": 36.1, "unit": "s"}, ...}}

The exit code is 1 when any output check fails.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: Latency limit of each workload's operations, in ms; ``BENCHMARK.json``
#: states the same figures in each workload's ``why``.
LATENCY_LIMIT_MS = {
    "paper_flows": 60000.0,
    "synthetic_scale": 30000.0,
    "campaign_sweep": 30000.0,
    "service_mix": 1000.0,
}

#: How many times set-up is repeated; ``setup_s`` reports the median.
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "ratio",
    "req_p50_ms": "ms",
    "req_p95_ms": "ms",
    "req_within_limit_frac": "ratio",
}


PER_LAYER_UNITS = {
    "core.map_onto.self_s": "s",
    "core.map_onto.calls": "count",
    "core.evals": "count",
    "core.evals_per_s": "1/s",
    "core.memo_hit_ratio": "ratio",
    "routing.route_all.self_s": "s",
    "routing.route_all.calls": "count",
    "routing.route_swap.self_s": "s",
    "routing.route_swap.calls": "count",
    "routing.delta_swap_frac": "ratio",
    "floorplan.self_s": "s",
    "floorplan.calls": "count",
    "physical.estimate.self_s": "s",
    "physical.estimate.calls": "count",
    "xpipes.self_s": "s",
    "simulation.exact.self_s": "s",
    "simulation.exact.points": "count",
    "simulation.exact.cycles_per_s": "1/s",
    "simulation.batch.self_s": "s",
    "simulation.batch.points": "count",
    "simulation.batch.lanes_per_group": "count",
    "simulation.batch.cycles_per_s": "1/s",
    "simulation.batch.latency_rel_err": "ratio",
    "simulation.batch.sat_match_frac": "ratio",
    "engine.run.self_s": "s",
    "engine.jobs": "count",
    "engine.cache_hit_ratio": "ratio",
    "engine.retries": "count",
    "service.request.self_s": "s",
    "service.compute_ms_p50": "ms",
    "service.wire_ms_p50": "ms",
    "service.dedup_ratio": "ratio",
    "service.busy_frac": "ratio",
    "service.cache_hit_ratio": "ratio",
    "obs.trace_overhead_frac": "ratio",
    "bench.gen_late_ms_p95": "ms",
    "bench.traced_wall_s": "s",
    "bench.unattributed_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(LATENCY_LIMIT_MS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--outputs-to", default=None, metavar="PATH",
        help="also write the run's output digests and wall_s as JSON",
    )
    return parser.parse_args(argv)


def _import_program():
    """Import the program from this checkout's ``src`` and the
    benchmark package; fails (non-zero exit, no result) without them."""
    sys.path.insert(0, str(ROOT))
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise SystemExit(f"repro imported from {repro.__file__}, not {ROOT / 'src'}")
    from perfbench import flows, service_mix

    return {
        "paper_flows": flows.PaperFlows,
        "synthetic_scale": flows.SyntheticScale,
        "campaign_sweep": flows.CampaignSweep,
        "service_mix": service_mix.ServiceMix,
    }


def _setup(factory, seed, seconds):
    """Build the workload ``SETUP_REPEATS`` times; keep the last.

    Returns ``(workload, median seconds of one build)``.
    """
    from perfbench.measure import median

    times = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None and hasattr(workload, "close"):
            workload.close()
        start = time.perf_counter()
        workload = factory(seed, seconds)
        times.append(time.perf_counter() - start)
    return workload, median(times)


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for
    descendant (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(outcome, setup_s: float, limit_ms: float) -> dict:
    from perfbench.measure import failed_frac, percentile, within_limit_frac

    latencies_ms = [op.latency_s * 1000.0 for op in outcome.ops]
    return {
        "setup_s": setup_s,
        "wall_s": outcome.wall_s,
        "peak_rss_mb": _peak_rss_mb(),
        "ops_ok_frac": 1.0 - failed_frac(outcome.ops),
        "req_p50_ms": percentile(latencies_ms, 50.0),
        "req_p95_ms": percentile(latencies_ms, 95.0),
        "req_within_limit_frac": within_limit_frac(
            outcome.ops, limit_ms / 1000.0
        ),
    }


def _run_untraced_child(args) -> dict:
    """The same workload and seed with ``--trace 0`` in a fresh process;
    returns its output digests and ``wall_s``."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"untraced-{args.workload}-{args.seed}.json"
    path.unlink(missing_ok=True)
    child = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0",
            "--outputs-to", str(path),
        ],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        check=False,
    )
    if not path.exists():
        raise SystemExit(f"untraced run failed with exit code {child.returncode}")
    record = json.loads(path.read_text(encoding="utf-8"))
    path.unlink()
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    untraced = _run_untraced_child(args) if args.trace else None
    factories = _import_program()
    imported_s = time.perf_counter() - _STARTED

    from perfbench.layers import SpanRecorder, installed, layer_metrics
    from perfbench.measure import failed_count

    workload, build_s = _setup(factories[args.workload], args.seed, args.seconds)
    recorder = SpanRecorder() if args.trace else None
    try:
        with installed(recorder):
            outcome = workload.run(recorder)
    finally:
        if hasattr(workload, "close"):
            workload.close()

    checks = list(outcome.checks)
    if args.trace:
        checks.append((
            "traced outputs equal the untraced run's",
            outcome.outputs == untraced["outputs"],
            f"{len(outcome.outputs)} outputs",
        ))
        # Layers a workload leaves idle report 0.
        metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        metrics.update(layer_metrics(recorder))
        metrics.update(outcome.layer)
        metrics["obs.trace_overhead_frac"] = (
            outcome.wall_s / untraced["wall_s"] - 1.0
        )
        recorder.write(OUT / f"trace-{args.workload}-{args.seed}.json")
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(
            outcome, imported_s + build_s, LATENCY_LIMIT_MS[args.workload]
        )
        units = END_TO_END_UNITS
        if args.outputs_to:
            Path(args.outputs_to).write_text(
                json.dumps({"outputs": outcome.outputs, "wall_s": outcome.wall_s}),
                encoding="utf-8",
            )

    correct = all(passed for _, passed, _ in checks)
    for name, passed, detail in checks:
        if not passed:
            print(f"CHECK FAILED: {name}: {detail}")
    for name in sorted(metrics):
        print(f"{name:34s} {metrics[name]:>14.6g} {units[name]}")
    failed = failed_count(outcome.ops)
    print(f"{'ops_failed_frac':34s} {failed / len(outcome.ops):>14.6g} ratio")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcome.ops),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
