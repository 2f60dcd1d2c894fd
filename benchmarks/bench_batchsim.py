"""Exact-vs-batch campaign throughput with a committed trajectory.

Measures the campaign fast lane the batched-simulator PR added: the
same paper-application sweeps (vopd / mpeg4 / dsp, application trace,
rates x seeds) run interleaved through both campaign lanes —
``sim_engine="exact"`` (the bit-identical reference kernel, one point
at a time) and ``sim_engine="batch"`` (every point of the sweep
advanced in lockstep as one numpy array program) — and records
campaign points/sec and simulated cycles/sec for each.

Statistical equivalence is *asserted while measuring*: on a shared
seed subset both lanes must detect the same saturation rate per curve,
and pre-saturation latencies (away from the congestion knee, where the
exact kernel's own seed variance is just as wide) must agree within
tolerance. A throughput number measured against a divergent simulator
would be meaningless.

Results land in ``BENCH_batchsim.json`` at the repo root:

* ``current`` — the full-budget sweeps on the recording machine, with
  per-app speedups and their geometric mean (the exact lane is the
  baseline, so no separate baseline section exists);
* ``smoke_reference`` — the same cases at the reduced CI budget,
  recorded by the same full run so ``--smoke --check`` compares
  like-for-like batch widths (batch points/sec grows with batch size).

Usage::

    python benchmarks/bench_batchsim.py            # full run, rewrites current
    python benchmarks/bench_batchsim.py --smoke    # reduced budget (CI)
    python benchmarks/bench_batchsim.py --smoke --check
        # exit 1 if points/sec regressed > 30% vs the committed record

``--check`` normalizes by the recorded machine-speed calibration
(``harness.py``), so the gate measures the code, not the runner
hardware. A full-budget ``--check`` additionally enforces the
acceptance floor: batch points/sec >= 5x exact, geomean across apps.
"""

from __future__ import annotations

import math
import sys

import harness
from repro.apps import load_application
from repro.simulation.campaign import CampaignConfig, run_campaign
from repro.topology.library import make_topology

#: Acceptance floor (full budget only): batch/exact points-per-second
#: geomean across the paper apps.
MIN_SPEEDUP_GEOMEAN = 5.0

#: Pre-knee latency agreement between the lanes. Measured agreement on
#: these sweeps is 0.1-7.2%; the headroom covers seed noise, not drift.
LATENCY_TOLERANCE = 0.20

#: Paper applications; every fabric is the standard mesh for the app's
#: core count, mapped identically (core i -> slot i) in both lanes.
APPS = ("vopd", "mpeg4", "dsp")

#: Measurement protocol per point (cycles).
PROTOCOL = {"warmup": 200, "measure": 800, "drain": 600}

#: Full budget: 10 rates x 24 seeds = 240-point batches per app. The
#: exact lane's per-point cost is rate-independent, so it is timed on a
#: 2-seed subset of the same sweep (20 points) to keep the full run
#: under a minute; points/sec is a per-point rate either way. The same
#: subset doubles as the (fully deterministic) equivalence probe.
FULL_RATES = tuple(round(0.05 * i, 2) for i in range(1, 11))
FULL_SEEDS = tuple(range(1, 25))
FULL_EXACT_SEEDS = (1, 2)

#: Smoke budget (CI): 3 rates x 8 seeds = 24-point batches, exact on
#: one seed. Gated against ``smoke_reference``, never against the
#: full-budget numbers — batch throughput scales with batch width.
SMOKE_RATES = (0.05, 0.1, 0.2)
SMOKE_SEEDS = tuple(range(1, 9))
SMOKE_EXACT_SEEDS = (1, 2)


def _sweep(app_name: str, rates, seeds, sim_engine: str):
    """Run one campaign sweep; returns (result, points/sec, cycles/sec)."""
    core_graph = load_application(app_name)
    topology = make_topology("mesh", core_graph.num_cores)
    assignment = {i: i for i in range(core_graph.num_cores)}
    config = CampaignConfig(
        rates=rates,
        patterns=("app",),
        seeds=seeds,
        sim_engine=sim_engine,
        **PROTOCOL,
    )
    result = run_campaign(
        topology,
        core_graph=core_graph,
        assignment=assignment,
        config=config,
    )
    pps = result.runtime["points_per_sec"]
    cycles_per_point = sum(PROTOCOL.values())
    return result, pps, pps * cycles_per_point


def _assert_equivalent(app_name: str, exact, batch) -> float:
    """Gate the lanes' statistical agreement; returns the worst rel err.

    Per curve: identical detected saturation rate, and pre-saturation
    average latencies within :data:`LATENCY_TOLERANCE` — comparing only
    points clear of the congestion knee (both lanes delivering >= 99%,
    exact latency within 3x the curve's zero-load baseline, rate below
    80% of any detected saturation), where the exact kernel's own
    seed-to-seed variance is as wide as any lane difference.

    Both lanes are deterministic given the seed set, so this gate never
    flakes — but the saturation detector discretizes a chaotic knee
    onto the rate grid, and when a curve's knee lands *on* a swept rate
    (mpeg4 near 0.25-0.3) the crossing is borderline and seed-set
    dependent in either lane. The recorded protocol pins the probe
    seeds, which is what makes exact equality a meaningful gate.
    """
    worst = 0.0
    for pattern, exact_curve in exact.curves.items():
        batch_curve = batch.curves[pattern]
        if exact_curve.saturation_rate != batch_curve.saturation_rate:
            raise SystemExit(
                f"EQUIVALENCE FAIL: {app_name}/{pattern} saturation "
                f"{exact_curve.saturation_rate} (exact) != "
                f"{batch_curve.saturation_rate} (batch)"
            )
        sat = exact_curve.saturation_rate
        base = exact_curve.avg_latency[0]
        for i, rate in enumerate(exact_curve.rates):
            exact_lat = exact_curve.avg_latency[i]
            batch_lat = batch_curve.avg_latency[i]
            near_knee = (
                (sat is not None and rate >= 0.8 * sat)
                # No detected saturation: the top of the swept range
                # may still sit on the (undetected) knee's shoulder.
                or (sat is None and rate >= 0.8 * exact_curve.rates[-1])
                or exact_curve.delivered[i] < 0.99
                or batch_curve.delivered[i] < 0.99
                or not math.isfinite(exact_lat)
                or exact_lat > 3.0 * base
            )
            if near_knee:
                continue
            rel = abs(batch_lat - exact_lat) / exact_lat
            worst = max(worst, rel)
            if rel > LATENCY_TOLERANCE:
                raise SystemExit(
                    f"EQUIVALENCE FAIL: {app_name}/{pattern}@{rate:g} "
                    f"latency {exact_lat:.2f} (exact) vs {batch_lat:.2f} "
                    f"(batch): rel err {rel:.1%} > {LATENCY_TOLERANCE:.0%}"
                )
    return worst


def _measure_budget(rates, seeds, exact_seeds) -> dict:
    """One interleaved exact-vs-batch pass over every app."""
    cases = {}
    for app_name in APPS:
        # Interleaved: the lanes run back-to-back per app, so slow
        # machine drift (thermal, noisy neighbours) hits both equally.
        exact, exact_pps, exact_cps = _sweep(
            app_name, rates, exact_seeds, "exact"
        )
        batch, batch_pps, batch_cps = _sweep(
            app_name, rates, seeds, "batch"
        )
        # Equivalence on the shared seed subset: same rates, same
        # seeds, so curve-level statistics are directly comparable.
        batch_eq, _, _ = _sweep(app_name, rates, exact_seeds, "batch")
        worst_rel = _assert_equivalent(app_name, exact, batch_eq)
        cases[app_name] = {
            "exact_points": len(exact.points),
            "batch_points": len(batch.points),
            "exact_points_per_sec": exact_pps,
            "batch_points_per_sec": batch_pps,
            "exact_cycles_per_sec": round(exact_cps, 1),
            "batch_cycles_per_sec": round(batch_cps, 1),
            "speedup": round(batch_pps / exact_pps, 2),
            "max_pre_knee_latency_rel_err": round(worst_rel, 4),
            "saturation": {
                p: c.saturation_rate for p, c in exact.curves.items()
            },
        }
    speedups = [case["speedup"] for case in cases.values()]
    return {
        "cases": cases,
        "speedup_geomean": round(harness.geomean(speedups), 2),
        "protocol": dict(PROTOCOL),
        "rates": list(rates),
        "seeds": len(seeds),
        "exact_seeds": len(exact_seeds),
    }


def measure(smoke: bool = False) -> dict:
    if smoke:
        budget = _measure_budget(SMOKE_RATES, SMOKE_SEEDS, SMOKE_EXACT_SEEDS)
    else:
        budget = _measure_budget(FULL_RATES, FULL_SEEDS, FULL_EXACT_SEEDS)
    budget["calibration_ops_per_sec"] = harness.calibrate()
    return budget


def _throughput_ratios(current: dict, reference: dict) -> list[float]:
    """Per-case points/sec ratios for apps present in both records."""
    ratios = []
    for app_name, metrics in current.get("cases", {}).items():
        ref = reference.get("cases", {}).get(app_name)
        if not ref:
            continue
        for metric in ("exact_points_per_sec", "batch_points_per_sec"):
            if ref.get(metric):
                ratios.append(metrics[metric] / ref[metric])
    return ratios


def main(argv: list[str] | None = None) -> int:
    args = harness.parse_args(
        "batchsim", __doc__, argv,
        smoke_help="reduced budget: 3 rates x 8 seeds per app (CI)",
        check_help="exit 1 if points/sec regressed more than 30%% versus "
        "the committed BENCH_batchsim.json (full runs also enforce the "
        ">= 5x speedup-geomean acceptance floor)",
    )
    committed = harness.load_committed("batchsim")
    current = measure(smoke=args.smoke)

    check_failed = False
    if args.check:
        # Smoke runs gate against the committed smoke-budget numbers,
        # full runs against the committed full-budget numbers: batch
        # points/sec scales with batch width, so cross-budget ratios
        # would measure the budget, not the code.
        reference = committed.get(
            "smoke_reference" if args.smoke else "current", {}
        )
        ratios = _throughput_ratios(current, reference)
        if ratios:
            check_failed = harness.gate(
                "points/sec", "campaign points/sec", harness.geomean(ratios),
                current, reference,
            )
        else:
            print("no committed reference cases to check against")
        if not args.smoke and current["speedup_geomean"] < MIN_SPEEDUP_GEOMEAN:
            print(
                f"SPEEDUP FLOOR FAIL: geomean "
                f"{current['speedup_geomean']}x < {MIN_SPEEDUP_GEOMEAN}x"
            )
            check_failed = True

    if args.smoke:
        record = {"schema": 1, "current": current, "smoke": True}
    else:
        # A full run also re-records the smoke budget, so CI smoke
        # checks always have a like-for-like reference from the same
        # machine and commit.
        smoke_reference = measure(smoke=True)
        record = {
            "schema": 1,
            "current": current,
            "smoke_reference": smoke_reference,
            "smoke": False,
        }
    harness.write_record(harness.output_path("batchsim", args), record)

    for app_name, case in current["cases"].items():
        print(
            f"{app_name:8s} exact {case['exact_points_per_sec']:8.1f} pts/s"
            f"  batch {case['batch_points_per_sec']:8.1f} pts/s"
            f"  speedup {case['speedup']:5.2f}x"
            f"  (pre-knee rel err {case['max_pre_knee_latency_rel_err']:.1%})"
        )
    print(f"speedup geomean: {current['speedup_geomean']}x")
    return 1 if check_failed else 0


if __name__ == "__main__":
    sys.exit(main())
