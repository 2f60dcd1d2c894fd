"""Synthesized-fabric vs standard-library benchmark with a committed record.

For every paper application the benchmark runs the two competitors under
identical constraints and objective (hops, 500 MB/s links):

* **library** — the full ``run_sunmap`` selection over the standard
  five-entry topology library, with the paper's routing escalation
  (MP, then SM/SA when nothing is feasible);
* **synthesized** — the automatic topology-synthesis sweep
  (``repro.synthesis``, default :class:`SynthesisConfig`), given the
  same routing escalation policy: candidates are generated from the
  core graph and each one is fully mapped/evaluated.

The committed ``BENCH_synthesis.json`` records, per application, the
best objective cost on each side and the improvement factor, plus the
synthesis wall time and a machine-speed calibration. Two assertions run
on every full measurement (the PR's acceptance criteria):

* on at least **2 of the 4** applications a synthesized fabric is
  feasible with objective cost <= the best library topology;
* synthesis is deterministic — the ``jobs=1`` and ``jobs=4`` candidate
  sets are bit-identical (names, costs, assignments).

Usage::

    python benchmarks/bench_synthesis.py            # full run, rewrites record
    python benchmarks/bench_synthesis.py --smoke    # reduced budget (CI)
    python benchmarks/bench_synthesis.py --smoke --check
        # exit 1 on lost wins or on >30% synthesis-throughput regression
        # (calibration-normalized) vs the committed record

``--smoke`` restricts the app set (vopd + dsp) and writes
``BENCH_synthesis.smoke.json`` so a reduced run never clobbers the
committed record.
"""

from __future__ import annotations

import math
import sys
import time

import harness
from repro.apps import load_application
from repro.core.constraints import Constraints
from repro.sunmap import DEFAULT_ROUTING_FALLBACKS, run_sunmap
from repro.synthesis import SynthesisConfig, synthesize_topologies

APPS = ("vopd", "mpeg4", "dsp", "netproc")
SMOKE_APPS = ("vopd", "dsp")

#: Full-run acceptance floor: synthesized fabrics must match-or-beat the
#: library best on at least this many of the four paper apps.
MIN_WINS_FULL = 2
MIN_WINS_SMOKE = 1

NOTES = (
    "library = full run_sunmap selection over the standard five-entry "
    "library with routing escalation (MP -> SM -> SA); synthesized = "
    "repro.synthesis default sweep (greedy/bisect/bounded partitioning, "
    "concentration 2-4, switch degree 4-8) under the same constraints, "
    "objective and escalation policy. improvement = library best cost / "
    "synthesized best cost (hops objective, 500 MB/s links); > 1.0 means "
    "the synthesized fabric wins. Concentrated application-shaped "
    "fabrics shorten the heavy flows to one switch hop, which no regular "
    "library topology can do, hence the across-the-board wins; the "
    "committed record also pins jobs=1 == jobs=4 bit-identical candidate "
    "sets (asserted while measuring)."
)


def _candidate_record(result) -> list[dict]:
    """Bit-exact comparable digest of a synthesis result."""
    return [
        {
            "name": cand.name,
            "feasible": cand.feasible,
            "cost": cand.cost,
            "assignment": (
                None
                if cand.evaluation is None
                else sorted(cand.evaluation.assignment.items())
            ),
            "error": cand.error,
        }
        for cand in result.ranked
    ]


def _synthesize_with_escalation(app, constraints, jobs: int = 1):
    """Synthesis under the same routing escalation policy the library
    selection gets: try MP, fall back to split routing when no
    candidate is feasible. Returns (result, routing_code)."""
    result = None
    code = "MP"
    for code in ("MP", *DEFAULT_ROUTING_FALLBACKS):
        result = synthesize_topologies(
            app,
            config=SynthesisConfig(),
            routing=code,
            objective="hops",
            constraints=constraints,
            jobs=jobs,
        )
        if result.best is not None:
            break
    return result, code


def measure_app(app_name: str) -> dict:
    app = load_application(app_name)
    constraints = Constraints()

    start = time.perf_counter()
    library = run_sunmap(
        app, objective="hops", constraints=constraints, generate=False
    )
    library_seconds = time.perf_counter() - start
    lib_best = library.best

    start = time.perf_counter()
    synthesized, synth_code = _synthesize_with_escalation(app, constraints)
    synth_seconds = time.perf_counter() - start

    # Determinism (acceptance criterion): the parallel sweep must
    # reproduce the serial candidate set bit-identically.
    parallel, parallel_code = _synthesize_with_escalation(
        app, constraints, jobs=4
    )
    assert parallel_code == synth_code
    assert _candidate_record(parallel) == _candidate_record(synthesized)

    best = synthesized.best
    entry = {
        "library": {
            "best": library.best_topology_name,
            "cost": None if lib_best is None else round(lib_best.cost, 6),
            "routing": library.selection.routing_code,
            "seconds": round(library_seconds, 3),
        },
        "synthesized": {
            "best": None if best is None else best.name,
            "cost": None if best is None else round(best.cost, 6),
            "routing": synth_code,
            "seconds": round(synth_seconds, 3),
            "candidates_evaluated": len(synthesized.candidates),
            "candidates_feasible": sum(
                1 for c in synthesized.candidates if c.feasible
            ),
            "candidates_pruned": len(synthesized.pruned),
        },
    }
    if lib_best is not None and best is not None:
        entry["improvement"] = round(lib_best.cost / best.cost, 3)
        entry["win"] = best.cost <= lib_best.cost + 1e-9
    else:
        entry["improvement"] = None
        entry["win"] = best is not None and lib_best is None
    return entry


def measure(smoke: bool = False) -> dict:
    apps = SMOKE_APPS if smoke else APPS
    results = {name: measure_app(name) for name in apps}
    improvements = [
        r["improvement"]
        for r in results.values()
        if r["improvement"] is not None
    ]
    total_candidates = sum(
        r["synthesized"]["candidates_evaluated"] for r in results.values()
    )
    total_seconds = sum(
        r["synthesized"]["seconds"] for r in results.values()
    )
    return {
        "apps": results,
        "wins": sum(1 for r in results.values() if r["win"]),
        "improvement_geomean": (
            None
            if not improvements
            else round(harness.geomean(improvements), 3)
        ),
        "candidates_per_sec": (
            round(total_candidates / total_seconds, 2)
            if total_seconds > 0
            else None
        ),
        "calibration_ops_per_sec": harness.calibrate(),
    }


def _shared_rate(record: dict, apps: list[str]) -> float | None:
    """Candidates/sec restricted to ``apps`` (cross-record comparable)."""
    candidates = 0
    seconds = 0.0
    for name in apps:
        entry = record["apps"].get(name)
        if entry is None:
            return None
        candidates += entry["synthesized"]["candidates_evaluated"]
        seconds += entry["synthesized"]["seconds"]
    if seconds <= 0:
        return None
    return candidates / seconds


def main(argv: list[str] | None = None) -> int:
    args = harness.parse_args(
        "synthesis", __doc__, argv,
        smoke_help="reduced budget: vopd + dsp only",
        check_help="exit 1 when synthesized fabrics lose their committed "
        "wins or synthesis throughput regressed more than 30%% "
        "(calibration-normalized) vs BENCH_synthesis.json",
    )
    committed = harness.load_committed("synthesis")
    current = measure(smoke=args.smoke)

    min_wins = MIN_WINS_SMOKE if args.smoke else MIN_WINS_FULL
    wins_ok = current["wins"] >= min_wins

    check_failed = False
    if args.check:
        if not wins_ok:
            print(
                f"ACCEPTANCE REGRESSION: only {current['wins']} of "
                f"{len(current['apps'])} apps have a synthesized fabric "
                f"matching the library best (need >= {min_wins})"
            )
            check_failed = True
        ref = committed.get("current", {})
        # Rate over the apps both records measured (--smoke runs fewer
        # apps than the committed full record; comparing whole-run rates
        # would mix workloads).
        shared = [
            name
            for name in current["apps"]
            if name in ref.get("apps", {})
        ]
        cur_rate = _shared_rate(current, shared)
        ref_rate = _shared_rate(ref, shared)
        if cur_rate and ref_rate:
            check_failed |= harness.gate(
                "candidates/sec", "synthesis throughput",
                cur_rate / ref_rate, current, ref,
            )

    record = {
        "schema": 1,
        "current": current,
        "notes": NOTES,
        "smoke": args.smoke,
    }
    harness.write_record(harness.output_path("synthesis", args), record)

    for name, entry in current["apps"].items():
        lib = entry["library"]
        syn = entry["synthesized"]
        improvement = entry["improvement"]
        print(
            f"{name:8s} library {lib['best'] or '-':20s} "
            f"cost {lib['cost'] if lib['cost'] is not None else math.inf:8.3f} "
            f"[{lib['routing']}]  synthesized {syn['best'] or '-':20s} "
            f"cost {syn['cost'] if syn['cost'] is not None else math.inf:8.3f} "
            f"[{syn['routing']}]  "
            f"{'WIN' if entry['win'] else 'loss'}"
            f"{'' if improvement is None else f' ({improvement:.2f}x)'}"
        )
    print(
        f"wins: {current['wins']}/{len(current['apps'])} "
        f"(floor {min_wins}), improvement geomean "
        f"{current['improvement_geomean']}x, "
        f"{current['candidates_per_sec']} candidates/sec"
    )

    if not args.check and not wins_ok:
        print(
            f"WARNING: wins below the acceptance floor ({min_wins}); "
            f"--check would fail"
        )
    return 1 if check_failed else 0


if __name__ == "__main__":
    sys.exit(main())
