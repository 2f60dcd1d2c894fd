"""Mapping-evaluation throughput of the incremental delta-routing engine.

Measures **evals_per_sec** — mapping evaluations per second over a
pairwise-swap candidate stream per app x topology x routing — for the
two evaluators of :class:`~repro.core.memo.MemoizedMappingEvaluator`:

* ``baseline``: ``memo.evaluate`` of each swapped assignment, i.e. a
  from-scratch :func:`~repro.core.evaluate.evaluate_mapping`;
* ``current``: ``memo.evaluate_swap``, the searches' only swap path,
  which routes every candidate as a delta through the incremental
  engine (``repro/routing/incremental.py``).

Both are measured interleaved in the same process on the same
candidates, and both produce bit-identical evaluations (asserted while
measuring). Whole flows are timed elsewhere, by the end-to-end
benchmark (``perfbench``).

Results land in ``BENCH_mapping.json`` at the repo root: per-case
numbers, geomeans (overall and MP/SM-only), and a ``notes`` field
stating where the delta engine wins and where the exact delta of a swap
is genuinely most of the work.

The case matrix spans the paper's benchmark applications (small, dense
— every core carries several flows, so a swap's exact Δ covers a third
of the commodity sequence) and synthetic scale points from
``repro.apps.synthetic`` (the regime the ROADMAP's production-scale
ambitions target, where swaps stay local and splicing pays).

Usage::

    python benchmarks/bench_mapping.py            # full run, rewrites current
    python benchmarks/bench_mapping.py --smoke    # reduced budget (CI)
    python benchmarks/bench_mapping.py --smoke --check
        # exit 1 if evals/sec regressed > 30% vs the committed current

``--check`` compares freshly measured current-path evals/sec against the
committed ``current`` section *before* rewriting it, normalized by the
recorded machine-speed calibration (``harness.py``), so an engine regression fails CI
while machine-to-machine variance does not.
"""

from __future__ import annotations

import math
import sys
import time
from itertools import combinations

import harness
from repro.apps import load_application
from repro.apps.synthetic import random_core_graph
from repro.core.constraints import Constraints
from repro.core.evaluate import evaluate_mapping
from repro.core.greedy import initial_greedy_mapping
from repro.core.memo import MemoizedMappingEvaluator
from repro.physical.estimate import NetworkEstimator
from repro.routing.incremental import swap_assignment
from repro.routing.library import make_routing
from repro.topology.library import make_topology

#: Honest context for readers of the committed record.
NOTES = (
    "baseline = memo.evaluate, a from-scratch evaluate_mapping of every "
    "swap candidate; current = memo.evaluate_swap, which routes every "
    "swap candidate as a delta through the incremental engine (the "
    "mapping searches' only swap path). Both are bit-identical "
    "(asserted during measurement). The delta engine wins where routing "
    "decisions are load-independent (DO everywhere; butterfly, "
    "unique-quadrant pairs) and on large sparse apps where a swap's "
    "ripple stays local; on the small dense paper apps with "
    "congestion-coupled MP/SM routing the exact delta of a swap "
    "genuinely re-routes ~1/3 of the commodities, and per-candidate "
    "throughput is 0.67-1.0x of from-scratch in this record (the 6-core "
    "dsp is consistently below parity: the engine's bookkeeping "
    "outweighs routing a handful of commodities). Those cases are cheap "
    "either way; end to end the paper flows stay within noise (perfbench "
    "paper_flows). Whole flows are timed by perfbench, not here."
)


def _app(name: str):
    if name.startswith("syn"):
        cores = int(name[3:])
        return random_core_graph(cores, seed=5)
    return load_application(name)


#: (case label, app, topology, routing); label encodes app-topo-routing.
EVAL_CASES = [
    ("vopd-mesh-MP", "vopd", "mesh", "MP"),
    ("vopd-torus-MP", "vopd", "torus", "MP"),
    ("vopd-mesh-SM", "vopd", "mesh", "SM"),
    ("mpeg4-mesh-SM", "mpeg4", "mesh", "SM"),
    ("mpeg4-torus-SM", "mpeg4", "torus", "SM"),
    ("dsp-mesh-MP", "dsp", "mesh", "MP"),
    ("vopd-mesh-DO", "vopd", "mesh", "DO"),
    ("syn32-mesh-MP", "syn32", "mesh", "MP"),
    ("syn32-torus-MP", "syn32", "torus", "MP"),
    ("syn32-mesh-SM", "syn32", "mesh", "SM"),
    ("syn32-torus-SM", "syn32", "torus", "SM"),
    ("syn32-mesh-DO", "syn32", "mesh", "DO"),
    ("syn48-mesh-MP", "syn48", "mesh", "MP"),
    ("syn48-torus-MP", "syn48", "torus", "MP"),
    ("syn48-mesh-DO", "syn48", "mesh", "DO"),
]

SMOKE_EVAL_CASES = ["vopd-mesh-MP", "mpeg4-mesh-SM", "syn32-mesh-DO"]


def _candidates(base: dict, num_slots: int, limit: int) -> list:
    occupied = sorted(base.values())
    free = sorted(set(range(num_slots)) - set(occupied))
    cands = list(combinations(occupied, 2))
    cands += [(s, f) for s in occupied for f in free]
    return cands[:limit]


def measure_evals(
    app_name: str,
    topo_name: str,
    code: str,
    reps: int,
    limit: int,
) -> tuple[float, float]:
    """(baseline, current) evaluations/sec over one swap stream.

    Old and new are timed interleaved (old round, new round, repeat;
    best-of-reps each) on the identical candidate list, with fresh memo
    instances per round so neither side benefits from exact-hit
    caching. One verification pass asserts the two paths agree
    float-exactly before any timing is recorded.
    """
    app = _app(app_name)
    topology = make_topology(topo_name, app.num_cores)
    routing = make_routing(code)
    constraints = Constraints()
    estimator = NetworkEstimator()
    base = initial_greedy_mapping(app, topology)
    cands = _candidates(base, topology.num_slots, limit)

    # Warm topology-resident caches + verify bit-identity on a sample.
    memo = MemoizedMappingEvaluator(
        app, topology, routing, constraints, estimator
    )
    for s1, s2 in cands[: min(8, len(cands))]:
        new_ev = memo.evaluate_swap(base, s1, s2, with_floorplan=False)
        ref = evaluate_mapping(
            app, topology, swap_assignment(base, s1, s2), routing,
            constraints, estimator=estimator, with_floorplan=False,
        )
        assert new_ev.avg_hops == ref.avg_hops
        assert new_ev.power_mw == ref.power_mw
        assert new_ev.max_link_load == ref.max_link_load

    t_old = t_new = math.inf
    for _ in range(reps):
        memo = MemoizedMappingEvaluator(
            app, topology, routing, constraints, estimator
        )
        start = time.perf_counter()
        for s1, s2 in cands:
            memo.evaluate(
                swap_assignment(base, s1, s2), with_floorplan=False
            )
        t_old = min(t_old, time.perf_counter() - start)
        memo = MemoizedMappingEvaluator(
            app, topology, routing, constraints, estimator
        )
        start = time.perf_counter()
        for s1, s2 in cands:
            memo.evaluate_swap(base, s1, s2, with_floorplan=False)
        t_new = min(t_new, time.perf_counter() - start)
    n = len(cands)
    return round(n / t_old, 1), round(n / t_new, 1)


def measure(smoke: bool = False, reps: int = 4) -> tuple[dict, dict]:
    """(baseline, current) sections, measured interleaved."""
    if smoke:
        cases = [c for c in EVAL_CASES if c[0] in SMOKE_EVAL_CASES]
        reps = 2
        limit = 60
    else:
        cases = EVAL_CASES
        limit = 200
    base_evals = {}
    cur_evals = {}
    for label, app_name, topo_name, code in cases:
        old, new = measure_evals(app_name, topo_name, code, reps, limit)
        base_evals[label] = old
        cur_evals[label] = new
    calibration = harness.calibrate()
    baseline = {
        "evals_per_sec": base_evals,
        "calibration_ops_per_sec": calibration,
    }
    current = {
        "evals_per_sec": cur_evals,
        "calibration_ops_per_sec": calibration,
    }
    return baseline, current


def _eval_ratios(current: dict, reference: dict) -> list[float]:
    ratios = []
    for case, value in current.get("evals_per_sec", {}).items():
        ref = reference.get("evals_per_sec", {}).get(case)
        if ref:
            ratios.append(value / ref)
    return ratios


def _speedups(baseline: dict, current: dict) -> dict:
    per_case = {}
    mp_sm = []
    for case, new in current["evals_per_sec"].items():
        old = baseline["evals_per_sec"].get(case)
        if not old:
            continue
        ratio = round(new / old, 2)
        per_case[case] = ratio
        if case.rsplit("-", 1)[-1] in ("MP", "SM"):
            mp_sm.append(new / old)
    overall = harness.geomean(per_case.values())
    return {
        "evals_per_sec": per_case,
        "evals_per_sec_geomean": None if overall is None else round(overall, 2),
        "evals_per_sec_mp_sm_geomean": (
            None if not mp_sm else round(harness.geomean(mp_sm), 2)
        ),
    }


def main(argv: list[str] | None = None) -> int:
    args = harness.parse_args(
        "mapping", __doc__, argv,
        smoke_help="reduced budget: three eval cases, two reps",
        check_help="exit 1 if current-path evals/sec regressed more than "
        "30%% versus the committed BENCH_mapping.json",
    )
    committed = harness.load_committed("mapping")
    baseline, current = measure(smoke=args.smoke)

    check_failed = False
    if args.check and committed.get("current"):
        ratio = harness.geomean(_eval_ratios(current, committed["current"]))
        if ratio is not None:
            check_failed = harness.gate(
                "evals/sec", "mapping evals/sec", ratio, current,
                committed["current"],
            )

    record = {
        "schema": 1,
        "baseline": baseline,
        "current": current,
        "speedup": _speedups(baseline, current),
        "notes": NOTES,
        "smoke": args.smoke,
    }
    harness.write_record(harness.output_path("mapping", args), record)

    for case, new in current["evals_per_sec"].items():
        old = baseline["evals_per_sec"][case]
        print(
            f"evals {case:16s} old {old:9,.0f}/s  new {new:9,.0f}/s  "
            f"{new / old:.2f}x"
        )
    sp = record["speedup"]
    print(
        f"geomean evals/sec {sp['evals_per_sec_geomean']}x "
        f"(MP/SM {sp['evals_per_sec_mp_sm_geomean']}x)"
    )
    return 1 if check_failed else 0


if __name__ == "__main__":
    sys.exit(main())
