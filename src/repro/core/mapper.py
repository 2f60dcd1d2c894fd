"""The general mapping algorithm (Figure 5).

Three phases, exactly as the paper describes:

1. an initial greedy mapping (:mod:`repro.core.greedy`);
2. commodity routing in decreasing order with bandwidth/area checks and
   cost computation (:mod:`repro.core.evaluate`);
3. pair-wise swap exploration: "repeat steps 2 to 8 for each pair-wise
   swap of vertices in P; return the mapping with lowest cost of all
   evaluated mappings".

Feasibility dominates cost when comparing mappings: a feasible mapping
always beats an infeasible one, and infeasible mappings compete on their
worst link overload, which steers the search toward feasibility (this is
how MPEG4 finds split-routable placements for its 910 MB/s flow).

``MapperConfig.converge`` extends the paper's single swap pass to
steepest-descent rounds until no swap improves — an optional quality
knob measured by ``bench_ablation_swap``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from repro.core.constraints import Constraints
from repro.core.coregraph import CoreGraph
from repro.core.evaluate import MappingEvaluation
from repro.core.greedy import initial_greedy_mapping
from repro.core.memo import MemoizedMappingEvaluator
from repro.core.objectives import Objective, make_objective
from repro.errors import ReproError
from repro.physical.estimate import NetworkEstimator
from repro.routing.base import RoutingFunction
from repro.routing.library import make_routing
from repro.topology.base import Topology


@dataclass
class MapperConfig:
    """Knobs of the swap phase.

    Attributes:
        swap_rounds: full pairwise-swap passes when ``converge`` is off
            (1 = the paper's single pass, Figure 5 steps 9-10).
        converge: keep running swap passes until none improves (default;
            needed e.g. for VOPD to discover a bandwidth-feasible
            butterfly placement). ``bench_ablation_swap`` quantifies the
            difference against the single-pass variant.
        max_rounds: safety bound for ``converge`` mode.

    Swap candidates are always routed as deltas through the incremental
    engine (:mod:`repro.routing.incremental`), and the swap loop
    floorplans iff the objective or an area constraint needs it.
    """

    swap_rounds: int = 1
    converge: bool = True
    max_rounds: int = 8


def _resolve(routing, objective):
    if isinstance(routing, str):
        routing = make_routing(routing)
    if isinstance(objective, str):
        objective = make_objective(objective)
    return routing, objective


def _score(evaluation: MappingEvaluation, objective: Objective) -> MappingEvaluation:
    try:
        evaluation.cost = objective.cost(evaluation)
    except (ReproError, TypeError):
        evaluation.cost = math.inf
    return evaluation


def map_onto(
    core_graph: CoreGraph,
    topology: Topology,
    routing: RoutingFunction | str = "MP",
    objective: Objective | str = "hops",
    constraints: Constraints | None = None,
    estimator: NetworkEstimator | None = None,
    config: MapperConfig | None = None,
    collector: list | None = None,
) -> MappingEvaluation:
    """Map a core graph onto one topology and return the best evaluation.

    Args:
        collector: optional list receiving *every* evaluated mapping
            (used for the Pareto exploration of Figure 9(b)). The swap
            search memoizes per assignment, so it never routes the same
            assignment twice.

    Raises:
        MappingInfeasibleError: if the application has more cores than
            the topology has slots.
        UnsupportedRoutingError: if the routing function is undefined for
            this topology (e.g. DO on Clos).

    Note: a returned evaluation may still have ``feasible == False``
    (bandwidth or area violation everywhere) — that is the paper's
    "No Feasible Mapping" outcome for MPEG4 on the butterfly.
    """
    routing, objective = _resolve(routing, objective)
    constraints = constraints or Constraints()
    estimator = estimator or NetworkEstimator()
    config = config or MapperConfig()

    fp_in_loop = (
        objective.needs_floorplan or constraints.max_area_mm2 is not None
    )
    memo = MemoizedMappingEvaluator(
        core_graph, topology, routing, constraints, estimator
    )

    def run(assignment: dict[int, int]) -> MappingEvaluation:
        ev = memo.evaluate(assignment, with_floorplan=fp_in_loop)
        _score(ev, objective)
        if collector is not None:
            collector.append(ev)
        return ev

    def run_swap(base: MappingEvaluation, s1: int, s2: int) -> MappingEvaluation:
        ev = memo.evaluate_swap(
            base.assignment, s1, s2, with_floorplan=fp_in_loop
        )
        _score(ev, objective)
        if collector is not None:
            collector.append(ev)
        return ev

    best = run(initial_greedy_mapping(core_graph, topology))

    rounds = config.max_rounds if config.converge else config.swap_rounds
    for _ in range(rounds):
        candidate = _best_swap(best, run_swap)
        if candidate is None or candidate.sort_key() >= best.sort_key():
            break
        best = candidate

    # Final authoritative evaluation with the floorplanner on, so every
    # reported mapping carries area/power numbers and a real area check
    # (a cache hit when the search already floorplanned this winner).
    final = memo.evaluate(best.assignment, with_floorplan=True)
    return _score(final, objective)


def _best_swap(base: MappingEvaluation, run_swap) -> MappingEvaluation | None:
    """Evaluate every pairwise slot swap of ``base``; return the best.

    ``run_swap(base, s1, s2)`` evaluates one slot swap as a delta
    against the base's routing (the incremental engine), which is why
    this enumerates slot pairs instead of building candidate dicts.
    """
    topology = base.topology
    occupied = sorted(base.assignment.values())
    free = sorted(set(range(topology.num_slots)) - set(occupied))

    best: MappingEvaluation | None = None
    candidates = list(combinations(occupied, 2))
    candidates += [(s, f) for s in occupied for f in free]
    for s1, s2 in candidates:
        ev = run_swap(base, s1, s2)
        if best is None or ev.sort_key() < best.sort_key():
            best = ev
    return best
