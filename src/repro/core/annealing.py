"""Alternative mapping optimizers: simulated annealing and random search.

The paper's mapping engine is greedy seeding + pairwise-swap descent
(Figure 5). These optimizers explore the same search space with
different strategies, serving two purposes:

* a **baseline** (uniform random search) that quantifies how much the
  structured search buys;
* a **stronger optimizer** (simulated annealing over slot swaps) that
  bounds how far from optimal the paper's algorithm lands.

``bench_ablation_optimizers`` compares all of them. Both optimizers are
fully deterministic given their seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.core.constraints import Constraints
from repro.core.coregraph import CoreGraph
from repro.core.evaluate import MappingEvaluation
from repro.core.greedy import initial_greedy_mapping
from repro.core.mapper import _resolve, _score
from repro.core.memo import MemoizedMappingEvaluator
from repro.errors import ReproError
from repro.physical.estimate import NetworkEstimator
from repro.topology.base import Topology

#: Penalty offset making any infeasible mapping worse than any feasible
#: one when scalarizing (costs in this library stay far below this).
_INFEASIBLE_OFFSET = 1e9


def _scalar(evaluation: MappingEvaluation) -> float:
    """Scalarized sort key for acceptance tests."""
    if evaluation.feasible:
        return evaluation.cost
    return (
        _INFEASIBLE_OFFSET
        + 1e3 * len(evaluation.qos_violations)
        + evaluation.overflow_mb_s
        + evaluation.max_link_load
    )


@dataclass
class AnnealingConfig:
    """Simulated-annealing schedule.

    Each move is routed as a delta against the current state through
    the incremental engine, and moves are floorplanned iff the
    objective needs it.
    """

    iterations: int = 1500
    initial_temperature: float | None = None  # None = auto-calibrated
    cooling: float = 0.997
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if not 0.5 < self.cooling < 1.0:
            raise ValueError("cooling must be in (0.5, 1)")


def _random_swap_slots(
    assignment: dict, num_slots: int, rng: random.Random
) -> tuple[int, int]:
    """Pick the slot pair of a random swap move.

    The target slot is resampled until it differs from the source slot,
    so every call (on a topology with at least two slots) proposes a
    real move — the previous early-return on ``s1 == s2`` silently
    wasted an annealing iteration *and* skipped its cooling step.
    Returns ``(s1, s1)`` only in the degenerate single-slot case. The
    RNG draw sequence matches the historical dict-building helper, so
    seeded trajectories are unchanged.
    """
    cores = list(assignment)
    c1 = rng.choice(cores)
    s1 = assignment[c1]
    if num_slots < 2:
        return s1, s1  # nowhere to move: degenerate single-slot case
    s2 = rng.randrange(num_slots)
    while s2 == s1:
        s2 = rng.randrange(num_slots)
    return s1, s2


def simulated_annealing_map(
    core_graph: CoreGraph,
    topology: Topology,
    routing="MP",
    objective="hops",
    constraints: Constraints | None = None,
    estimator: NetworkEstimator | None = None,
    config: AnnealingConfig | None = None,
    initial_assignment: dict | None = None,
) -> MappingEvaluation:
    """Anneal over slot-swap moves.

    Args:
        initial_assignment: starting point; defaults to the greedy seed.
            Passing the swap search's result turns annealing into a
            refinement pass (the returned mapping is never worse than
            the starting one).

    A revisited assignment (walks returning to an earlier state) is
    never routed twice.
    """
    routing, objective = _resolve(routing, objective)
    constraints = constraints or Constraints()
    estimator = estimator or NetworkEstimator()
    config = config or AnnealingConfig()
    rng = random.Random(config.seed)
    with_floorplan = objective.needs_floorplan
    memo = MemoizedMappingEvaluator(
        core_graph, topology, routing, constraints, estimator
    )

    def run(assignment):
        ev = memo.evaluate(assignment, with_floorplan=with_floorplan)
        return _score(ev, objective)

    def run_swap(base, s1, s2):
        # Delta evaluation against the current state: the previous
        # move's record is the engine's most recent, so accepted walks
        # stay incremental end to end.
        ev = memo.evaluate_swap(
            base.assignment, s1, s2, with_floorplan=with_floorplan
        )
        return _score(ev, objective)

    if initial_assignment is None:
        initial_assignment = initial_greedy_mapping(core_graph, topology)
    current = run(dict(initial_assignment))
    current_scalar = _scalar(current)
    best = current
    best_scalar = current_scalar

    temperature = config.initial_temperature
    if temperature is None:
        # Calibrate from the move landscape, not the scalar magnitude
        # (the infeasibility offset would otherwise make T astronomical):
        # probe a handful of random swaps and set T0 to the mean |delta|,
        # giving roughly 40-60% initial acceptance of uphill moves.
        deltas = []
        for _ in range(15):
            s1, s2 = _random_swap_slots(
                current.assignment, topology.num_slots, rng
            )
            if s1 == s2:
                continue
            probe = run_swap(current, s1, s2)
            deltas.append(abs(_scalar(probe) - current_scalar))
        meaningful = [d for d in deltas if 0 < d < _INFEASIBLE_OFFSET / 2]
        temperature = max(1e-6, sum(meaningful) / len(meaningful)) if (
            meaningful
        ) else 1.0

    # The acceptance test compares cached scalars: _scalar(current) and
    # _scalar(best) are invariant between moves, so recomputing them
    # every iteration (the old behaviour) did redundant work per step.
    for _ in range(config.iterations):
        s1, s2 = _random_swap_slots(
            current.assignment, topology.num_slots, rng
        )
        if s1 == s2:
            continue  # degenerate single-slot topology: no real move
        candidate = run_swap(current, s1, s2)
        candidate_scalar = _scalar(candidate)
        delta = candidate_scalar - current_scalar
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            current = candidate
            current_scalar = candidate_scalar
            if current_scalar < best_scalar:
                best = current
                best_scalar = current_scalar
        temperature *= config.cooling

    final = memo.evaluate(best.assignment, with_floorplan=True)
    return _score(final, objective)


def random_search_map(
    core_graph: CoreGraph,
    topology: Topology,
    routing="MP",
    objective="hops",
    constraints: Constraints | None = None,
    estimator: NetworkEstimator | None = None,
    iterations: int = 1500,
    seed: int = 0,
) -> MappingEvaluation:
    """Uniform random assignments — the unstructured baseline.

    Duplicate random samples (likely on small topologies) are never
    routed twice.
    """
    routing, objective = _resolve(routing, objective)
    constraints = constraints or Constraints()
    estimator = estimator or NetworkEstimator()
    rng = random.Random(seed)
    slots = list(range(topology.num_slots))
    n = core_graph.num_cores
    memo = MemoizedMappingEvaluator(
        core_graph, topology, routing, constraints, estimator
    )

    best: MappingEvaluation | None = None
    best_scalar = math.inf
    for _ in range(iterations):
        chosen = rng.sample(slots, n)
        assignment = {core: slot for core, slot in zip(range(n), chosen)}
        ev = memo.evaluate(assignment, with_floorplan=False)
        _score(ev, objective)
        scalar = _scalar(ev)
        if best is None or scalar < best_scalar:
            best = ev
            best_scalar = scalar
    if best is None:
        # iterations < 1 (or an empty search space) would otherwise
        # surface as an AttributeError on ``best.assignment`` below.
        raise ReproError(
            f"random search evaluated no mapping of {core_graph.name!r} "
            f"onto {topology.name!r} (iterations={iterations}); use "
            f"iterations >= 1"
        )
    final = memo.evaluate(best.assignment, with_floorplan=True)
    return _score(final, objective)
