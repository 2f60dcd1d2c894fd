"""Assignment-level memoization of :func:`~repro.core.evaluate.evaluate_mapping`.

The pairwise-swap search (:mod:`repro.core.mapper`) and the annealing
refinement (:mod:`repro.core.annealing`) both revisit assignments — the
swap that undoes the previous round's best move, annealing walks that
return to an earlier state, the final authoritative re-evaluation of the
winning assignment. Routing and floorplanning the same assignment twice
is pure waste: :func:`evaluate_mapping` is deterministic in its inputs.

:class:`MemoizedMappingEvaluator` wraps one search's evaluation context
(core graph, topology, routing function, constraints, estimator) around
a plain dict keyed by the canonical assignment plus the floorplan flag.
Hits return the previously evaluated
:class:`~repro.core.evaluate.MappingEvaluation` object itself — callers
treat evaluations as immutable apart from the ``cost`` field, which
objectives re-assign idempotently.

:meth:`~MemoizedMappingEvaluator.evaluate_swap` is the searches' swap
path: a candidate that differs from a base assignment by one slot swap
is always routed as a delta through the incremental engine
(:mod:`repro.routing.incremental`), bit-identical to a from-scratch
evaluation. The memo stays the outer layer — an exact-assignment hit
still short-circuits everything — and both entry points share one
store. A search's work therefore depends only on its inputs: the same
search makes the same from-scratch and delta evaluations in every run
and every process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.constraints import Constraints
from repro.core.coregraph import CoreGraph
from repro.core.evaluate import (
    MappingEvaluation,
    evaluate_mapping,
    finish_evaluation,
)
from repro.physical.estimate import NetworkEstimator
from repro.routing.base import RoutingFunction
from repro.topology.base import Topology

if TYPE_CHECKING:  # runtime import is lazy: incremental imports repro.core
    from repro.routing.incremental import BaseRouting, IncrementalRoutingEngine


class MemoizedMappingEvaluator:
    """Evaluate assignments of one search context, each at most once."""

    __slots__ = (
        "core_graph",
        "topology",
        "routing",
        "constraints",
        "estimator",
        "_memo",
        "_engine",
    )

    def __init__(
        self,
        core_graph: CoreGraph,
        topology: Topology,
        routing: RoutingFunction,
        constraints: Constraints,
        estimator: NetworkEstimator,
    ):
        self.core_graph = core_graph
        self.topology = topology
        self.routing = routing
        self.constraints = constraints
        self.estimator = estimator
        self._memo: dict[tuple, MappingEvaluation] = {}
        self._engine = None

    def evaluate(
        self, assignment: dict[int, int], with_floorplan: bool
    ) -> MappingEvaluation:
        """Route/check/measure ``assignment``, or return the memoized
        evaluation of a bit-identical earlier one."""
        key = (tuple(sorted(assignment.items())), with_floorplan)
        evaluation = self._memo.get(key)
        if evaluation is None:
            evaluation = evaluate_mapping(
                self.core_graph,
                self.topology,
                assignment,
                self.routing,
                self.constraints,
                estimator=self.estimator,
                with_floorplan=with_floorplan,
            )
            self._memo[key] = evaluation
        return evaluation

    # ------------------------------------------------------------------
    # incremental (delta) evaluation
    # ------------------------------------------------------------------
    @property
    def engine(self) -> IncrementalRoutingEngine:
        """The lazily created incremental delta-routing engine."""
        if self._engine is None:
            # Lazy import: repro.routing.incremental imports repro.core
            # modules, which import this one.
            from repro.routing.incremental import IncrementalRoutingEngine

            self._engine = IncrementalRoutingEngine(
                self.core_graph, self.topology, self.routing, self.estimator
            )
        return self._engine

    def evaluate_swap(
        self,
        base_assignment: dict[int, int],
        s1: int,
        s2: int,
        with_floorplan: bool,
    ) -> MappingEvaluation:
        """Evaluate the slot swap (s1, s2) of ``base_assignment`` as a
        delta against its base routing.

        Bit-identical to ``evaluate(swap_assignment(base, s1, s2), ...)``
        — the incremental engine splices the clean routing prefix and
        re-routes only the dirty suffix (see
        :mod:`repro.routing.incremental`). The memo stays the outer
        layer: an exact hit on the swapped assignment returns the
        memoized evaluation without touching the engine, and misses are
        stored under the same key a from-scratch evaluation would use.
        """
        from repro.routing.incremental import swap_assignment

        swapped_key = tuple(
            sorted(swap_assignment(base_assignment, s1, s2).items())
        )
        key = (swapped_key, with_floorplan)
        evaluation = self._memo.get(key)
        if evaluation is None:
            engine = self.engine
            record = engine.swap_record(
                engine.record_for(base_assignment), s1, s2, key=swapped_key
            )
            evaluation = self._evaluate_record(record, with_floorplan)
            self._memo[key] = evaluation
        return evaluation

    def _evaluate_record(
        self, record: BaseRouting, with_floorplan: bool
    ) -> MappingEvaluation:
        """Measure a spliced routing record exactly like a from-scratch
        evaluation: shared checks/floorplan tail, with fast-mode power
        resumed from the record's partial sums.

        No assignment validation here: a slot swap of a structurally
        valid base assignment is valid by construction (injectivity and
        slot ranges are preserved), and bases come from prior validated
        evaluations.
        """
        engine = self.engine
        fast_power = None if with_floorplan else engine.fast_power(record)
        return finish_evaluation(
            self.core_graph,
            self.topology,
            self.routing.code,
            record.assignment,
            record.result(),
            engine.average_hops(record),
            self.constraints,
            self.estimator,
            with_floorplan,
            fast_power=fast_power,
        )
