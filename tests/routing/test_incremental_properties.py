"""Property-based bit-identity tests for the incremental delta engine.

The contract of :mod:`repro.routing.incremental` is absolute: evaluating
a slot swap as a delta against a base routing must equal a from-scratch
:func:`~repro.core.evaluate.evaluate_mapping` of the swapped assignment
**exactly** — same paths, float-equal loads (keys, values and
first-touch order), hops, power, cost and feasibility — for every
routing function and topology family, across arbitrary swap *sequences*
(each step's candidate record becomes the next step's base, exercising
record promotion, checkpoint forks and divergence tracking).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import random_core_graph
from repro.core.constraints import Constraints
from repro.core.coregraph import CoreGraph
from repro.core.evaluate import evaluate_mapping
from repro.core.greedy import initial_greedy_mapping
from repro.core.memo import MemoizedMappingEvaluator
from repro.core.objectives import make_objective
from repro.errors import UnsupportedRoutingError
from repro.physical.estimate import NetworkEstimator
from repro.routing.incremental import (
    IncrementalRoutingEngine,
    swap_assignment,
)
from repro.routing.library import make_routing
from repro.topology.library import make_topology

TOPOLOGIES = ("mesh", "torus", "butterfly", "clos")
ROUTINGS = ("DO", "MP", "SM", "SA")

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _assert_identical(incremental, scratch):
    """Float-exact equality of every metric the evaluation exposes."""
    assert incremental.assignment == scratch.assignment
    assert incremental.avg_hops == scratch.avg_hops
    assert incremental.max_link_load == scratch.max_link_load
    assert incremental.bandwidth_feasible == scratch.bandwidth_feasible
    assert incremental.overflow_mb_s == scratch.overflow_mb_s
    assert incremental.qos_feasible == scratch.qos_feasible
    assert incremental.power_mw == scratch.power_mw
    assert incremental.power.switch_dynamic == scratch.power.switch_dynamic
    assert incremental.power.link_dynamic == scratch.power.link_dynamic
    assert incremental.power.clock == scratch.power.clock
    assert incremental.power.leakage == scratch.power.leakage
    assert incremental.cost == scratch.cost
    assert incremental.feasible == scratch.feasible
    inc_loads = list(incremental.routing_result.loads.items())
    ref_loads = list(scratch.routing_result.loads.items())
    # Float-exact, same key set, same first-touch order (the bandwidth
    # objective sums its RMS term in this order).
    assert inc_loads == ref_loads
    assert (
        incremental.routing_result.loads.total
        == scratch.routing_result.loads.total
    )
    for a, b in zip(
        incremental.routing_result.routed, scratch.routing_result.routed
    ):
        assert a.src_slot == b.src_slot
        assert a.dst_slot == b.dst_slot
        assert a.paths == b.paths
        assert a.hops == b.hops


@SLOW
@given(
    st.integers(4, 8),         # cores
    st.integers(0, 500),       # app seed
    st.sampled_from(TOPOLOGIES),
    st.sampled_from(ROUTINGS),
    st.lists(                  # swap sequence over slots
        st.tuples(st.integers(0, 11), st.integers(0, 11)),
        min_size=1,
        max_size=4,
    ),
)
def test_swap_sequence_matches_from_scratch(
    n_cores, seed, topo_name, code, swaps
):
    app = random_core_graph(n_cores, seed=seed)
    topology = make_topology(topo_name, 12)
    routing = make_routing(code)
    constraints = Constraints()
    estimator = NetworkEstimator()
    objective = make_objective("hops")
    memo = MemoizedMappingEvaluator(
        app, topology, routing, constraints, estimator
    )
    assignment = initial_greedy_mapping(app, topology)
    for s1, s2 in swaps:
        s1 %= topology.num_slots
        s2 %= topology.num_slots
        try:
            incremental = memo.evaluate_swap(
                assignment, s1, s2, with_floorplan=False
            )
        except UnsupportedRoutingError:
            return  # e.g. DO on Clos — the selector reports these combos
        assignment = swap_assignment(assignment, s1, s2)
        scratch = evaluate_mapping(
            app,
            topology,
            assignment,
            routing,
            constraints,
            estimator=estimator,
            with_floorplan=False,
        )
        incremental.cost = objective.cost(incremental)
        scratch.cost = objective.cost(scratch)
        _assert_identical(incremental, scratch)
    # The swaps really did route through the delta engine.
    assert memo._engine is not None


@SLOW
@given(
    st.integers(4, 7),
    st.integers(0, 500),
    st.sampled_from(TOPOLOGIES),
    st.sampled_from(("MP", "SM")),
    st.integers(0, 11),
    st.integers(0, 11),
)
def test_memo_swap_hit_returns_same_object(
    n_cores, seed, topo_name, code, a, b
):
    """Evaluating the identical swap twice must serve the memoized
    evaluation object — the memo stays the outer layer."""
    app = random_core_graph(n_cores, seed=seed)
    topology = make_topology(topo_name, 12)
    memo = MemoizedMappingEvaluator(
        app, topology, make_routing(code), Constraints(), NetworkEstimator()
    )
    base = initial_greedy_mapping(app, topology)
    s1, s2 = a % topology.num_slots, b % topology.num_slots
    first = memo.evaluate_swap(base, s1, s2, with_floorplan=False)
    again = memo.evaluate_swap(base, s1, s2, with_floorplan=False)
    assert again is first


def _app_with_silent_core() -> CoreGraph:
    """Four communicating cores plus one that appears in no commodity."""
    app = CoreGraph("silent-core")
    for name in ("a", "b", "c", "d", "mute"):
        app.add_core(name)
    app.add_flow("a", "b", 400.0)
    app.add_flow("b", "c", 300.0)
    app.add_flow("c", "d", 200.0)
    app.add_flow("d", "a", 100.0)
    return app


def test_first_dirty_index_silent_core_swap():
    """A swap moving a commodity-less core dirties nothing: the engine
    must report first-dirty == len(commodities) and splice the entire
    base routing through unchanged."""
    app = _app_with_silent_core()
    topology = make_topology("mesh", app.num_cores)
    routing = make_routing("MP")
    engine = IncrementalRoutingEngine(
        app, topology, routing, NetworkEstimator()
    )
    assignment = initial_greedy_mapping(app, topology)
    record = engine.route_base(assignment)
    mute_slot = assignment[app.core_index("mute")]
    free = sorted(
        set(range(topology.num_slots)) - set(assignment.values())
    )[0]
    n = len(app.commodities())
    assert engine.first_dirty_index(record, mute_slot, free) == n
    assert engine.dirty_indices(record, mute_slot, free) == set()
    swapped = engine.route_swap(record, mute_slot, free)
    # Entire routing shared verbatim: same objects, same ledger.
    assert swapped.routed is record.routed
    assert swapped.loads is record.loads
    assert swapped.assignment == swap_assignment(
        assignment, mute_slot, free
    )
    # And the spliced record still evaluates exactly like from-scratch.
    memo = MemoizedMappingEvaluator(
        app, topology, routing, Constraints(), NetworkEstimator()
    )
    incremental = memo.evaluate_swap(
        assignment, mute_slot, free, with_floorplan=False
    )
    scratch = evaluate_mapping(
        app,
        topology,
        swapped.assignment,
        routing,
        Constraints(),
        estimator=NetworkEstimator(),
        with_floorplan=False,
    )
    _assert_identical(incremental, scratch)
    # The memo served the swap through its delta engine: the candidate
    # shares its base record's routing verbatim, which no from-scratch
    # evaluation could.
    assert (
        incremental.routing_result.routed
        is memo.engine.record_for(assignment).routed
    )


def test_first_dirty_index_orders_by_commodity_rank():
    """The first dirty index is the earliest commodity touching either
    swapped core — commodities are ranked by decreasing bandwidth."""
    app = _app_with_silent_core()
    topology = make_topology("mesh", app.num_cores)
    engine = IncrementalRoutingEngine(
        app, topology, make_routing("MP"), NetworkEstimator()
    )
    assignment = initial_greedy_mapping(app, topology)
    record = engine.route_base(assignment)
    # Swapping core "d"'s slot with a free slot dirties exactly the
    # commodities involving d: c->d (rank 2) and d->a (rank 3).
    d_slot = assignment[app.core_index("d")]
    free = sorted(
        set(range(topology.num_slots)) - set(assignment.values())
    )[0]
    assert engine.dirty_indices(record, d_slot, free) == {2, 3}
    assert engine.first_dirty_index(record, d_slot, free) == 2


@SLOW
@given(
    st.integers(5, 9),
    st.integers(0, 500),
    st.sampled_from(TOPOLOGIES),
    st.sampled_from(ROUTINGS),
    st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11)),
        min_size=1,
        max_size=3,
    ),
)
def test_bandwidth_cost_of_delta_swaps_is_exact(
    n_cores, seed, topo_name, code, swaps
):
    """The bandwidth objective reads the ledger in first-touch order
    (its RMS tie-break term is an ordered float sum), so a delta-routed
    swap must cost exactly what a from-scratch evaluation costs."""
    app = random_core_graph(n_cores, seed=seed)
    topology = make_topology(topo_name, 12)
    routing = make_routing(code)
    constraints = Constraints()
    estimator = NetworkEstimator()
    objective = make_objective("bandwidth")
    memo = MemoizedMappingEvaluator(
        app, topology, routing, constraints, estimator
    )
    assignment = initial_greedy_mapping(app, topology)
    for s1, s2 in swaps:
        s1 %= topology.num_slots
        s2 %= topology.num_slots
        try:
            incremental = memo.evaluate_swap(
                assignment, s1, s2, with_floorplan=False
            )
        except UnsupportedRoutingError:
            return
        assignment = swap_assignment(assignment, s1, s2)
        scratch = evaluate_mapping(
            app,
            topology,
            assignment,
            routing,
            constraints,
            estimator=estimator,
            with_floorplan=False,
        )
        assert objective.cost(incremental) == objective.cost(scratch)
