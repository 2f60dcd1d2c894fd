"""EdgeLoads ledger tests."""

import copyreg
import io
import pickle

import pytest

from repro.routing.loads import EdgeLoads


class TestEdgeLoads:
    def test_empty(self):
        loads = EdgeLoads()
        assert loads.get("a", "b") == 0.0
        assert loads.max_load() == 0.0
        assert loads.total == 0.0
        assert len(loads) == 0

    def test_add_accumulates(self):
        loads = EdgeLoads()
        loads.add("a", "b", 100.0)
        loads.add("a", "b", 50.0)
        assert loads.get("a", "b") == pytest.approx(150.0)
        assert len(loads) == 1

    def test_direction_matters(self):
        loads = EdgeLoads()
        loads.add("a", "b", 100.0)
        assert loads.get("b", "a") == 0.0

    def test_add_path(self):
        loads = EdgeLoads()
        loads.add_path(["a", "b", "c", "d"], 10.0)
        assert loads.get("a", "b") == 10.0
        assert loads.get("b", "c") == 10.0
        assert loads.get("c", "d") == 10.0
        assert loads.total == pytest.approx(30.0)

    def test_max_load_with_edge_filter(self):
        loads = EdgeLoads()
        loads.add("a", "b", 100.0)
        loads.add("b", "c", 300.0)
        assert loads.max_load() == 300.0
        assert loads.max_load([("a", "b")]) == 100.0
        assert loads.max_load([("x", "y")]) == 0.0

    def test_copy_is_independent(self):
        loads = EdgeLoads()
        loads.add("a", "b", 100.0)
        clone = loads.copy()
        clone.add("a", "b", 50.0)
        assert loads.get("a", "b") == 100.0
        assert clone.get("a", "b") == 150.0

    def test_total_upper_bounds_any_edge(self):
        loads = EdgeLoads()
        loads.add_path(["a", "b", "c"], 7.0)
        loads.add("a", "b", 3.0)
        assert loads.total >= loads.max_load()

    def test_items_keep_first_touch_order(self):
        loads = EdgeLoads()
        loads.add("c", "d", 1.0)
        loads.add_path(["a", "b", "c", "d"], 2.0)
        assert [edge for edge, _ in loads.items()] == [
            ("c", "d"), ("a", "b"), ("b", "c"),
        ]
        assert loads.get("c", "d") == 3.0


#: An ``EdgeLoads`` pickled before the ledger was keyed on edge ids:
#: its whole state was this ``__dict__``.
LEGACY_STATE = {
    "_loads": {("b", "c"): 300.0, ("a", "b"): 100.0, ("c", "d"): 50.0},
    "_total": 450.0,
    "load_bound": 7.0,
}


def legacy_pickle() -> bytes:
    """The bytes the tuple-keyed ledger pickled to: the default
    ``object`` reduction of an instance with that ``__dict__``."""

    class LegacyPickler(pickle.Pickler):
        def reducer_override(self, obj):
            if type(obj) is EdgeLoads:
                return copyreg.__newobj__, (EdgeLoads,), obj.__dict__
            return NotImplemented

    legacy = EdgeLoads.__new__(EdgeLoads)
    legacy.__dict__.update(LEGACY_STATE)
    buffer = io.BytesIO()
    LegacyPickler(buffer).dump(legacy)
    return buffer.getvalue()


class TestPickling:
    def test_legacy_state_loads(self):
        loads = pickle.loads(legacy_pickle())
        assert isinstance(loads, EdgeLoads)
        assert loads.get("b", "c") == 300.0
        assert loads.get("a", "b") == 100.0
        assert loads.get("x", "y") == 0.0
        assert loads.items() == list(LEGACY_STATE["_loads"].items())
        assert loads.max_load() == 300.0
        assert loads.max_load([("a", "b"), ("c", "d")]) == 100.0
        assert loads.total == 450.0
        assert loads.load_bound == 7.0
        assert len(loads) == 3
        # A restored ledger keeps working as a ledger.
        loads.add("d", "e", 1.0)
        assert loads.items()[-1] == (("d", "e"), 1.0)

    def test_pickles_as_the_tuple_keyed_state(self):
        loads = EdgeLoads()
        loads.add_path(["b", "c", "d"], 50.0)
        loads.add("a", "b", 100.0)
        loads.add("b", "c", 250.0)
        loads.load_bound = 7.0
        state = loads.__getstate__()
        assert state == LEGACY_STATE
        assert list(state["_loads"]) == [("b", "c"), ("c", "d"), ("a", "b")]
        clone = pickle.loads(pickle.dumps(loads))
        assert clone.items() == loads.items()
        assert clone.total == loads.total

    def test_topology_ledger_pickles_without_its_index(self):
        """A routed evaluation round-trips (as cache backends and run
        journals store it) with the same checks, and no graph index."""
        from repro.apps.synthetic import random_core_graph
        from repro.core.constraints import (
            Constraints,
            bandwidth_feasible,
            bandwidth_overflow,
        )
        from repro.core.evaluate import evaluate_mapping
        from repro.core.greedy import initial_greedy_mapping
        from repro.routing.library import make_routing
        from repro.topology.library import make_topology

        app = random_core_graph(8, seed=5)
        topology = make_topology("mesh", 8)
        constraints = Constraints(link_capacity_mb_s=50.0)
        evaluation = evaluate_mapping(
            app, topology, initial_greedy_mapping(app, topology),
            make_routing("SM"), constraints, with_floorplan=False,
        )
        blob = pickle.dumps(evaluation)
        assert b"GraphIndex" not in blob
        restored = pickle.loads(blob)
        before = evaluation.routing_result.loads
        after = restored.routing_result.loads
        assert after.items() == before.items()
        assert after.total == before.total
        assert bandwidth_feasible(
            restored.routing_result, restored.topology, constraints
        ) == bandwidth_feasible(
            evaluation.routing_result, topology, constraints
        )
        assert bandwidth_overflow(
            restored.routing_result, restored.topology, constraints
        ) == evaluation.overflow_mb_s > 0
