"""The general mapping algorithm (Figure 5)."""

import pytest

from repro.core.constraints import Constraints
from repro.core.evaluate import evaluate_mapping
from repro.core.greedy import initial_greedy_mapping
from repro.core.mapper import MapperConfig, map_onto
from repro.errors import MappingInfeasibleError, UnsupportedRoutingError
from repro.routing.library import make_routing
from repro.topology.library import make_topology

FAST = MapperConfig(converge=False, swap_rounds=1)


class TestMapOnto:
    def test_returns_valid_assignment(self, tiny_app):
        topo = make_topology("mesh", 4)
        ev = map_onto(tiny_app, topo, routing="MP", objective="hops",
                      config=FAST)
        assert set(ev.assignment) == {0, 1, 2, 3}
        assert len(set(ev.assignment.values())) == 4

    def test_swap_never_worse_than_greedy(self, vopd_app):
        topo = make_topology("mesh", 12)
        greedy = initial_greedy_mapping(vopd_app, topo)
        greedy_ev = evaluate_mapping(
            vopd_app, topo, greedy, make_routing("MP"), Constraints()
        )
        best = map_onto(vopd_app, topo, routing="MP", objective="hops",
                        config=FAST)
        assert best.avg_hops <= greedy_ev.avg_hops + 1e-9

    def test_converge_never_worse_than_single_pass(self, vopd_app):
        topo = make_topology("torus", 12)
        single = map_onto(vopd_app, topo, routing="MP", objective="hops",
                          config=FAST)
        multi = map_onto(
            vopd_app, topo, routing="MP", objective="hops",
            config=MapperConfig(converge=True, max_rounds=6),
        )
        assert multi.sort_key() <= single.sort_key()

    def test_deterministic(self, tiny_app):
        topo = make_topology("mesh", 4)
        e1 = map_onto(tiny_app, topo, config=FAST)
        e2 = map_onto(tiny_app, topo, config=FAST)
        assert e1.assignment == e2.assignment
        assert e1.cost == e2.cost

    def test_search_work_repeats_exactly(self, vopd_app, monkeypatch):
        """Identical searches in one process do identical work: every
        swap is delta-routed, so only the greedy seed and the final
        floorplanned winner are evaluated from scratch."""
        import repro.core.memo as memo_module
        from repro.routing.incremental import IncrementalRoutingEngine

        counts = {"scratch": 0, "delta": 0}

        def counted(kind, fn):
            def wrapper(*args, **kwargs):
                counts[kind] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            memo_module, "evaluate_mapping",
            counted("scratch", memo_module.evaluate_mapping),
        )
        monkeypatch.setattr(
            IncrementalRoutingEngine, "route_swap",
            counted("delta", IncrementalRoutingEngine.route_swap),
        )
        topo = make_topology("mesh", 12)
        runs = []
        for _ in range(2):
            counts.update(scratch=0, delta=0)
            map_onto(vopd_app, topo, routing="MP")
            runs.append(dict(counts))
        assert runs[0] == runs[1]
        assert runs[0]["scratch"] <= 2
        assert runs[0]["delta"] > 0

    def test_final_evaluation_has_floorplan(self, tiny_app):
        topo = make_topology("mesh", 4)
        ev = map_onto(tiny_app, topo, objective="hops", config=FAST)
        assert ev.floorplan is not None
        assert ev.area_mm2 is not None

    def test_collector_receives_all_evaluations(self, tiny_app):
        topo = make_topology("mesh", 4)
        collected = []
        map_onto(tiny_app, topo, config=FAST, collector=collected)
        # greedy + all pairwise swaps (C(4,2) = 6) at minimum
        assert len(collected) >= 7

    def test_too_many_cores_raises(self, vopd_app):
        topo = make_topology("mesh", 6)
        with pytest.raises(MappingInfeasibleError):
            map_onto(vopd_app, topo, config=FAST)

    def test_unsupported_routing_raises(self, tiny_app):
        topo = make_topology("clos", 4)
        with pytest.raises(UnsupportedRoutingError):
            map_onto(tiny_app, topo, routing="DO", config=FAST)

    def test_power_objective_reports_power_cost(self, tiny_app):
        topo = make_topology("mesh", 4)
        ev = map_onto(tiny_app, topo, objective="power", config=FAST)
        assert ev.cost == pytest.approx(ev.power_mw)

    def test_area_objective_reports_area_cost(self, tiny_app):
        topo = make_topology("mesh", 4)
        ev = map_onto(tiny_app, topo, objective="area", config=FAST)
        assert ev.cost == pytest.approx(ev.area_mm2)

    def test_bandwidth_objective_minimizes_max_load(self, tiny_app):
        topo = make_topology("mesh", 4)
        ev = map_onto(
            tiny_app, topo, objective="bandwidth",
            constraints=Constraints().relaxed(), config=FAST,
        )
        # Cost = max load + subordinate RMS tiebreak (< 0.1% of base).
        assert ev.max_link_load <= ev.cost <= 1.001 * ev.max_link_load

    def test_free_slot_swaps_are_explored(self, tiny_app):
        """Hypercube for 4 cores has 4 slots; mesh for 4 has exactly 4 —
        use a 6-slot mesh so moves into empty slots are possible."""
        topo = make_topology("mesh", 6)
        collected = []
        map_onto(tiny_app, topo, config=FAST, collector=collected)
        used_slot_sets = {tuple(sorted(ev.assignment.values()))
                          for ev in collected}
        assert len(used_slot_sets) > 1  # some candidate used other slots

    def test_infeasible_everywhere_is_reported_not_raised(self, mpeg4_app):
        topo = make_topology("butterfly", 12)
        ev = map_onto(mpeg4_app, topo, routing="SM", objective="hops",
                      config=MapperConfig(converge=True, max_rounds=3))
        assert not ev.feasible
        assert ev.max_link_load >= 910.0  # the unsplittable SDRAM flow
