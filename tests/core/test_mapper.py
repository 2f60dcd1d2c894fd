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


class TestDeferredFloorplan:
    """Floorplanned searches floorplan only the candidates they can rank
    on a floorplan, and still report complete winners."""

    CONVERGE = MapperConfig(converge=True, max_rounds=10)

    @staticmethod
    def _from_scratch(app, ev, objective):
        from repro.core.objectives import make_objective

        scratch = evaluate_mapping(
            app, ev.topology, ev.assignment, make_routing(ev.routing_code),
            Constraints(), with_floorplan=True,
        )
        scratch.cost = make_objective(objective).cost(scratch)
        return scratch

    def test_power_search_floorplans_only_rankable_candidates(
        self, mpeg4_app, monkeypatch
    ):
        import repro.core.evaluate as evaluate_module

        calls = []
        original = evaluate_module.floorplan_mapping

        def counted(topology, assignment, *args, **kwargs):
            calls.append(tuple(sorted(assignment.items())))
            return original(topology, assignment, *args, **kwargs)

        monkeypatch.setattr(evaluate_module, "floorplan_mapping", counted)
        topo = make_topology("mesh", 12)
        collected = []
        best = map_onto(
            mpeg4_app, topo, routing="SM", objective="power",
            config=self.CONVERGE, collector=collected,
        )
        evaluated = {tuple(sorted(ev.assignment.items())) for ev in collected}
        rankable = {
            tuple(sorted(ev.assignment.items()))
            for ev in collected
            if ev.bandwidth_feasible and ev.qos_feasible
        }
        # Most candidates fail the bandwidth check and are never
        # floorplanned; each rankable one is floorplanned exactly once.
        assert len(rankable) < len(evaluated) / 2
        assert len(calls) == len(set(calls))
        winner = tuple(sorted(best.assignment.items()))
        assert set(calls) - {winner} <= rankable
        assert rankable <= set(calls)
        assert best.feasible and best.floorplan is not None

    def test_infeasible_winner_is_completed_exactly(self, mpeg4_app):
        """mpeg4 has no feasible butterfly mapping, so the winner's
        floorplan was deferred during the search."""
        topo = make_topology("butterfly", 12)
        best = map_onto(
            mpeg4_app, topo, routing="SM", objective="power",
            config=self.CONVERGE,
        )
        assert not best.bandwidth_feasible
        scratch = self._from_scratch(mpeg4_app, best, "power")
        assert best.floorplan is not None
        assert best.floorplan == scratch.floorplan
        assert best.area_mm2 == scratch.area_mm2
        assert best.power_mw == scratch.power_mw
        assert best.cost == scratch.cost
        assert best.area_feasible == scratch.area_feasible

    def test_annealing_completes_infeasible_winner(self, mpeg4_app):
        from repro.core.annealing import AnnealingConfig, simulated_annealing_map

        topo = make_topology("butterfly", 12)
        best = simulated_annealing_map(
            mpeg4_app, topo, routing="SM", objective="power",
            config=AnnealingConfig(iterations=60),
        )
        assert not best.bandwidth_feasible
        scratch = self._from_scratch(mpeg4_app, best, "power")
        assert best.floorplan == scratch.floorplan
        assert best.power_mw == scratch.power_mw
        assert best.cost == scratch.cost
