"""Network-level estimation tests."""

import pytest

from repro.core.coregraph import CoreGraph
from repro.routing.library import make_routing
from repro.topology.library import make_topology


@pytest.fixture
def routed_mesh():
    g = CoreGraph("x")
    for i in range(6):
        g.add_core(f"c{i}")
    g.add_flow("c0", "c5", 400.0)
    g.add_flow("c1", "c4", 200.0)
    topo = make_topology("mesh", 6)
    result = make_routing("MP").route_all(
        topo, {i: i for i in range(6)}, g.commodities()
    )
    return topo, result


class TestUsedSwitches:
    def test_direct_topology_uses_all(self, routed_mesh, estimator):
        topo, result = routed_mesh
        assert estimator.used_switches(topo, result) == set(topo.switches)

    def test_indirect_topology_prunes(self, estimator):
        g = CoreGraph("x")
        for i in range(4):
            g.add_core(f"c{i}")
        g.add_flow("c0", "c1", 100.0)
        topo = make_topology("butterfly", 9)  # 3-ary 2-fly
        result = make_routing("MP").route_all(
            topo, {0: 0, 1: 1, 2: 2, 3: 3}, g.commodities()
        )
        used = estimator.used_switches(topo, result)
        assert len(used) < len(topo.switches)


class TestPower:
    def test_power_positive_and_decomposed(self, routed_mesh, estimator):
        topo, result = routed_mesh
        b = estimator.network_power_mw(topo, result)
        assert b.switch_dynamic > 0
        assert b.link_dynamic > 0
        assert b.clock > 0
        assert b.leakage > 0
        assert b.total_mw == pytest.approx(
            b.switch_dynamic + b.link_dynamic + b.clock + b.leakage
        )

    def test_more_traffic_more_power(self, estimator):
        def build(scale):
            g = CoreGraph("x")
            for i in range(6):
                g.add_core(f"c{i}")
            g.add_flow("c0", "c5", 100.0 * scale)
            topo = make_topology("mesh", 6)
            result = make_routing("MP").route_all(
                topo, {i: i for i in range(6)}, g.commodities()
            )
            return estimator.network_power_mw(topo, result).total_mw

        assert build(4) > build(1)

    def test_floorplan_lengths_override_nominal(self, routed_mesh, estimator):
        topo, result = routed_mesh
        short = {e: 0.1 for e in topo.graph.edges()}
        long = {e: 5.0 for e in topo.graph.edges()}
        p_short = estimator.network_power_mw(topo, result, lengths_mm=short)
        p_long = estimator.network_power_mw(topo, result, lengths_mm=long)
        assert p_long.link_dynamic > p_short.link_dynamic

    def test_switch_area_totals(self, routed_mesh, estimator):
        topo, result = routed_mesh
        area = estimator.switches_area_mm2(topo, result)
        assert 0.5 < area < 5.0  # 6 small switches

    def test_channel_area_grows_with_pitch(self, routed_mesh, estimator):
        topo, result = routed_mesh
        a1 = estimator.channels_area_mm2(topo, result, pitch_mm=1.0)
        a2 = estimator.channels_area_mm2(topo, result, pitch_mm=2.0)
        assert a2 > a1


#: Evaluates one mpeg4 mapping on mesh-3x4 (SM routing) and prints the
#: reprs of its power and area figures.
_HASH_SEED_PROBE = """
from repro.apps import mpeg4
from repro.core.constraints import Constraints
from repro.core.evaluate import evaluate_mapping
from repro.routing.library import make_routing
from repro.topology.library import make_topology

assignment = {0: 3, 1: 1, 2: 2, 3: 5, 4: 6, 5: 10, 6: 8, 7: 4, 8: 0,
              9: 11, 10: 7, 11: 9}
ev = evaluate_mapping(mpeg4(), make_topology("mesh", 12), assignment,
                      make_routing("SM"), Constraints())
print(repr((ev.power_mw, ev.area_mm2, ev.power.clock, ev.power.leakage)))
"""


def test_power_and_area_independent_of_hash_seed():
    """The static power and switch area sums follow the topology's
    switch order, not the string-hash order of a set."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    outputs = []
    for seed in ("0", "21"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE],
            capture_output=True, text=True, timeout=120, env=env,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
