"""Unit tests for the core graph model (paper Definition 1)."""

import math

import networkx as nx
import pytest

from repro.core.coregraph import CoreGraph
from repro.errors import CoreGraphError


def make_pair() -> CoreGraph:
    g = CoreGraph("pair")
    g.add_core("a", area_mm2=2.0)
    g.add_core("b", area_mm2=3.0)
    g.add_flow("a", "b", 100.0)
    return g


class TestConstruction:
    def test_add_core_returns_increasing_indices(self):
        g = CoreGraph("x")
        assert g.add_core("a") == 0
        assert g.add_core("b") == 1
        assert g.add_core("c") == 2

    def test_duplicate_name_rejected(self):
        g = CoreGraph("x")
        g.add_core("a")
        with pytest.raises(CoreGraphError):
            g.add_core("a")

    def test_non_positive_area_rejected(self):
        g = CoreGraph("x")
        with pytest.raises(CoreGraphError):
            g.add_core("a", area_mm2=0.0)
        with pytest.raises(CoreGraphError):
            g.add_core("b", area_mm2=-1.0)

    def test_bad_aspect_bounds_rejected(self):
        g = CoreGraph("x")
        with pytest.raises(CoreGraphError):
            g.add_core("a", aspect_min=0.0)
        with pytest.raises(CoreGraphError):
            g.add_core("b", aspect_min=2.0, aspect_max=1.0)

    @pytest.mark.parametrize("field", ["area_mm2", "aspect_min", "aspect_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_geometry_rejected(self, field, value):
        g = CoreGraph("x")
        with pytest.raises(CoreGraphError, match=field):
            g.add_core("a", **{field: value})
        assert g.num_cores == 0

    def test_self_flow_rejected(self):
        g = CoreGraph("x")
        g.add_core("a")
        with pytest.raises(CoreGraphError):
            g.add_flow("a", "a", 10.0)

    def test_non_positive_flow_rejected(self):
        g = make_pair()
        with pytest.raises(CoreGraphError):
            g.add_flow("b", "a", 0.0)

    def test_flow_by_index_and_name_equivalent(self):
        g = CoreGraph("x")
        g.add_core("a")
        g.add_core("b")
        g.add_flow(0, 1, 10.0)
        g.add_flow("a", "b", 5.0)
        assert g.comm("a", "b") == pytest.approx(15.0)

    def test_parallel_flows_accumulate(self):
        g = make_pair()
        g.add_flow("a", "b", 50.0)
        assert g.comm("a", "b") == pytest.approx(150.0)
        assert g.num_flows == 1

    def test_unknown_core_lookup(self):
        g = make_pair()
        with pytest.raises(CoreGraphError):
            g.core_index("zz")
        with pytest.raises(CoreGraphError):
            g.core_index(7)


class TestQueries:
    def test_comm_defaults_to_zero(self):
        g = make_pair()
        assert g.comm("b", "a") == 0.0

    def test_total_bandwidth(self):
        g = make_pair()
        g.add_flow("b", "a", 25.0)
        assert g.total_bandwidth() == pytest.approx(125.0)

    def test_core_traffic_counts_both_directions(self):
        g = make_pair()
        g.add_flow("b", "a", 30.0)
        assert g.core_traffic("a") == pytest.approx(130.0)
        assert g.core_traffic("b") == pytest.approx(130.0)

    def test_comm_between_is_symmetric(self):
        g = make_pair()
        g.add_flow("b", "a", 30.0)
        assert g.comm_between(0, 1) == g.comm_between(1, 0)
        assert g.comm_between(0, 1) == pytest.approx(130.0)

    def test_total_core_area(self):
        g = make_pair()
        assert g.total_core_area() == pytest.approx(5.0)

    def test_to_networkx_round_trip(self):
        g = make_pair()
        nxg = g.to_networkx()
        assert isinstance(nxg, nx.DiGraph)
        assert nxg.number_of_nodes() == 2
        assert nxg.edges[0, 1]["comm"] == pytest.approx(100.0)

    def test_repr_mentions_name(self):
        assert "pair" in repr(make_pair())


class TestCommodities:
    def test_sorted_decreasing(self):
        g = CoreGraph("x")
        for name in "abcd":
            g.add_core(name)
        g.add_flow("a", "b", 10.0)
        g.add_flow("b", "c", 500.0)
        g.add_flow("c", "d", 100.0)
        values = [c.value for c in g.commodities()]
        assert values == sorted(values, reverse=True)

    def test_commodity_indices_are_contiguous(self):
        g = make_pair()
        g.add_flow("b", "a", 10.0)
        indices = [c.index for c in g.commodities()]
        assert indices == [0, 1]

    def test_deterministic_tie_order(self):
        g = CoreGraph("x")
        for name in "abcd":
            g.add_core(name)
        g.add_flow("c", "d", 100.0)
        g.add_flow("a", "b", 100.0)
        first = [(c.src, c.dst) for c in g.commodities()]
        second = [(c.src, c.dst) for c in g.commodities()]
        assert first == second
        assert first[0] == (0, 1)  # ties break by (src, dst)

    def test_commodity_endpoints_and_values(self):
        g = make_pair()
        (c,) = g.commodities()
        assert (c.src, c.dst, c.value) == (0, 1, 100.0)


class TestValidate:
    def test_empty_graph_invalid(self):
        with pytest.raises(CoreGraphError):
            CoreGraph("x").validate()

    def test_valid_graph_passes(self):
        make_pair().validate()


class TestPaperApps:
    def test_vopd_shape(self, vopd_app):
        assert vopd_app.num_cores == 12
        assert vopd_app.num_flows == 14
        assert vopd_app.total_bandwidth() == pytest.approx(3478.0)

    def test_vopd_bandwidth_multiset_matches_figure(self, vopd_app):
        values = sorted(vopd_app.flows().values(), reverse=True)
        assert values == [
            500.0, 362.0, 362.0, 362.0, 357.0, 353.0, 313.0, 313.0,
            300.0, 94.0, 70.0, 49.0, 27.0, 16.0,
        ]

    def test_mpeg4_shape(self, mpeg4_app):
        assert mpeg4_app.num_cores == 12
        assert mpeg4_app.num_flows == 13

    def test_mpeg4_bandwidth_multiset_matches_figure(self, mpeg4_app):
        values = sorted(mpeg4_app.flows().values(), reverse=True)
        assert values == [
            910.0, 670.0, 600.0, 600.0, 500.0, 250.0, 190.0, 173.0,
            40.0, 40.0, 32.0, 0.5, 0.5,
        ]

    def test_mpeg4_has_flows_exceeding_link_capacity(self, mpeg4_app):
        over = [v for v in mpeg4_app.flows().values() if v > 500.0]
        assert len(over) == 4  # the reason min-path routing fails

    def test_dsp_shape(self, dsp_app):
        assert dsp_app.num_cores == 6
        values = sorted(dsp_app.flows().values(), reverse=True)
        assert values == [600.0, 600.0] + [200.0] * 6

    def test_netproc_shape(self, netproc_app):
        assert netproc_app.num_cores == 16
        assert netproc_app.num_flows == 48
        # Every node sources the same three flows.
        assert netproc_app.core_traffic(0) == netproc_app.core_traffic(7)
