"""Minimum-path (MP) routing — Figure 5, steps 3-6.

For each commodity, a quadrant graph between source and destination is
formed (the minimum paths all lie inside it, Section 4.3) and Dijkstra
finds the minimum-hop path with the least accumulated traffic. The
commodity's full bandwidth then loads that path, steering subsequent
commodities elsewhere.

Running Dijkstra on the quadrant instead of the whole NoC graph is the
paper's main computational saving (Section 4.1); the ablation benchmark
``bench_ablation_quadrant`` measures it.
"""

from __future__ import annotations

from repro.routing.base import RoutingFunction
from repro.routing.loads import EdgeLoads
from repro.routing.shortest import (
    hop_scale,
    min_hop_search,
    quadrant_search_entry,
    search_edge_set,
    view_search_entry,
)
from repro.topology.base import Topology


class MinimumPathRouting(RoutingFunction):
    """Paper routing function "MP"."""

    code = "MP"
    name = "minimum-path"

    def __init__(self, use_quadrant: bool = True):
        #: Disable to measure the cost of whole-graph search (ablation).
        self.use_quadrant = use_quadrant

    def _entry(self, topology: Topology, src_slot: int, dst_slot: int):
        if self.use_quadrant:
            return quadrant_search_entry(topology, src_slot, dst_slot)
        return view_search_entry(topology, src_slot, dst_slot)

    def load_independent(
        self, topology: Topology, src_slot: int, dst_slot: int
    ) -> bool:
        """True when the search graph has a single minimum-hop path: the
        hop-dominant weights provably pick it whatever the loads are
        (see :mod:`repro.routing.shortest`)."""
        return self._entry(topology, src_slot, dst_slot).path is not None

    def route_commodity(
        self,
        topology: Topology,
        src_slot: int,
        dst_slot: int,
        value: float,
        loads: EdgeLoads,
    ) -> list[tuple[list, float]]:
        # One cached lookup resolves either the pair's forced minimum
        # path or the Dijkstra search graph.
        index = topology.graph_index
        vals = loads.bind(index)
        entry = self._entry(topology, src_slot, dst_slot)
        if entry.path is not None:
            path, eids = list(entry.path), entry.eids
        else:
            scale = hop_scale(loads, value, entry.num_nodes)
            path, eids = min_hop_search(index, entry, vals, scale)
        loads.add_ids(eids, value)
        return [(path, value)]

    def search_edges(
        self, topology: Topology, src_slot: int, dst_slot: int
    ) -> frozenset | None:
        if self.use_quadrant:
            return search_edge_set(topology, src_slot, dst_slot)
        return None  # whole-graph search: any diverged edge may matter
