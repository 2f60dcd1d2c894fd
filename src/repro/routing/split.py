"""Traffic-splitting routing functions (SM and SA).

A commodity is divided into equal chunks routed sequentially; each chunk's
traffic is recorded before the next chunk searches, so chunks naturally
fan out over parallel paths. Chunks that end up on the same path are
merged in the result.

* ``SM`` (split across minimum paths) searches the quadrant graph with
  hop-dominant weights: chunks spread over the *minimum* paths only.
* ``SA`` (split across all paths) searches the whole topology graph with
  load-dominant weights: chunks may take longer detours to flatten load.

With these two, MPEG4's 910 MB/s SDRAM flow fits under 500 MB/s links
(455 MB/s per half), which is why only split routing maps MPEG4 in
Section 6.1 / Figure 9(a).
"""

from __future__ import annotations

from repro.routing.base import RoutingFunction
from repro.routing.loads import EdgeLoads
from repro.routing.shortest import (
    hop_scale,
    least_load_eps,
    least_load_search,
    min_hop_search,
    quadrant_search_entry,
    search_edge_set,
    view_search_entry,
)
from repro.topology.base import Topology

#: Default number of chunks a commodity is split into.
DEFAULT_CHUNKS = 4


def _merge(paths: list[tuple[list, float]]) -> list[tuple[list, float]]:
    """Merge duplicate paths, preserving first-seen order."""
    merged: dict[tuple, list] = {}
    order = []
    for path, bw in paths:
        key = tuple(path)
        if key not in merged:
            merged[key] = [path, 0.0]
            order.append(key)
        merged[key][1] += bw
    return [(merged[k][0], merged[k][1]) for k in order]


class _SplitRoutingBase(RoutingFunction):
    """Chunk count shared by SM and SA."""

    def __init__(self, chunks: int = DEFAULT_CHUNKS):
        if chunks < 1:
            raise ValueError("chunks must be >= 1")
        self.chunks = chunks


class SplitMinPathRouting(_SplitRoutingBase):
    """Paper routing function "SM": split across minimum paths."""

    code = "SM"
    name = "split-traffic-minimum-paths"

    def load_independent(
        self, topology: Topology, src_slot: int, dst_slot: int
    ) -> bool:
        """True when the quadrant has a single minimum-hop path: SM's
        hop-dominant chunk searches are all forced onto it, so the whole
        commodity routes identically under any ledger."""
        entry = quadrant_search_entry(topology, src_slot, dst_slot)
        return entry.path is not None

    def route_commodity(
        self,
        topology: Topology,
        src_slot: int,
        dst_slot: int,
        value: float,
        loads: EdgeLoads,
    ) -> list[tuple[list, float]]:
        index = topology.graph_index
        vals = loads.bind(index)
        entry = quadrant_search_entry(topology, src_slot, dst_slot)
        chunk_bw = value / self.chunks
        if entry.path is not None:
            # Hop count dominates SM's weight, so a quadrant with a
            # single minimum-hop path forces every chunk onto it: record
            # each chunk's traffic separately (the ledger accumulates
            # exactly as in the per-chunk search) without re-searching.
            for _ in range(self.chunks):
                loads.add_ids(entry.eids, chunk_bw)
            return _merge([(list(entry.path), chunk_bw)] * self.chunks)
        paths = []
        for _ in range(self.chunks):
            scale = hop_scale(loads, chunk_bw, entry.num_nodes)
            path, eids = min_hop_search(index, entry, vals, scale)
            loads.add_ids(eids, chunk_bw)
            paths.append((path, chunk_bw))
        return _merge(paths)

    def search_edges(
        self, topology: Topology, src_slot: int, dst_slot: int
    ) -> frozenset | None:
        return search_edge_set(topology, src_slot, dst_slot)


class SplitAllPathRouting(_SplitRoutingBase):
    """Paper routing function "SA": split across all paths."""

    code = "SA"
    name = "split-traffic-all-paths"

    def __init__(self, chunks: int = 2 * DEFAULT_CHUNKS):
        super().__init__(chunks)

    def route_commodity(
        self,
        topology: Topology,
        src_slot: int,
        dst_slot: int,
        value: float,
        loads: EdgeLoads,
    ) -> list[tuple[list, float]]:
        index = topology.graph_index
        vals = loads.bind(index)
        entry = view_search_entry(topology, src_slot, dst_slot)
        chunk_bw = value / self.chunks
        paths = []
        for _ in range(self.chunks):
            eps = least_load_eps(loads, chunk_bw)
            path, eids = least_load_search(index, entry, vals, eps)
            loads.add_ids(eids, chunk_bw)
            paths.append((path, chunk_bw))
        return _merge(paths)
