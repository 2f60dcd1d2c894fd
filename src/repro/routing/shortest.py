"""Load-aware shortest-path search used by MP/SM/SA routing.

Two weightings:

* hop-dominant (:func:`min_hop_search`, :func:`min_hop_then_load`) —
  hop count dominates; accumulated load only breaks ties. The load term
  of a whole path is scaled to stay below 1, so a path can never trade
  an extra hop for less load. This implements Figure 5's
  Dijkstra-on-quadrant with "edge weights increased by vl(dk)".
* load-dominant (:func:`least_load_search`, :func:`load_then_hops`) —
  load dominates; a tiny per-hop epsilon keeps zero-load searches
  minimal. Used by split-across-all-paths routing, which may leave the
  quadrant to avoid congestion.

Both run on integer ids (:class:`~repro.topology.base.GraphIndex`): a
search graph is a :class:`SearchEntry` whose successor lists hold
``(node id, edge id)`` pairs, and edge weights read the flat
:class:`~repro.routing.loads.EdgeLoads` list by edge id. Each search is
a faithful port of networkx's Dijkstra: identical float accumulation,
identical heap tie-breaking (push counter), identical strict-improvement
predecessor updates and successor order (``G.adj`` order), so the
returned paths are bit-for-bit the ones ``nx.dijkstra_path`` produces
on the same graph. A search returns the node path plus its edge ids,
which the ledger adds without touching a tuple key.

Search entries are cached on the topology per slot pair — the quadrant
graph for MP/SM (Section 4.3), the whole-graph routing view for SA and
whole-graph MP — and are safe to share because topology graphs are
immutable after construction. An entry whose search graph has a single
minimum-hop path stores that path and its edge ids instead of
successors: hop-dominant searches provably return it under any load.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import NamedTuple

import networkx as nx

from repro.errors import UnroutableError
from repro.routing.loads import EdgeLoads
from repro.topology.base import GraphIndex, Topology, is_switch, term


class SearchEntry(NamedTuple):
    """One search graph for one (source, destination) pair, on ids."""

    #: The single minimum-hop node path, or ``None`` (path diversity).
    path: list | None
    #: Its edge ids (``None`` with ``path``).
    eids: tuple | None
    #: Node id -> ``[(node id, edge id)]`` of the search graph.
    succ: dict | list
    #: Node count of the search graph (sets the hop-dominant scale).
    num_nodes: int
    src: int
    dst: int


def routing_view(graph: nx.DiGraph, src, dst) -> nx.DiGraph:
    """Subgraph containing all switches but only the endpoint terminals.

    Routes must never pass *through* a third core's terminal; restricting
    the search graph enforces that structurally.
    """

    def keep(node, _src=src, _dst=dst):
        return is_switch(node) or node == _src or node == _dst

    return nx.subgraph_view(graph, filter_node=keep)


def _entry(
    index: GraphIndex, succ, num_nodes: int, src: int, dst: int
) -> SearchEntry:
    """A :class:`SearchEntry`, with the unique minimum-hop path resolved.

    Justification for the shortcut: the hop-dominant weight of every
    edge is ``1.0 + load/scale`` with the load terms of any whole path
    summing strictly below 1, so an ``h``-hop path always outweighs an
    ``(h+1)``-hop one — Dijkstra's result is provably a minimum-hop
    path, and when only one exists the loads cannot change the answer.
    A breadth-first search counts minimum-hop paths (capped at two).

    Raises:
        UnroutableError: when ``dst`` is unreachable from ``src``.
    """
    hops = {src: 0}
    count = {src: 1}
    via = {}
    frontier = [src]
    while frontier and dst not in hops:
        level = []
        for v in frontier:
            h = hops[v] + 1
            for u, e in succ[v]:
                hu = hops.get(u)
                if hu is None:
                    hops[u] = h
                    count[u] = count[v]
                    via[u] = e
                    level.append(u)
                elif hu == h and count[u] < 2:
                    count[u] = min(2, count[u] + count[v])
        frontier = level
    if dst not in hops:
        raise UnroutableError(
            f"no route from {index.nodes[src]} to {index.nodes[dst]}: "
            "endpoints are partitioned"
        )
    if count[dst] > 1:
        return SearchEntry(None, None, succ, num_nodes, src, dst)
    path, eids = _trace(index, via, src, dst)
    return SearchEntry(path, eids, succ, num_nodes, src, dst)


def _trace(index: GraphIndex, via: dict, src: int, dst: int):
    """Node path and edge ids from predecessor edges ``via``."""
    edge_src = index.edge_src
    eids = []
    v = dst
    while v != src:
        e = via[v]
        eids.append(e)
        v = edge_src[e]
    eids.reverse()
    nodes = index.nodes
    path = [nodes[edge_src[e]] for e in eids]
    path.append(nodes[dst])
    return path, tuple(eids)


def _unreachable(index: GraphIndex, target: int) -> UnroutableError:
    return UnroutableError(
        f"no route to {index.nodes[target]}: endpoints are partitioned"
    )


def min_hop_search(
    index: GraphIndex, entry: SearchEntry, vals: list, scale: float
) -> tuple[list, tuple]:
    """Dijkstra with the hop-dominant edge weight ``1.0 + load / scale``.

    A port of ``networkx._dijkstra_multisource`` that mirrors it exactly
    where it matters for bit-identity: ``seen[source] = 0`` (int), the
    edge cost computed *before* being added to the node distance (same
    float rounding), a monotonically increasing push counter as the heap
    tie-break, the predecessor overwritten only on strict improvement,
    and the path read back along first predecessors from the target.
    The weight is only evaluated for unsettled neighbours (it is pure,
    so skipping it for settled ones changes nothing). Returns
    ``(node path, edge ids)``.
    """
    succ = entry.succ
    source = entry.src
    target = entry.dst
    dist = {}
    seen = {source: 0}
    via = {}
    fringe = [(0, 0, source)]
    counter = 1
    while fringe:
        dist_v, _, v = heappop(fringe)
        if v in dist:
            continue  # already searched this node
        dist[v] = dist_v
        if v == target:
            break
        for u, e in succ[v]:
            if u in dist:
                continue
            vu_dist = dist_v + (1.0 + vals[e] / scale)
            seen_u = seen.get(u)
            if seen_u is None or vu_dist < seen_u:
                seen[u] = vu_dist
                heappush(fringe, (vu_dist, counter, u))
                counter += 1
                via[u] = e
    if target not in dist:
        raise _unreachable(index, target)
    return _trace(index, via, source, target)


def least_load_search(
    index: GraphIndex, entry: SearchEntry, vals: list, eps: float
) -> tuple[list, tuple]:
    """As :func:`min_hop_search` but with the load-dominant weight
    ``load + eps`` (split-across-all-paths routing)."""
    succ = entry.succ
    source = entry.src
    target = entry.dst
    dist = {}
    seen = {source: 0}
    via = {}
    fringe = [(0, 0, source)]
    counter = 1
    while fringe:
        dist_v, _, v = heappop(fringe)
        if v in dist:
            continue
        dist[v] = dist_v
        if v == target:
            break
        for u, e in succ[v]:
            if u in dist:
                continue
            vu_dist = dist_v + (vals[e] + eps)
            seen_u = seen.get(u)
            if seen_u is None or vu_dist < seen_u:
                seen[u] = vu_dist
                heappush(fringe, (vu_dist, counter, u))
                counter += 1
                via[u] = e
    if target not in dist:
        raise _unreachable(index, target)
    return _trace(index, via, source, target)


def hop_scale(loads: EdgeLoads, value: float, num_nodes: int) -> float:
    """Scale keeping a whole path's load terms strictly below one hop.

    With a precomputed :attr:`~repro.routing.loads.EdgeLoads.load_bound`
    (set by ``route_all`` from the commodity list) the scale is a
    constant of the (application, topology, slot pair) — every single
    edge load is bounded by the final ledger total, which the bound
    dominates, so hop dominance holds throughout the run. A
    history-independent scale means two evaluations that agree on the
    loads inside a commodity's search graph run the bit-identical
    Dijkstra even when their ledgers differ elsewhere — the property the
    incremental engine's skip-unchanged-search shortcut rests on.
    Without a bound, fall back to the legacy running-total formula
    (direct callers outside ``route_all``).
    """
    bound = loads.load_bound
    if bound is not None:
        return max(1.0, bound * (num_nodes + 1))
    return max(1.0, (loads.total + value) * (num_nodes + 1))


def least_load_eps(loads: EdgeLoads, value: float) -> float:
    """Per-hop epsilon of the load-dominant weight."""
    return max(1e-9, (loads.total + value) * 1e-6)


# ----------------------------------------------------------------------
# per-topology search entries
# ----------------------------------------------------------------------
#: Stand-in for a topology's not yet created entry cache.
_NO_ENTRIES: dict = {}


def quadrant_search_entry(
    topology: Topology, src_slot: int, dst_slot: int
) -> SearchEntry:
    """The quadrant graph of a slot pair (Section 4.3) as a search entry.

    Successors are the graph's, filtered to the quadrant's nodes; a
    trivial quadrant (``quadrant_nodes`` is ``None``, e.g. Clos) is the
    whole graph. Cached on the topology per slot pair, so the
    per-commodity hot path of MP/SM routing costs one dict lookup.
    """
    key = (src_slot, dst_slot)
    entry = topology.__dict__.get("_quadrant_entry_cache", _NO_ENTRIES).get(key)
    if entry is None:
        cache = topology.__dict__.setdefault("_quadrant_entry_cache", {})
        index = topology.graph_index
        node_ids = index.node_ids
        src = node_ids[term(src_slot)]
        dst = node_ids[term(dst_slot)]
        nodes = topology.quadrant_nodes(src_slot, dst_slot)
        if nodes is None:
            succ = index.succ
            num_nodes = len(succ)
        else:
            keep = {node_ids[n] for n in nodes if n in node_ids}
            keep.update((src, dst))
            succ = {
                v: [(u, e) for u, e in index.succ[v] if u in keep]
                for v in sorted(keep)
            }
            num_nodes = len(succ)
        entry = cache[key] = _entry(index, succ, num_nodes, src, dst)
    return entry


def view_search_entry(
    topology: Topology, src_slot: int, dst_slot: int
) -> SearchEntry:
    """The whole-graph :func:`routing_view` of a slot pair (all
    switches, the two endpoint terminals) as a search entry, cached on
    the topology per slot pair."""
    key = (src_slot, dst_slot)
    entry = topology.__dict__.get("_view_entry_cache", _NO_ENTRIES).get(key)
    if entry is None:
        cache = topology.__dict__.setdefault("_view_entry_cache", {})
        index = topology.graph_index
        src = index.node_ids[term(src_slot)]
        dst = index.node_ids[term(dst_slot)]
        keep = [
            i == src or i == dst or is_switch(node)
            for i, node in enumerate(index.nodes)
        ]
        succ = [
            [(u, e) for u, e in row if keep[u]] if keep[v] else ()
            for v, row in enumerate(index.succ)
        ]
        entry = cache[key] = _entry(index, succ, sum(keep), src, dst)
    return entry


def search_edge_set(
    topology: Topology, src_slot: int, dst_slot: int
) -> frozenset | None:
    """Ids of all directed edges the quadrant search for a slot pair can
    read.

    The incremental engine skips re-searching a clean commodity when
    none of these edges diverged from the base ledger. Returns ``None``
    when the quadrant is the whole topology graph (trivial quadrant,
    e.g. Clos) — meaning "any diverged edge may matter, never skip".
    Cached on the topology per slot pair.
    """
    cache = topology.__dict__.setdefault("_search_edges_cache", {})
    key = (src_slot, dst_slot)
    entry = cache.get(key, False)
    if entry is False:
        succ = quadrant_search_entry(topology, src_slot, dst_slot).succ
        if succ is topology.graph_index.succ:
            entry = None
        else:
            entry = frozenset(e for row in succ.values() for _, e in row)
        cache[key] = entry
    return entry


def dor_entry(topology: Topology, src_slot: int, dst_slot: int):
    """``(node path, edge ids)`` of the pair's dimension-ordered route,
    cached on the topology per slot pair."""
    key = (src_slot, dst_slot)
    entry = topology.__dict__.get("_dor_entry_cache", _NO_ENTRIES).get(key)
    if entry is None:
        cache = topology.__dict__.setdefault("_dor_entry_cache", {})
        path = topology.dor_path(src_slot, dst_slot)
        entry = cache[key] = (path, topology.graph_index.path_edge_ids(path))
    return entry


# ----------------------------------------------------------------------
# any graph
# ----------------------------------------------------------------------
def _graph_entry(graph: nx.DiGraph, src, dst) -> tuple[GraphIndex, SearchEntry]:
    index = GraphIndex(graph)
    return index, _entry(
        index,
        index.succ,
        len(index.nodes),
        index.node_ids[src],
        index.node_ids[dst],
    )


def min_hop_then_load(
    graph: nx.DiGraph, src, dst, loads: EdgeLoads, value: float
) -> list:
    """Minimum-hop path, breaking ties by least accumulated traffic."""
    index, entry = _graph_entry(graph, src, dst)
    if entry.path is not None:
        return list(entry.path)
    vals = loads.bind(index)
    scale = hop_scale(loads, value, entry.num_nodes)
    return min_hop_search(index, entry, vals, scale)[0]


def load_then_hops(
    graph: nx.DiGraph, src, dst, loads: EdgeLoads, value: float
) -> list:
    """Least-loaded path; hops only matter between equally loaded paths."""
    index, entry = _graph_entry(graph, src, dst)
    vals = loads.bind(index)
    return least_load_search(index, entry, vals, least_load_eps(loads, value))[0]
