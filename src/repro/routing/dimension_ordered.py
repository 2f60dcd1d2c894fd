"""Dimension-ordered (DO) routing.

Fully deterministic: each commodity follows the single path produced by
resolving topology dimensions in a fixed order (XY on mesh/torus, e-cube
on hypercube, destination-tag on a butterfly). No load awareness — which
is why DO needs the largest link bandwidth in Figure 9(a).

Topologies without a dimension order (e.g. Clos) raise
:class:`~repro.errors.UnsupportedRoutingError`; the selector reports the
combination as unsupported.
"""

from __future__ import annotations

from repro.routing.base import RoutingFunction
from repro.routing.loads import EdgeLoads
from repro.routing.shortest import dor_entry
from repro.topology.base import Topology


class DimensionOrderedRouting(RoutingFunction):
    """Paper routing function "DO"."""

    code = "DO"
    name = "dimension-ordered"

    def load_independent(
        self, topology: Topology, src_slot: int, dst_slot: int
    ) -> bool:
        """Always: the dimension-ordered path ignores the ledger, so the
        incremental engine's delta is fully O(Δ) for DO routing."""
        return True

    def route_commodity(
        self,
        topology: Topology,
        src_slot: int,
        dst_slot: int,
        value: float,
        loads: EdgeLoads,
    ) -> list[tuple[list, float]]:
        path, eids = dor_entry(topology, src_slot, dst_slot)
        loads.bind(topology.graph_index)
        loads.add_ids(eids, value)
        return [(list(path), value)]
