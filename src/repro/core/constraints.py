"""Bandwidth and area constraints (Figure 5, step 8).

"Bandwidth constraints are satisfied, if in the resulting mapping, the
traffic across any link is smaller than or equal to the capacity of the
link. The area constraints are satisfied when the mapped design area is
lower than the maximum allowed area and aspect ratios of the design and
soft core blocks are within permissible ranges."

Link capacity "is technology and implementation dependent and is assumed
as an input" — the paper's experiments use a conservative 500 MB/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import MappingInfeasibleError
from repro.floorplan.lp import FloorplanResult
from repro.routing.base import RoutingResult
from repro.topology.base import Topology

#: The paper's conservative maximum link bandwidth (Section 6.1).
DEFAULT_LINK_CAPACITY_MB_S = 500.0


@dataclass(frozen=True)
class Constraints:
    """Feasibility envelope for a mapping.

    Attributes:
        link_capacity_mb_s: capacity of every switch-to-switch channel.
        core_link_capacity_mb_s: optional capacity for terminal links
            (None = unconstrained; see DESIGN.md on why the paper's
            results require NI links to be unconstrained).
        max_area_mm2: optional ceiling on the floorplanned design area.
        max_chip_aspect: maximum chip width/height ratio (either
            orientation).
        max_flow_hops: optional QoS bound — no commodity may traverse
            more than this many switches on any of its paths (the
            paper's future-work "guaranteeing Quality-of-Service",
            realized as a per-flow latency guarantee).
    """

    link_capacity_mb_s: float = DEFAULT_LINK_CAPACITY_MB_S
    core_link_capacity_mb_s: float | None = None
    max_area_mm2: float | None = None
    max_chip_aspect: float = 3.0
    max_flow_hops: int | None = None

    def __post_init__(self):
        # "not > 0" also rejects NaN; infinity is legal (see relaxed()).
        if not self.link_capacity_mb_s > 0:
            raise MappingInfeasibleError(
                f"link capacity must be positive, got {self.link_capacity_mb_s}"
            )

    def relaxed(self) -> "Constraints":
        """Copy with bandwidth constraints lifted (Section 6.2 uses this
        to force mappings onto every topology for simulation)."""
        return Constraints(
            link_capacity_mb_s=math.inf,
            core_link_capacity_mb_s=None,
            max_area_mm2=self.max_area_mm2,
            max_chip_aspect=self.max_chip_aspect,
            max_flow_hops=self.max_flow_hops,
        )


def _core_capacity(topology: Topology, constraints: Constraints) -> float | None:
    core_cap = constraints.core_link_capacity_mb_s
    if topology.constrain_core_links and core_cap is None:
        core_cap = constraints.link_capacity_mb_s
    return core_cap


def bandwidth_feasible(
    result: RoutingResult, topology: Topology, constraints: Constraints
) -> tuple[bool, float]:
    """Check link loads against capacities.

    Returns ``(feasible, max_constrained_load)``. Fabrics with parallel
    channels (custom topologies with repeated link pairs) are checked on
    the worst *per-channel* load: an edge with multiplicity ``m``
    carries ``m`` times the single-link capacity. The ledger is read by
    edge id (:meth:`~repro.topology.base.Topology.link_ids`).
    """
    net_ids, net_mults, core_ids = topology.link_ids()
    vals = result.loads.values_on(topology.graph_index)
    # Loads are never negative, so ``default=0.0`` is the floor.
    if net_mults is None:
        net_load = max(map(vals.__getitem__, net_ids), default=0.0)
    else:
        net_load = max(
            (vals[e] / m for e, m in zip(net_ids, net_mults)), default=0.0
        )
    feasible = net_load <= constraints.link_capacity_mb_s + 1e-9
    max_load = net_load

    core_cap = _core_capacity(topology, constraints)
    if core_cap is not None:
        core_load = max(map(vals.__getitem__, core_ids), default=0.0)
        feasible = feasible and core_load <= core_cap + 1e-9
        max_load = max(max_load, core_load)
    return feasible, max_load


def qos_feasible(
    result: RoutingResult, constraints: Constraints
) -> tuple[bool, list]:
    """Check the per-flow hop bound (QoS guarantee).

    Returns ``(feasible, violations)`` where each violation is
    ``(src_slot, dst_slot, worst_hops)``.
    """
    bound = constraints.max_flow_hops
    if bound is None:
        return True, []
    violations = []
    for rc in result.routed:
        worst = max(
            (sum(1 for n in path if n[0] == "sw") for path, _ in rc.paths),
            default=0,
        )
        if worst > bound:
            violations.append((rc.src_slot, rc.dst_slot, worst))
    return not violations, violations


def bandwidth_overflow(
    result: RoutingResult, topology: Topology, constraints: Constraints
) -> float:
    """Total excess load over capacity, summed across constrained links.

    Zero iff the mapping is bandwidth-feasible. Smoother than the max
    link load, it gives the swap search a gradient across plateaus where
    several placements share the same bottleneck (e.g. an unsplittable
    600 MB/s flow) but differ elsewhere.
    """
    net_ids, net_mults, core_ids = topology.link_ids()
    vals = result.loads.values_on(topology.graph_index)
    cap = constraints.link_capacity_mb_s
    # Only overloaded links add: the others' ``max(0.0, load - cap)``
    # terms are exact zeros, which leave a float sum unchanged.
    if net_mults is None:
        overflow = sum(
            (v - cap for v in map(vals.__getitem__, net_ids) if v > cap), 0.0
        )
    else:
        overflow = sum(
            (
                vals[e] - cap * m
                for e, m in zip(net_ids, net_mults)
                if vals[e] > cap * m
            ),
            0.0,
        )
    core_cap = _core_capacity(topology, constraints)
    if core_cap is not None:
        overflow += sum(
            (v - core_cap for v in map(vals.__getitem__, core_ids) if v > core_cap),
            0.0,
        )
    return overflow


def area_feasible(
    floorplan: FloorplanResult | None,
    design_area_mm2: float | None,
    constraints: Constraints,
) -> bool:
    """Check design area and chip aspect ratio."""
    if floorplan is None:
        return True  # fast mode: area constraints deferred
    if floorplan.aspect_ratio > constraints.max_chip_aspect + 1e-6:
        return False
    if constraints.max_area_mm2 is not None:
        area = design_area_mm2 if design_area_mm2 is not None else floorplan.area_mm2
        if area > constraints.max_area_mm2 + 1e-9:
            return False
    return True
