"""User-defined heterogeneous/irregular topologies.

The paper's conclusions name "automatic heterogeneous topology modeling"
as future work; this module supplies the modeling half: an arbitrary
switch fabric — any switch sizes, any connectivity, several cores
concentrated on one switch — described explicitly and dropped into the
same mapping/selection/generation machinery as the library topologies.
(:mod:`repro.synthesis` supplies the *generation* half: it produces
these fabrics automatically from a core graph.)

Example — two 5-port hub switches bridged by a double link::

    topo = CustomTopology(
        name="dual-hub",
        slot_switch=[0, 0, 0, 0, 1, 1, 1, 1],   # slots 0-3 on hub 0
        links=[(0, 1), (0, 1)],                  # parallel bridge links
    )

Repeated link pairs model *parallel physical channels*: the pair above
becomes one graph edge carrying an explicit channel multiplicity of 2
(the ``mult`` edge attribute). Multiplicity is a capacity multiplier —
bandwidth feasibility divides the edge load by it, the physical models
instantiate that many channels (wiring area, repeater leakage, switch
ports), and generation emits that many pipelined links. One known gap:
the flit-level simulator still models a fat link as a *single* channel
(one flit per cycle per VC), a conservative under-approximation of its
throughput — campaign latency curves on fat-link fabrics saturate
earlier than the physical design would.

Quadrant graphs degenerate to the whole fabric (Section 4.3's
constructions are topology-specific), so minimum-path search stays
correct, just unpruned. Dimension-ordered routing is undefined.
"""

from __future__ import annotations

import math
from collections import Counter

import networkx as nx

from repro.errors import TopologyError
from repro.topology.base import Topology, switch, term

#: Most parallel channels one switch pair may carry in a topology file
#: (``mult``), and the largest switch degree synthesis accepts — a
#: synthesized fat link never has more channels than its switch degree,
#: so every synthesized fabric reloads.
MAX_LINK_MULT = 64


class CustomTopology(Topology):
    """An explicit, possibly heterogeneous, switch fabric.

    Args:
        name: topology name (also used in selection tables).
        slot_switch: for each terminal slot, the integer id of the
            switch its core attaches to (bidirectionally). Several slots
            may share a switch (concentration).
        links: switch-id pairs; each entry creates one bidirectional
            channel. Repeated pairs create parallel channels, modeled as
            one graph edge with an explicit channel multiplicity (the
            ``mult`` edge attribute) acting as a capacity multiplier.
            Self-loop pairs ``(s, s)`` raise :class:`TopologyError`.
        positions: optional ``{switch_id: (x, y)}`` placement in tile
            pitches; defaults to a near-square grid in id order.
    """

    kind = "direct"

    def __init__(
        self,
        name: str,
        slot_switch: list[int],
        links: list[tuple[int, int]],
        positions: dict[int, tuple[float, float]] | None = None,
    ):
        if not slot_switch:
            raise TopologyError("custom topology needs at least one slot")
        if len(slot_switch) < 2:
            raise TopologyError("custom topology needs at least two slots")
        self._slot_switch = list(slot_switch)
        self._switch_ids = sorted(set(slot_switch) | {
            s for pair in links for s in pair
        })
        for a, b in links:
            if a == b:
                raise TopologyError(f"self-link on switch {a}")
        #: Channel multiplicity per undirected switch pair.
        self._link_mult: dict[tuple[int, int], int] = dict(
            Counter(tuple(sorted(pair)) for pair in links)
        )
        self._positions = dict(positions or {})
        if not self._positions:
            side = max(1, math.ceil(math.sqrt(len(self._switch_ids))))
            for idx, sid in enumerate(self._switch_ids):
                self._positions[sid] = (float(idx % side), float(idx // side))
        missing = [s for s in self._switch_ids if s not in self._positions]
        if missing:
            raise TopologyError(f"switches without positions: {missing}")
        super().__init__(name)
        self.validate_connectivity()

    @property
    def num_slots(self) -> int:
        return len(self._slot_switch)

    @property
    def slot_switch(self) -> list[int]:
        """Per-slot attached switch id (a copy; serialization uses it)."""
        return list(self._slot_switch)

    def concentration(self) -> dict[int, int]:
        """Cores per switch (heterogeneity summary)."""
        return dict(Counter(self._slot_switch))

    def link_multiplicity(self) -> dict[tuple[int, int], int]:
        """Channel count per undirected switch pair (a copy)."""
        return dict(self._link_mult)

    def switch_positions(self) -> dict[int, tuple[float, float]]:
        """Switch placements in tile pitches (a copy)."""
        return dict(self._positions)

    def _build(self) -> nx.DiGraph:
        g = nx.DiGraph(name=self.name)
        for slot, sid in enumerate(self._slot_switch):
            g.add_edge(term(slot), switch(sid), kind="core")
            g.add_edge(switch(sid), term(slot), kind="core")
        for (a, b), mult in sorted(self._link_mult.items()):
            g.add_edge(switch(a), switch(b), kind="net", mult=mult)
            g.add_edge(switch(b), switch(a), kind="net", mult=mult)
        return g

    def position(self, node) -> tuple[float, float]:
        if node[0] == "term":
            return self._positions[self._slot_switch[node[1]]]
        return self._positions[node[1]]

    def validate_connectivity(self) -> None:
        """Every slot must reach every other slot."""
        g = self.graph
        reach = nx.descendants(g, term(0))
        for slot in range(1, self.num_slots):
            if term(slot) not in reach:
                raise TopologyError(
                    f"{self.name}: slot {slot} unreachable from slot 0"
                )
