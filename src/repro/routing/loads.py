"""Per-link traffic accounting.

The mapping algorithm (Figure 5) routes commodities one at a time and
"increases edge weights in Path by vl(dk)"; :class:`EdgeLoads` is that
running ledger. Loads are in MB/s per directed graph edge.

The ledger is a flat float list indexed by the edge ids of a
:class:`~repro.topology.base.GraphIndex`: the routing searches read it
by edge id and add whole paths as edge-id sequences (:meth:`add_ids`),
with no tuple keys on the hot path. The tuple-keyed API (:meth:`get`,
:meth:`add`, :meth:`add_path`, :meth:`items`, :meth:`max_load`) maps
through the index. :meth:`items` keeps first-touch order, which the
bandwidth objective's RMS sum depends on. A standalone ``EdgeLoads()``
accepts any hashable nodes: it grows a private index as edges appear,
and :meth:`bind` re-keys it onto a graph's index when a routing
function first uses it.
"""

from __future__ import annotations

from repro.topology.base import GraphIndex


class EdgeLoads:
    """Accumulated bandwidth per directed edge of a topology graph."""

    def __init__(self, index: GraphIndex | None = None):
        #: The graph index whose edge ids this ledger is keyed on
        #: (``None``: a private index grown as edges are added).
        self._index = index
        self._edges: list = [] if index is None else index.edges
        self._ids: dict = {} if index is None else index.edge_ids
        # Whether ``_edges``/``_ids`` are this ledger's own to extend.
        self._owns_ids = index is None
        n = len(self._edges)
        self._vals: list[float] = [0.0] * n
        self._seen = bytearray(n)
        #: Edge ids in first-touch order.
        self._order: list[int] = []
        self._total = 0.0
        #: Optional precomputed upper bound on any single edge load over
        #: the whole routing run (set by ``route_all`` from the commodity
        #: list). When present, the hop-dominant Dijkstra scale is
        #: derived from it instead of the running ledger total, making
        #: the scale identical for every evaluation of the same
        #: application — the property the incremental engine's
        #: skip-unchanged-search proof rests on. ``None`` keeps the
        #: legacy running-total formula.
        self.load_bound: float | None = None

    # ------------------------------------------------------------------
    # edge ids
    # ------------------------------------------------------------------
    def bind(self, index: GraphIndex) -> list[float]:
        """Key this ledger on ``index``'s edge ids; returns the flat load
        list those ids read (live: later additions show in it).

        A no-op for ledgers built on ``index``; any other ledger is
        re-keyed in place, keeping its loads, total and first-touch
        order.
        """
        if self._index is not index:
            items = self.items()
            load_bound, total = self.load_bound, self._total
            EdgeLoads.__init__(self, index)
            self.load_bound, self._total = load_bound, total
            for edge, load in items:
                e = self._id(edge)
                self._vals[e] = load
                self._seen[e] = 1
                self._order.append(e)
        return self._vals

    def _id(self, edge: tuple) -> int:
        """The id of ``edge``, extending the index if it is new."""
        e = self._ids.get(edge)
        if e is None:
            if not self._owns_ids:
                self._edges = list(self._edges)
                self._ids = dict(self._ids)
                self._owns_ids = True
            e = self._ids[edge] = len(self._edges)
            self._edges.append(edge)
            self._vals.append(0.0)
            self._seen.append(0)
        return e

    def values_on(self, index: GraphIndex) -> list[float]:
        """Loads as a flat list indexed by ``index``'s edge ids.

        The ledger's own list when it is keyed on ``index``; otherwise a
        fresh list (e.g. for a ledger unpickled without its index).
        """
        if self._index is index:
            return self._vals
        vals = [0.0] * len(index.edges)
        ids = index.edge_ids
        for edge, load in self.items():
            e = ids.get(edge)
            if e is not None:
                vals[e] = load
        return vals

    # ------------------------------------------------------------------
    # additions
    # ------------------------------------------------------------------
    def add_ids(self, eids, value: float) -> None:
        """Add ``value`` MB/s to every edge id in ``eids`` (a path)."""
        vals = self._vals
        seen = self._seen
        total = self._total
        for e in eids:
            if not seen[e]:
                seen[e] = 1
                self._order.append(e)
            vals[e] += value
            total += value
        self._total = total

    def add(self, u, v, value: float) -> None:
        """Add ``value`` MB/s of traffic to edge ``u -> v``."""
        self.add_ids((self._id((u, v)),), value)

    def add_path(self, path: list, value: float) -> None:
        """Add ``value`` MB/s along every edge of a node path."""
        self.add_ids([self._id(edge) for edge in zip(path, path[1:])], value)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, u, v) -> float:
        e = self._ids.get((u, v))
        return 0.0 if e is None else self._vals[e]

    def items(self) -> list[tuple[tuple, float]]:
        """``[(edge, load)]`` of every touched edge, in first-touch order."""
        edges = self._edges
        vals = self._vals
        return [(edges[e], vals[e]) for e in self._order]

    @property
    def total(self) -> float:
        """Sum of load over all edges (an upper bound on any single load)."""
        return self._total

    def max_load(self, edges=None, divisors: dict | None = None) -> float:
        """Largest per-edge load, optionally restricted to ``edges``.

        ``divisors`` — ``{edge: channel count}`` from
        :meth:`~repro.topology.base.Topology.channel_multiplicities` —
        divides each listed edge's load by its parallel-channel count,
        so the result is the worst *per-channel* load of a fabric with
        fat links. ``None`` (every channel single) keeps the fast path.
        """
        vals = self._vals
        if edges is None:
            return max((vals[e] for e in self._order), default=0.0)
        ids_get = self._ids.get
        divisors_get = divisors.get if divisors else None
        best = 0.0
        for edge in edges:
            edge = tuple(edge)
            e = ids_get(edge)
            load = 0.0 if e is None else vals[e]
            if divisors_get is not None:
                load = load / divisors_get(edge, 1)
            if load > best:
                best = load
        return best

    # ------------------------------------------------------------------
    # copies
    # ------------------------------------------------------------------
    def copy(self) -> "EdgeLoads":
        clone = EdgeLoads.__new__(EdgeLoads)
        clone.__dict__.update(self.__dict__)
        clone._owns_ids = self._owns_ids = False
        clone._vals = list(self._vals)
        clone._seen = bytearray(self._seen)
        clone._order = list(self._order)
        return clone

    def snapshot(self) -> tuple[list, bytearray, int, float]:
        """Checkpoint of the ledger: ``(loads copy, touched flags copy,
        first-touch count, total)``.

        Two flat copies; the first-touch order is append-only, so a
        count restores it from the final ledger's order list. The
        incremental engine stores these at sparse positions along the
        commodity sequence and rolls forward from the nearest one
        instead of journaling every addition (per-edge undo journals
        measurably taxed the routing hot path).
        """
        return list(self._vals), bytearray(self._seen), len(self._order), self._total

    def __len__(self) -> int:
        return len(self._order)

    def __repr__(self) -> str:
        return f"EdgeLoads(edges={len(self)}, max={self.max_load():.1f})"

    # ------------------------------------------------------------------
    # pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """The tuple-keyed state, in first-touch order: cached results
        carry no graph index, and entries stored before the ledger was
        keyed on edge ids load unchanged."""
        return {
            "_loads": dict(self.items()),
            "_total": self._total,
            "load_bound": self.load_bound,
        }

    def __setstate__(self, state: dict) -> None:
        loads = state["_loads"]
        self.__init__()
        self._edges.extend(loads)
        self._ids.update((edge, e) for e, edge in enumerate(self._edges))
        self._vals = list(loads.values())
        self._seen = bytearray(b"\x01") * len(loads)
        self._order = list(range(len(loads)))
        self._total = state["_total"]
        self.load_bound = state.get("load_bound")


class RecordingEdgeLoads(EdgeLoads):
    """An :class:`EdgeLoads` that logs every addition per segment.

    The incremental mapping engine (:mod:`repro.routing.incremental`)
    routes through this ledger, marking one *segment* per commodity
    (:meth:`begin_segment`). A segment is the flat ``(edge ids, value)``
    sequence of path additions the routing function performed, in
    application order.

    A logged segment is an exact redo: :meth:`replay_segment` re-applies
    the additions against any ledger state with the identical float
    operations (same values added to the same edges in the same order),
    which is how the engine both restores checkpoints (roll forward from
    a sparse :meth:`~EdgeLoads.snapshot`) and splices commodities whose
    routing decision is provably unchanged, without re-searching.
    """

    def __init__(self, index: GraphIndex | None = None):
        super().__init__(index)
        #: Per-commodity addition logs, in routing order.
        self.segments: list[list[tuple[tuple, float]]] = []
        self._ops: list[tuple[tuple, float]] | None = None

    @classmethod
    def resumed(
        cls,
        ledger: EdgeLoads,
        snapshot: tuple[list, bytearray, int, float],
        segments: list[list[tuple[tuple, float]]],
    ) -> "RecordingEdgeLoads":
        """A recording ledger starting from a checkpoint of ``ledger``.

        ``snapshot`` is an :meth:`EdgeLoads.snapshot` taken while
        ``ledger`` was routed (copied here, the stored checkpoint stays
        pristine); its first-touch count restores the order prefix from
        ``ledger``'s final order. ``segments`` are the logs of the
        commodities *before* the checkpoint — aliased, not copied, since
        segments are immutable once recorded.
        """
        vals, seen, touched, total = snapshot
        fork = cls(ledger._index)
        fork._vals = list(vals)
        fork._seen = bytearray(seen)
        fork._order = ledger._order[:touched]
        fork._total = total
        fork.segments = list(segments)
        fork.load_bound = ledger.load_bound
        return fork

    def begin_segment(self) -> None:
        """Open a new log segment (one per routed commodity)."""
        self._ops = []
        self.segments.append(self._ops)

    def add_ids(self, eids, value: float) -> None:
        eids = tuple(eids)
        self._ops.append((eids, value))
        super().add_ids(eids, value)

    def replay_segment(self, ops: list[tuple[tuple, float]]) -> None:
        """Re-apply a recorded segment's additions as a new segment.

        Float-identical to re-running the routing calls that produced
        ``ops`` whenever the routing decision is provably unchanged: the
        same edges receive the same values in the same order, only the
        starting ledger differs. The segment list is aliased into this
        recording (segments are immutable once recorded).
        """
        self.segments.append(ops)
        self._ops = None  # no live segment: additions must replay whole
        vals = self._vals
        seen = self._seen
        order = self._order
        total = self._total
        for eids, value in ops:
            for e in eids:
                if not seen[e]:
                    seen[e] = 1
                    order.append(e)
                vals[e] += value
                total += value
        self._total = total

    def plain(self) -> EdgeLoads:
        """A log-free :class:`EdgeLoads` view sharing this ledger.

        Stored on evaluations so memo-cached results do not retain
        segment logs; the underlying lists are shared, not copied
        (ledgers are read-only once routing completes).
        """
        view = EdgeLoads.__new__(EdgeLoads)
        view.__dict__.update(self.__dict__)
        del view.__dict__["segments"]
        del view.__dict__["_ops"]
        view._owns_ids = self._owns_ids = False
        return view
