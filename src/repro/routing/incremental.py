"""Incremental delta-routing engine: O(Δ) evaluation of swap candidates.

Design note (companion to the kernel note in ``repro/simulation/network.py``)
-----------------------------------------------------------------------------

The mapping searches (pairwise-swap descent, simulated annealing) evaluate
thousands of candidate assignments that each differ from a *base*
assignment by exactly two slots, yet the straightforward path re-routes
every commodity of every candidate from scratch. SUNMAP's own mapping
loop (Figure 5) makes an **exact** incremental scheme possible because it
is sequential and order-dependent: commodities are routed in decreasing
value order, each one reading and extending one shared load ledger. The
consequences this engine exploits:

* **A swap of slots (s1, s2) only dirties commodities incident to the
  swapped cores.** Every commodity routed *before* the first dirty one
  sees the same endpoint slots and — by induction over the routing
  sequence — the bit-identical ledger state, so its routing decision and
  its ledger additions are provably unchanged. The prefix ``[0, k)`` is
  spliced verbatim from the base: same :class:`RoutedCommodity` objects,
  no routing, no path walks.

* **Ledger checkpoints are sparse snapshots plus exact roll-forward.**
  Everything here runs on the topology's integer edge ids
  (:class:`~repro.topology.base.GraphIndex`). The base route runs
  through :class:`~repro.routing.loads.RecordingEdgeLoads`, which logs
  each commodity's ledger additions as ``(edge ids, value)`` path
  additions and snapshots the flat ledger at positions spaced along the
  commodity sequence: a list copy of the loads, a copy of the
  touched-edge flags and the length of the append-only first-touch
  order. Restoring the state at the first dirty index *k* costs those
  copies of the nearest snapshot at/before *k* plus a replay of the
  logged additions up to *k* — the identical float operations the base
  performed, so the restored prefix ledger is bit-exact, accumulation
  history, touched set and first-touch order included. (A per-edge undo
  journal was measured first and rejected: it taxes every ledger
  addition on the routing hot path, while sparse snapshots amortize to
  nearly nothing.)

* **The suffix re-routes only what the ledger can actually influence.**
  A *clean* suffix commodity (endpoints untouched by the swap) keeps
  its base paths — only its logged ledger additions are replayed,
  skipping Dijkstra entirely — in two provable cases. (1) Its routing
  decision is load-independent
  (:meth:`~repro.routing.base.RoutingFunction.load_independent`: DO
  always, MP/SM when the quadrant has a unique minimum-hop path — PR
  3's hop-dominance proof); for DO routing the entire suffix is
  load-independent and the delta is fully O(Δ). (2) Its search can't
  see the delta: the engine tracks the diverged edge ids — where the
  candidate ledger differs from the base at the same position, together
  with the base's bit-exact value there — and when every edge of the
  commodity's :meth:`~repro.routing.base.RoutingFunction.search_edges`
  (its cached quadrant edge-id set) either never diverged or carries the
  bit-identical load, its Dijkstra inputs equal the base's and so does
  the output. The latter shortcut rests on ``hop_scale`` being an
  application constant rather than a running-total function (see
  :mod:`repro.routing.shortest`). Dirty commodities, and clean ones
  whose quadrant genuinely sees changed loads, go through the real
  :meth:`~repro.routing.base.RoutingFunction.route_commodity` — and a
  re-route that lands back on the base paths adds the identical loads,
  so it does not widen the divergence.

* **Metrics resume from running partial sums.** The base records, per
  commodity boundary, cumulative bandwidth-weighted hop and switch/link
  dynamic-power sums (the load-dependent tail of the power estimate),
  plus each commodity's individual power addends. A candidate resumes
  the sums at the splice point and extends them per suffix commodity by
  re-adding the recorded addends (spliced) or freshly computed ones
  (re-routed) — the identical float additions a full walk performs in
  the identical order — so ``avg_hops`` and fast-mode power are
  bit-equal to from-scratch values. ``max_link_load`` is re-derived
  from the candidate ledger (a max over final per-edge values is
  order-independent, and the ledger itself is exact).

Every candidate routed here produces a new :class:`BaseRouting` record
(prefix segments, snapshots, term lists and :class:`RoutedCommodity`
objects aliased; suffix appended), so an accepted annealing move or a
swap round's winner immediately serves as the next base without
re-routing — the searches stay incremental across rounds.

**What the delta can and cannot save.** The irreducible Δ of a swap is
every commodity whose search inputs actually change, and on small dense
core graphs (every core carrying several flows) with congestion-coupled
MP/SM routing that is a large fraction of the Dijkstra-bearing
commodities — the measured ground truth is recorded with the benchmark
(``benchmarks/bench_mapping.py``, ``BENCH_mapping.json``). The engine
therefore shines where evaluations are load-independent (DO, unique-path
quadrants) or where the application is large and sparse enough that a
swap's ripple stays local — exactly the regime the ROADMAP's
production-scale ambitions live in.

Bit-identity is pinned two ways: the existing selection goldens
(``tests/golden/selection.json``) run through this engine unchanged, and
``tests/routing/test_incremental_properties.py`` asserts float-exact
equality of paths/loads/hops/cost against from-scratch
:func:`~repro.core.evaluate.evaluate_mapping` over random swap sequences
for all four routing functions.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.coregraph import CoreGraph
from repro.core.evaluate import nominal_pitch_mm
from repro.physical.estimate import NetworkEstimator, PowerBreakdown
from repro.physical.switch_power import BITS_PER_MB
from repro.routing.base import (
    RoutedCommodity,
    RoutingFunction,
    RoutingResult,
    ledger_load_bound,
)
from repro.routing.loads import EdgeLoads, RecordingEdgeLoads
from repro.topology.base import Topology

#: Base-routing records kept per engine. Small on purpose: a swap
#: round's base is re-hit for every candidate (so it stays most recently
#: used), and an annealing acceptance promotes the move just evaluated —
#: always the most recently stored record. A swap round's *winner* is
#: usually evicted by later candidates before the round ends; the next
#: round then pays one full ``route_base`` — amortized over the O(n²)
#: candidates it serves, which is why the cache stays this small instead
#: of retaining every candidate's ledger.
DEFAULT_RECORD_CACHE = 8

#: Target number of ledger snapshots per base record. Spacing trades the
#: snapshot list copies (made once per base) against the roll-forward
#: replay a fork pays (at most one spacing's worth of logged additions —
#: plain list arithmetic, no searches).
SNAPSHOT_TARGET = 8


def assignment_key(assignment: dict[int, int]) -> tuple:
    """Canonical hashable identity of an assignment."""
    return tuple(sorted(assignment.items()))


def swap_assignment(
    assignment: dict[int, int], s1: int, s2: int
) -> dict[int, int]:
    """Apply the slot swap (s1, s2) and return a new assignment.

    Preserves the input dict's key order (``dict(assignment)`` plus
    in-place reassignment), matching how the swap search and the
    annealer have always built candidates — key order feeds through to
    ``MappingEvaluation.assignment`` and the floorplanner.
    """
    swapped = dict(assignment)
    c1 = c2 = None
    for core, slot in assignment.items():
        if slot == s1:
            c1 = core
        elif slot == s2:
            c2 = core
    if c1 is not None:
        swapped[c1] = s2
    if c2 is not None:
        swapped[c2] = s1
    return swapped


@dataclass
class BaseRouting:
    """Checkpointed routing of one assignment, ready to serve as a base.

    ``segments[i]`` is commodity *i*'s logged ledger additions (see
    :class:`~repro.routing.loads.RecordingEdgeLoads`); ``snapshots``
    maps sparse commodity positions to :meth:`EdgeLoads.snapshot`
    checkpoints; ``power_terms[i]`` holds commodity *i*'s individual
    (switch, link) dynamic-power addends; ``pair_flags[i]`` caches the
    commodity's (load-independent, search-edges) routing properties for
    its slot pair. The ``cum_*`` arrays hold running metric sums with
    ``cum[i]`` = value after the first *i* commodities — valid only up
    to index ``cums_upto`` (candidate records alias their base's arrays
    and carry just their own final sums; :meth:`cums_at` re-derives any
    later boundary from the term lists, bit-exactly). Prefix entries of
    a candidate's record alias the base's — segments, snapshots, term
    lists and :class:`RoutedCommodity` objects are immutable once
    recorded.
    """

    assignment: dict[int, int]
    routed: list[RoutedCommodity]
    loads: EdgeLoads
    segments: list[list[tuple[tuple, float]]]
    snapshots: dict[int, tuple]
    power_terms: list[tuple[float, float]]
    pair_flags: list[tuple[bool, frozenset | None]]
    cum_hops: list[float]
    cum_switch_dyn: list[float]
    cum_link_dyn: list[float]
    cums_upto: int
    final_hops: float
    final_switch_dyn: float
    final_link_dyn: float
    _edge_index: dict | None = field(default=None, repr=False)

    def result(self) -> RoutingResult:
        return RoutingResult(routed=self.routed, loads=self.loads)

    def cums_at(self, j: int) -> tuple[float, float, float]:
        """(hops, switch, link) running sums at commodity boundary ``j``.

        Reads the shared prefix arrays when valid, otherwise re-folds
        the recorded per-commodity addends from the last valid boundary
        — the identical float sequence the live accumulation ran.
        """
        upto = self.cums_upto
        if j <= upto:
            return (
                self.cum_hops[j],
                self.cum_switch_dyn[j],
                self.cum_link_dyn[j],
            )
        hops = self.cum_hops[upto]
        sw = self.cum_switch_dyn[upto]
        link = self.cum_link_dyn[upto]
        for i in range(upto, j):
            rc = self.routed[i]
            hops += rc.hops * rc.commodity.value
            sw_t, link_t = self.power_terms[i]
            sw += sw_t
            link += link_t
        return hops, sw, link

    def edge_index(self) -> dict:
        """Lazily built ``edge id -> [(segment index, value), ...]`` over
        all segments, in addition order — lets a delta re-derive this
        ledger's bit-exact per-edge value at any commodity boundary
        without replaying unrelated edges."""
        if self._edge_index is None:
            index: dict = {}
            for seg, ops in enumerate(self.segments):
                for eids, value in ops:
                    for e in eids:
                        bucket = index.get(e)
                        if bucket is None:
                            bucket = index[e] = []
                        bucket.append((seg, value))
            self._edge_index = index
        return self._edge_index

    def value_at(self, edge: int, position: int) -> float:
        """This routing's bit-exact load on ``edge`` just *before*
        commodity ``position`` routed (fold of its recorded additions,
        in order — the identical float sequence the live ledger ran)."""
        value = 0.0
        for seg, v in self.edge_index().get(edge, ()):
            if seg >= position:
                break
            value += v
        return value


def _advance(base_vals: dict, seg: list) -> None:
    """Add a base segment's additions to the tracked diverged edges."""
    for eids, v in seg:
        for e in eids:
            if e in base_vals:
                base_vals[e] += v


class IncrementalRoutingEngine:
    """Routes candidate assignments as deltas against base evaluations.

    One engine serves one (core graph, topology, routing function,
    estimator) context — exactly the scope of a
    :class:`~repro.core.memo.MemoizedMappingEvaluator`, which owns it.
    Assignments passed in are treated as immutable (the searches never
    mutate an evaluation's assignment dict).
    """

    def __init__(
        self,
        core_graph: CoreGraph,
        topology: Topology,
        routing: RoutingFunction,
        estimator: NetworkEstimator,
        max_records: int = DEFAULT_RECORD_CACHE,
    ):
        self.core_graph = core_graph
        self.topology = topology
        self.routing = routing
        self.estimator = estimator
        self.commodities = core_graph.commodities()
        self.pitch_mm = nominal_pitch_mm(core_graph)
        # Same left fold as RoutingResult.weighted_average_hops's
        # ``sum(...)`` over the routed list (identical float result).
        total = 0
        for c in self.commodities:
            total = total + c.value
        self.total_bandwidth = total
        #: core -> ascending commodity indices touching it. Dirty sets
        #: and first-dirty indices fall out of two lookups per swap.
        comms_of: dict[int, list[int]] = {}
        for i, c in enumerate(self.commodities):
            comms_of.setdefault(c.src, []).append(i)
            if c.dst != c.src:
                comms_of.setdefault(c.dst, []).append(i)
        self.commodities_of_core = comms_of
        n = len(self.commodities)
        self.snapshot_spacing = max(1, n // SNAPSHOT_TARGET)
        self.max_records = max_records
        self._records: OrderedDict[tuple, BaseRouting] = OrderedDict()
        # Physical tables pre-bound for the inlined per-commodity power
        # terms (the per-call estimator overhead measurably dominated
        # the delta path on small apps).
        entries, nominal = estimator._physical_tables(topology)
        self._switch_energy = {
            sw: entry.energy_pj_per_bit for sw, entry in entries.items()
        }
        edges = topology.graph_index.edges
        #: edge id -> pJ/bit of the switch it leaves (None: a terminal).
        self._source_energy = [
            self._switch_energy.get(u) for u, _ in edges
        ]
        link_energy = estimator.tech.link_energy_pj_per_bit_mm
        #: edge id -> pJ/bit of its nominal-length wire.
        self._wire_energy = [
            link_energy * (nominal[edge] * self.pitch_mm) for edge in edges
        ]
        # Same value route_all computes, so base routes and from-scratch
        # evaluations use the identical hop_scale constants.
        self._load_bound = ledger_load_bound(topology, self.commodities)
        # (src, dst) -> (load_independent, search_edges): shared across
        # records; pair_flags lists index into the same tuples.
        self._pair_info: dict[tuple, tuple] = {}
        # (commodity idx, src, dst) -> (rc, power terms, ledger ops) for
        # load-independent pairs: their routing outcome is provably the
        # same under every ledger, so one real route_commodity call
        # serves every later evaluation that routes the commodity over
        # the same slots (e.g. all of a DO suffix, or the unique-quadrant
        # pairs a swap keeps proposing round after round).
        self._li_cache: dict[tuple, tuple] = {}
        self._last_base: dict[int, int] | None = None
        self._last_record: BaseRouting | None = None

    # ------------------------------------------------------------------
    # record management
    # ------------------------------------------------------------------
    def record_for(self, assignment: dict[int, int]) -> BaseRouting:
        """The checkpointed routing of ``assignment`` (cached, LRU).

        The swap search and the annealer re-pass the *same* base dict
        for every candidate of a round, so an identity fast path skips
        even the key construction.
        """
        if assignment is self._last_base:
            return self._last_record
        key = assignment_key(assignment)
        record = self._records.get(key)
        if record is None:
            record = self.route_base(assignment)
            self._store(key, record)
        else:
            self._records.move_to_end(key)
        self._last_base = assignment
        self._last_record = record
        return record

    def _store(self, key: tuple, record: BaseRouting) -> None:
        records = self._records
        records[key] = record
        records.move_to_end(key)
        while len(records) > self.max_records:
            records.popitem(last=False)

    def _pair(self, src: int, dst: int) -> tuple:
        info = self._pair_info.get((src, dst))
        if info is None:
            info = self._pair_info[(src, dst)] = (
                self.routing.load_independent(self.topology, src, dst),
                self.routing.search_edges(self.topology, src, dst),
            )
        return info

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route_base(self, assignment: dict[int, int]) -> BaseRouting:
        """Route every commodity from scratch, logged + checkpointed.

        Float-identical to ``routing.route_all`` (the recording ledger
        performs the same arithmetic and the same ``load_bound``), plus
        the addition logs, sparse snapshots, pair flags and per-commodity
        metric partial sums the delta path needs.
        """
        topology = self.topology
        routing = self.routing
        spacing = self.snapshot_spacing
        loads = RecordingEdgeLoads(topology.graph_index)
        loads.load_bound = self._load_bound
        snapshots: dict[int, tuple] = {}
        routed: list[RoutedCommodity] = []
        power_terms: list[tuple[float, float]] = []
        pair_flags: list[tuple[bool, frozenset | None]] = []
        cum_hops = [0.0]
        cum_sw = [0.0]
        cum_link = [0.0]
        for i, c in enumerate(self.commodities):
            if i % spacing == 0:
                snapshots[i] = loads.snapshot()
            loads.begin_segment()
            src = assignment[c.src]
            dst = assignment[c.dst]
            paths = routing.route_commodity(topology, src, dst, c.value, loads)
            rc = RoutedCommodity(
                commodity=c, src_slot=src, dst_slot=dst, paths=paths
            )
            routed.append(rc)
            terms = self._power_terms(rc, loads.segments[i])
            power_terms.append(terms)
            pair_flags.append(self._pair(src, dst))
            cum_hops.append(cum_hops[-1] + rc.hops * c.value)
            cum_sw.append(cum_sw[-1] + terms[0])
            cum_link.append(cum_link[-1] + terms[1])
        return BaseRouting(
            assignment=dict(assignment),
            routed=routed,
            loads=loads.plain(),
            segments=loads.segments,
            snapshots=snapshots,
            power_terms=power_terms,
            pair_flags=pair_flags,
            cum_hops=cum_hops,
            cum_switch_dyn=cum_sw,
            cum_link_dyn=cum_link,
            cums_upto=len(self.commodities),
            final_hops=cum_hops[-1],
            final_switch_dyn=cum_sw[-1],
            final_link_dyn=cum_link[-1],
        )

    def dirty_indices(self, base: BaseRouting, s1: int, s2: int) -> set[int]:
        """Commodity indices the swap (s1, s2) can affect directly."""
        comms_of = self.commodities_of_core
        dirty: set[int] = set()
        for core, slot in base.assignment.items():
            if slot == s1 or slot == s2:
                dirty.update(comms_of.get(core, ()))
        return dirty

    def first_dirty_index(self, base: BaseRouting, s1: int, s2: int) -> int:
        """Index of the earliest commodity the swap (s1, s2) can affect.

        Returns ``len(commodities)`` when neither swapped slot hosts a
        core with traffic — e.g. an occupied->free move of a core that
        appears in no commodity — meaning the entire routing splices
        through unchanged.
        """
        return min(
            self.dirty_indices(base, s1, s2), default=len(self.commodities)
        )

    def route_swap(self, base: BaseRouting, s1: int, s2: int) -> BaseRouting:
        """Route the swap (s1, s2) of ``base`` as a delta.

        Splices the clean prefix verbatim, restores the ledger
        checkpoint at the first dirty commodity (nearest snapshot +
        logged roll-forward), walks the suffix re-routing only
        commodities the delta can actually reach (dirty endpoints, or a
        search graph seeing genuinely changed loads), and returns a full
        :class:`BaseRouting` for the swapped assignment so it can serve
        as the next base.
        """
        commodities = self.commodities
        n = len(commodities)
        assignment = swap_assignment(base.assignment, s1, s2)
        dirty_idx = self.dirty_indices(base, s1, s2)
        k = min(dirty_idx, default=n)
        if k >= n:
            # No commodity touches the swapped cores: routing, loads and
            # metrics are all shared with the base outright.
            return BaseRouting(
                assignment=assignment,
                routed=base.routed,
                loads=base.loads,
                segments=base.segments,
                snapshots=base.snapshots,
                power_terms=base.power_terms,
                pair_flags=base.pair_flags,
                cum_hops=base.cum_hops,
                cum_switch_dyn=base.cum_switch_dyn,
                cum_link_dyn=base.cum_link_dyn,
                cums_upto=base.cums_upto,
                final_hops=base.final_hops,
                final_switch_dyn=base.final_switch_dyn,
                final_link_dyn=base.final_link_dyn,
            )

        topology = self.topology
        routing = self.routing
        base_routed = base.routed
        base_segments = base.segments
        base_terms = base.power_terms
        base_flags = base.pair_flags
        li_cache = self._li_cache

        # Restore the ledger at position k: nearest snapshot at/before
        # k, then roll the logged additions forward (bit-exact replay).
        # Candidates take no snapshots of their own — the rare candidate
        # promoted to a base simply replays a longer prefix on its first
        # fork, which is plain ledger arithmetic, not routing.
        p = max(pos for pos in base.snapshots if pos <= k)
        loads = RecordingEdgeLoads.resumed(
            base.loads, base.snapshots[p], base_segments[:p]
        )
        for i in range(p, k):
            loads.replay_segment(base_segments[i])
        snapshots = {
            pos: snap for pos, snap in base.snapshots.items() if pos <= k
        }

        routed = base_routed[:k]
        power_terms = base_terms[:k]
        pair_flags = base_flags[:k]
        cums_upto = min(k, base.cums_upto)
        hops_sum, sw_sum, link_sum = base.cums_at(k)

        # Diverged edges -> the BASE ledger's bit-exact value at the
        # current position. An edge enters when a re-routed commodity's
        # additions actually changed (replays and same-path re-routes
        # add identical values to both ledgers, so they never widen the
        # set); the tracked base value then advances by the base's own
        # segment additions. A clean commodity whose search edges all
        # carry candidate loads equal to these base values sees
        # bit-identical Dijkstra inputs — same quadrant adjacency, same
        # loads, same constant scale — and is spliced without searching.
        base_vals: dict[int, float] = {}
        diverged = base_vals.keys()
        cand_vals = loads.bind(topology.graph_index)

        for i in range(k, n):
            c = commodities[i]
            base_rc = base_routed[i]
            base_seg = base_segments[i]
            cand_seg = None
            if i not in dirty_idx:
                # Clean endpoints: splice if the decision is load-
                # independent, or if every edge its search could read
                # carries the bit-identical base load.
                li, edges = flags = base_flags[i]
                if li or (
                    edges is not None
                    and (
                        diverged.isdisjoint(edges)
                        or (
                            all(
                                e not in base_vals
                                or cand_vals[e] == base_vals[e]
                                for e in edges
                            )
                            if len(edges) < len(base_vals)
                            else all(
                                e not in edges
                                or cand_vals[e] == base_vals[e]
                                for e in diverged
                            )
                        )
                    )
                ):
                    loads.replay_segment(base_seg)
                    routed.append(base_rc)
                    terms = base_terms[i]
                    power_terms.append(terms)
                    pair_flags.append(flags)
                    hops_sum += base_rc.hops * c.value
                    sw_sum += terms[0]
                    link_sum += terms[1]
                    if base_vals:
                        _advance(base_vals, base_seg)
                    continue
                src = base_rc.src_slot
                dst = base_rc.dst_slot
            else:
                src = assignment[c.src]
                dst = assignment[c.dst]
                flags = self._pair(src, dst)
                if flags[0]:
                    cached = li_cache.get((i, src, dst))
                    if cached is not None:
                        # Forced pair already routed once somewhere:
                        # splice its outcome, replay its ledger ops.
                        rc, terms, ops = cached
                        loads.replay_segment(ops)
                        routed.append(rc)
                        power_terms.append(terms)
                        pair_flags.append(flags)
                        hops_sum += rc.hops * c.value
                        sw_sum += terms[0]
                        link_sum += terms[1]
                        self._mark_diverged(base, base_vals, i, base_seg, ops)
                        continue
            # Re-route for real (and remember forced-pair outcomes).
            loads.begin_segment()
            paths = routing.route_commodity(topology, src, dst, c.value, loads)
            if (
                src == base_rc.src_slot
                and dst == base_rc.dst_slot
                and paths == base_rc.paths
            ):
                # Load-dependent search landed on the base paths: reuse
                # the object (and its cached hop count). The additions
                # match the base's too (same paths, same values), so the
                # ledger does NOT diverge here — the search ran, but its
                # outcome keeps downstream skips alive.
                rc = base_rc
                terms = base_terms[i]
            else:
                rc = RoutedCommodity(
                    commodity=c, src_slot=src, dst_slot=dst, paths=paths
                )
                cand_seg = loads.segments[i]
                terms = self._power_terms(rc, cand_seg)
            if flags[0]:
                li_cache[(i, src, dst)] = (rc, terms, loads.segments[i])
            routed.append(rc)
            power_terms.append(terms)
            pair_flags.append(flags)
            hops_sum += rc.hops * c.value
            sw_sum += terms[0]
            link_sum += terms[1]
            if cand_seg is not None:
                self._mark_diverged(base, base_vals, i, base_seg, cand_seg)
            elif base_vals:
                _advance(base_vals, base_seg)

        return BaseRouting(
            assignment=assignment,
            routed=routed,
            loads=loads.plain(),
            segments=loads.segments,
            snapshots=snapshots,
            power_terms=power_terms,
            pair_flags=pair_flags,
            cum_hops=base.cum_hops,
            cum_switch_dyn=base.cum_switch_dyn,
            cum_link_dyn=base.cum_link_dyn,
            cums_upto=cums_upto,
            final_hops=hops_sum,
            final_switch_dyn=sw_sum,
            final_link_dyn=link_sum,
        )

    def swap_record(
        self, base: BaseRouting, s1: int, s2: int, key: tuple | None = None
    ) -> BaseRouting:
        """:meth:`route_swap` + store the result for reuse as a base.

        ``key`` lets callers that already canonicalized the swapped
        assignment (the memo layer) skip a second sort.
        """
        record = self.route_swap(base, s1, s2)
        self._store(
            assignment_key(record.assignment) if key is None else key, record
        )
        return record

    @staticmethod
    def _mark_diverged(
        base: BaseRouting,
        base_vals: dict,
        i: int,
        base_seg: list,
        cand_seg: list,
    ) -> None:
        """Advance tracked base values past commodity ``i`` and register
        a re-route's divergence (its old and new edges)."""
        # Advance already-diverged edges by the base's own additions
        # (the identical float adds the base ledger performed).
        _advance(base_vals, base_seg)
        # Newly diverged edges enter with the base's bit-exact value at
        # position i+1, re-derived from its per-edge addition log.
        for seg in (base_seg, cand_seg):
            for eids, _ in seg:
                for e in eids:
                    if e not in base_vals:
                        base_vals[e] = base.value_at(e, i + 1)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def _power_terms(
        self, rc: RoutedCommodity, seg: list[tuple[tuple, float]]
    ) -> tuple[float, float]:
        """One commodity's (switch, link) dynamic-power contribution.

        The same per-commodity fold — starting at 0.0, identical inner
        expressions and order — that :meth:`~repro.physical.estimate.
        NetworkEstimator.dynamic_power_terms` performs, so splicing a
        cached contribution with one addition is bit-identical to the
        estimator's own accumulation. The contribution is a pure
        function of the commodity's paths.

        Energies are read per edge id: ``seg`` (the commodity's ledger
        additions) lists each returned path's edge ids, first-seen
        order matching ``rc.paths`` (routing functions record every path
        they return, and merge repeats in first-seen order). A path's
        nodes are its edges' source nodes plus its last node, in path
        order, so the two folds add the same terms in the same order as
        the estimator.
        """
        path_eids = list(dict.fromkeys(eids for eids, _ in seg))
        assert len(path_eids) == len(rc.paths)
        rc_switch = 0.0
        rc_link = 0.0
        source_energy = self._source_energy
        wire_energy = self._wire_energy
        for (path, bw), eids in zip(rc.paths, path_eids):
            bits_per_s = bw * BITS_PER_MB
            for e in eids:
                energy = source_energy[e]
                if energy is not None:
                    rc_switch += bits_per_s * energy * 1e-9
                rc_link += bits_per_s * wire_energy[e] * 1e-12 * 1e3
            energy = self._switch_energy.get(path[-1])
            if energy is not None:
                rc_switch += bits_per_s * energy * 1e-9
        return rc_switch, rc_link

    def average_hops(self, record: BaseRouting) -> float:
        """``RoutingResult.weighted_average_hops`` from the partial sums."""
        if self.total_bandwidth <= 0:
            return 0.0
        return record.final_hops / self.total_bandwidth

    def fast_power(self, record: BaseRouting) -> PowerBreakdown:
        """Fast-mode (nominal-length) power from the partial sums.

        Only the load-dependent dynamic tail comes from the record; the
        static clock/leakage terms go through the estimator's own
        (topology-cached) path, exactly as a from-scratch evaluation.
        """
        breakdown = PowerBreakdown()
        breakdown.switch_dynamic = record.final_switch_dyn
        breakdown.link_dynamic = record.final_link_dyn
        breakdown.clock, breakdown.leakage = self.estimator.static_power_terms(
            self.topology,
            record.result(),
            lengths_mm=None,
            pitch_mm=self.pitch_mm,
        )
        return breakdown
