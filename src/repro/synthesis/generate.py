"""Candidate generation, pruning and engine fan-out for synthesis.

``synthesize_topologies`` is the subsystem's front door: sweep the
partition strategies over switch counts, concentration factors and
degree bounds (:class:`SynthesisConfig`), build each candidate fabric
locally, drop structural duplicates and Pareto-dominated shapes, then
fan the survivors out through the
:class:`~repro.engine.ExplorationEngine` as
:class:`~repro.engine.jobs.SynthesisJob` batches — one full mapping
search per candidate, parallel with ``jobs=N``, memoized by content,
bit-identical regardless of worker count.

Structural pruning reuses the existing
:func:`~repro.core.exploration.pareto_front` machinery on two cheap
axes computed without any mapping search:

* a **hop proxy** — bandwidth-weighted hop distance of the partition's
  intended placement (cluster-local traffic is 1 hop, direct-linked
  clusters 2, and so on);
* a **resource proxy** — analytic switch silicon plus channel wiring
  area of the fabric.

A candidate dominated on both axes by another candidate cannot win any
selection objective that trades performance against cost, so it never
reaches the (much more expensive) mapping search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.constraints import Constraints
from repro.core.coregraph import CoreGraph
from repro.core.evaluate import MappingEvaluation, nominal_pitch_mm
from repro.core.exploration import ParetoPoint, pareto_front
from repro.core.mapper import MapperConfig
from repro.engine.engine import ExplorationEngine
from repro.engine.jobs import SynthesisJob, hash_seed
from repro.errors import TopologyError
from repro.physical.estimate import NetworkEstimator
from repro.synthesis.fabric import (
    CandidateSpec,
    candidate_clusters,
    fabric_from_partition,
    intended_assignment,
)
from repro.synthesis.partition import PARTITION_STRATEGIES
from repro.topology.custom import MAX_LINK_MULT, CustomTopology


@dataclass(frozen=True)
class SynthesisConfig:
    """Sweep definition for automatic topology synthesis.

    Attributes:
        strategies: partition strategies to sweep
            (:data:`~repro.synthesis.partition.PARTITION_STRATEGIES`).
        concentrations: cores-per-switch bounds; each value ``c``
            targets ``ceil(n_cores / c)`` switches.
        max_switch_degrees: network-channel bounds per switch.
        max_candidates: cap on candidates submitted for evaluation
            after dedup/pruning (proxy-ranked; the cap is logged in the
            result's ``pruned`` field, never silent).
        min_candidates: floor of candidates kept for evaluation even
            when the Pareto front is smaller — proxies are estimates,
            and a front-only sweep could lose everything to one
            infeasible mapping; near-misses are backfilled in proxy
            rank order.
        link_capacity_mb_s: per-channel capacity used to size fat
            links; ``None`` uses the selection constraints' capacity.
        prune: drop Pareto-dominated shapes before evaluation (disable
            to evaluate the full sweep, e.g. for diagnostics).
        seed: mixed into every candidate job's content-derived seed, so
            a future stochastic partitioner stays reproducible.
        fault_tolerance: surviving-link guarantee for every candidate —
            fabrics embed a protection ring keeping all communicating
            clusters connected under any ``fault_tolerance`` dead
            inter-switch links (Chen et al.; 0 = unprotected). Sweep
            points whose switch count or degree budget cannot honor the
            guarantee are pruned as unbuildable, never silently
            weakened.
    """

    strategies: tuple[str, ...] = ("greedy", "bisect", "bounded")
    concentrations: tuple[int, ...] = (2, 3, 4)
    max_switch_degrees: tuple[int, ...] = (4, 6, 8)
    max_candidates: int = 12
    min_candidates: int = 4
    link_capacity_mb_s: float | None = None
    prune: bool = True
    seed: int = 1
    fault_tolerance: int = 0

    def __post_init__(self):
        unknown = set(self.strategies) - PARTITION_STRATEGIES.keys()
        if unknown or not self.strategies:
            raise TopologyError(
                f"synthesis strategies must be a non-empty choice from "
                f"{sorted(PARTITION_STRATEGIES)}, got {list(self.strategies)}"
            )
        for name, values, low, high in (
            ("concentrations", self.concentrations, 1, math.inf),
            ("max_switch_degrees", self.max_switch_degrees, 1, MAX_LINK_MULT),
            ("max_candidates", [self.max_candidates], 1, math.inf),
            ("fault_tolerance", [self.fault_tolerance], 0, math.inf),
        ):
            if not values or not all(low <= v <= high for v in values):
                raise TopologyError(
                    f"synthesis {name} must lie in [{low}, {high}], "
                    f"got {list(values)}"
                )


@dataclass
class SynthesizedCandidate:
    """One synthesized fabric and its evaluation outcome."""

    spec: CandidateSpec
    topology: CustomTopology
    evaluation: MappingEvaluation | None = None
    error: str | None = None

    @property
    def name(self) -> str:
        return self.spec.label

    @property
    def feasible(self) -> bool:
        return self.evaluation is not None and self.evaluation.feasible

    @property
    def cost(self) -> float:
        if self.evaluation is None:
            return math.inf
        return self.evaluation.cost


@dataclass
class SynthesisResult:
    """Ranked outcome of one synthesis sweep."""

    application: str
    objective_name: str
    routing_code: str
    candidates: list[SynthesizedCandidate] = field(default_factory=list)
    #: Candidate labels dropped by dedup/pruning/capping (with reason).
    pruned: dict[str, str] = field(default_factory=dict)

    @property
    def ranked(self) -> list[SynthesizedCandidate]:
        """Feasible candidates by increasing cost, then the rest."""
        return sorted(
            self.candidates,
            key=lambda c: (not c.feasible, c.cost, c.name),
        )

    @property
    def best(self) -> SynthesizedCandidate | None:
        ranked = self.ranked
        if ranked and ranked[0].feasible:
            return ranked[0]
        return None

    def table(self) -> list[dict]:
        rows = []
        best = self.best
        for cand in self.ranked:
            if cand.evaluation is not None:
                row = cand.evaluation.summary_row()
            else:
                row = {
                    "topology": cand.name,
                    "routing": self.routing_code,
                    "feasible": False,
                }
            row["selected"] = best is not None and cand.name == best.name
            if cand.error is not None:
                row["note"] = cand.error
            rows.append(row)
        return rows

    def to_dict(self) -> dict:
        """JSON-able form (used by reports and bit-identity checks)."""
        best = self.best
        return {
            "application": self.application,
            "objective": self.objective_name,
            "routing": self.routing_code,
            "best": None if best is None else best.name,
            "rows": self.table(),
            "pruned": dict(sorted(self.pruned.items())),
        }

    def format_table(self) -> str:
        """Human-readable ranking (CLI / examples)."""
        header = (
            f"{'candidate':<26}{'ok':<4}{'cost':>10}{'avg hops':>9}"
            f"{'area mm2':>10}{'power mW':>10}  note"
        )
        lines = [header, "-" * len(header)]
        for cand in self.ranked:
            ev = cand.evaluation
            mark = "*" if self.best is cand else ""
            lines.append(
                f"{cand.name + mark:<26}"
                f"{'y' if cand.feasible else 'n':<4}"
                f"{cand.cost if math.isfinite(cand.cost) else math.inf:>10.3f}"
                f"{ev.avg_hops if ev else float('nan'):>9.3f}"
                f"{(ev.area_mm2 if ev and ev.area_mm2 is not None else float('nan')):>10.2f}"
                f"{(ev.power_mw if ev and ev.power_mw is not None else float('nan')):>10.1f}"
                f"  {cand.error or ''}"
            )
        return "\n".join(lines)


def _sweep_specs(
    core_graph: CoreGraph, config: SynthesisConfig, capacity: float
) -> list[CandidateSpec]:
    """The raw spec grid, before building/dedup/pruning."""
    n = core_graph.num_cores
    specs: list[CandidateSpec] = []
    seen: set[tuple] = set()
    for strategy in config.strategies:
        for concentration in config.concentrations:
            if concentration < 1 or concentration > n:
                continue
            num_switches = max(1, math.ceil(n / concentration))
            for degree in config.max_switch_degrees:
                key = (strategy, num_switches, concentration, degree)
                if key in seen:
                    continue
                seen.add(key)
                specs.append(
                    CandidateSpec(
                        strategy=strategy,
                        num_switches=num_switches,
                        max_cluster_size=concentration,
                        max_switch_degree=degree,
                        link_capacity_mb_s=capacity,
                        fault_tolerance=config.fault_tolerance,
                    )
                )
    return specs


def _proxies(
    core_graph: CoreGraph,
    clusters: list[list[int]],
    topology: CustomTopology,
    estimator: NetworkEstimator,
) -> tuple[float, float]:
    """(hop proxy, resource proxy) for structural pruning.

    The hop proxy evaluates the *intended* placement (cores laid out
    cluster by cluster); the mapper can only do better. The resource
    proxy is the analytic switch + channel area at nominal lengths —
    mapping-independent for these direct fabrics.
    """
    slot_of = intended_assignment(clusters)
    total = 0.0
    weighted = 0.0
    for (src, dst), value in core_graph.flows().items():
        total += value
        weighted += value * topology.hop_distance(slot_of[src], slot_of[dst])
    hop_proxy = weighted / total if total > 0 else 0.0
    pitch = nominal_pitch_mm(core_graph)
    resource = estimator.switches_area_mm2(topology) + (
        estimator.channels_area_mm2(topology, pitch_mm=pitch)
    )
    return hop_proxy, resource


def enumerate_candidates(
    core_graph: CoreGraph,
    config: SynthesisConfig | None = None,
    constraints: Constraints | None = None,
    estimator: NetworkEstimator | None = None,
) -> tuple[list[tuple[CandidateSpec, CustomTopology]], dict[str, str]]:
    """Build, dedupe and prune the candidate sweep.

    Returns ``(survivors, pruned)``: the (spec, fabric) pairs worth a
    mapping search, in deterministic proxy-ranked order, and a
    ``{label: reason}`` record of everything dropped — unbuildable
    specs, structural duplicates, Pareto-dominated shapes and the
    ``max_candidates`` cap (coverage is never truncated silently).
    """
    config = config or SynthesisConfig()
    constraints = constraints or Constraints()
    estimator = estimator or NetworkEstimator()
    capacity = (
        config.link_capacity_mb_s
        if config.link_capacity_mb_s is not None
        else constraints.link_capacity_mb_s
    )

    pruned: dict[str, str] = {}
    built: list[tuple[CandidateSpec, CustomTopology, list[list[int]]]] = []
    fingerprints: dict[tuple, str] = {}
    for spec in _sweep_specs(core_graph, config, capacity):
        try:
            # Partition once per spec; the fabric build and the proxy
            # scoring below share the clusters (workers re-derive them
            # via build_candidate, which is the same pure function).
            clusters = candidate_clusters(core_graph, spec)
            topology = fabric_from_partition(
                core_graph,
                clusters,
                name=spec.label,
                max_switch_degree=spec.max_switch_degree,
                link_capacity_mb_s=spec.link_capacity_mb_s,
                fault_tolerance=spec.fault_tolerance,
            )
        except TopologyError as exc:
            pruned[spec.label] = f"unbuildable: {exc}"
            continue
        # Structural key (name excluded): different sweep points often
        # build the same fabric — e.g. a degree bound that never binds.
        fp = (
            tuple(topology.slot_switch),
            tuple(sorted(topology.link_multiplicity().items())),
            tuple(sorted(topology.switch_positions().items())),
        )
        twin = fingerprints.get(fp)
        if twin is not None:
            pruned[spec.label] = f"duplicate of {twin}"
            continue
        fingerprints[fp] = spec.label
        built.append((spec, topology, clusters))

    scored = [
        (spec, topology, *_proxies(core_graph, clusters, topology, estimator))
        for spec, topology, clusters in built
    ]
    if config.prune and len(scored) > 1:
        points = {
            spec.label: ParetoPoint(
                area_mm2=resource,
                power_mw=hops,
                avg_hops=hops,
                assignment=(spec.label,),
            )
            for spec, _, hops, resource in scored
        }
        front = {
            p.assignment[0] for p in pareto_front(list(points.values()))
        }
        kept = []
        dropped = []
        for entry in scored:
            if entry[0].label in front:
                kept.append(entry)
            else:
                dropped.append(entry)
        # Backfill near-misses up to the floor: proxies are estimates,
        # so a front-only sweep must not stake everything on one shape.
        floor = min(config.min_candidates, config.max_candidates)
        if len(kept) < floor and dropped:
            dropped.sort(key=lambda e: (e[2], e[3], e[0].label))
            refill = dropped[: floor - len(kept)]
            kept.extend(refill)
            dropped = dropped[len(refill):]
        for entry in dropped:
            pruned[entry[0].label] = "pareto-dominated (proxy axes)"
        scored = kept

    # Deterministic proxy ranking; cap the number of mapping searches.
    scored.sort(key=lambda e: (e[2], e[3], e[0].label))
    if len(scored) > config.max_candidates:
        for spec, _, _, _ in scored[config.max_candidates:]:
            pruned[spec.label] = (
                f"over max_candidates={config.max_candidates}"
            )
        scored = scored[: config.max_candidates]
    return [(spec, topology) for spec, topology, _, _ in scored], pruned


def synthesis_jobs(
    core_graph: CoreGraph,
    config: SynthesisConfig | None = None,
    routing: str = "MP",
    objective="hops",
    constraints: Constraints | None = None,
    mapper_config: MapperConfig | None = None,
    estimator: NetworkEstimator | None = None,
) -> tuple[list[tuple[CandidateSpec, CustomTopology]], list[SynthesisJob], dict[str, str]]:
    """Candidates plus their engine jobs (shared by selection/synthesis).

    Returns ``(candidates, jobs, pruned)`` with ``jobs[i]`` evaluating
    ``candidates[i]``; every job's tag is the candidate label.
    """
    config = config or SynthesisConfig()
    candidates, pruned = enumerate_candidates(
        core_graph,
        config=config,
        constraints=constraints,
        estimator=estimator,
    )
    jobs = [
        SynthesisJob(
            core_graph=core_graph,
            spec=spec,
            routing=routing,
            objective=objective,
            constraints=constraints,
            config=mapper_config,
            estimator=estimator,
            tag=spec.label,
            # Mix the sweep seed with the spec so every candidate gets
            # a stable, content-derived RNG seed; the current mapper is
            # deterministic, but a stochastic partitioner/search must
            # reproduce per (core graph, config, seed) exactly.
            seed=hash_seed(("synth-seed", config.seed, spec.label)),
        )
        for spec, _ in candidates
    ]
    return candidates, jobs, pruned


def synthesize_topologies(
    core_graph: CoreGraph,
    config: SynthesisConfig | None = None,
    routing: str = "MP",
    objective="hops",
    constraints: Constraints | None = None,
    mapper_config: MapperConfig | None = None,
    estimator: NetworkEstimator | None = None,
    jobs: int = 1,
    engine: ExplorationEngine | None = None,
    cache_backend=None,
    journal=None,
) -> SynthesisResult:
    """Generate and evaluate custom fabrics for an application.

    The full subsystem flow: sweep → build → prune → fan out one
    mapping search per surviving candidate through the exploration
    engine → rank by objective cost. Results are bit-identical for any
    ``jobs`` count (content-derived seeds, submission-order reduction).

    ``cache_backend`` gives the auto-built engine persistent storage
    (a :func:`~repro.engine.backends.make_backend` spec); pass
    ``engine=`` instead to share a cache across calls. ``journal``
    (a :class:`~repro.engine.journal.RunJournal`) records completed
    candidate evaluations and replays them bit-identically on resume.
    """
    objective_name = (
        objective if isinstance(objective, str) else objective.name
    )
    if engine is None:
        engine = ExplorationEngine(
            jobs=jobs, cache_backend=cache_backend, journal=journal
        )
    elif journal is not None and engine.journal is None:
        engine.journal = journal
    candidates, job_list, pruned = synthesis_jobs(
        core_graph,
        config=config,
        routing=routing,
        objective=objective,
        constraints=constraints,
        mapper_config=mapper_config,
        estimator=estimator,
    )
    result = SynthesisResult(
        application=core_graph.name,
        objective_name=objective_name,
        routing_code=routing,
        pruned=pruned,
    )
    for (spec, topology), job_result in zip(
        candidates, engine.run(job_list)
    ):
        if job_result.ok:
            result.candidates.append(
                SynthesizedCandidate(
                    spec=spec,
                    # The evaluated instance (worker-rebuilt fabrics are
                    # bit-identical to the local build, but the
                    # evaluation's topology is the one its assignment,
                    # floorplan and netlist refer to).
                    topology=job_result.evaluation.topology,
                    evaluation=job_result.evaluation,
                )
            )
        else:
            result.candidates.append(
                SynthesizedCandidate(
                    spec=spec, topology=topology, error=job_result.error
                )
            )
    return result
