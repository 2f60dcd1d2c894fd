"""Phase 2: topology selection (Figure 4).

"In the second phase, the various topologies (with mappings produced from
the first phase) are evaluated for several design objectives and the best
topology is chosen."

:func:`select_topology` submits one evaluation job per library topology
to the :class:`~repro.engine.ExplorationEngine` (serial by default,
``jobs=N`` for a process pool), collects the evaluations into a
paper-style comparison table (Figures 6, 7(b), 8(c,d)), and picks the
feasible mapping with the lowest objective cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.constraints import Constraints
from repro.core.coregraph import CoreGraph
from repro.core.evaluate import MappingEvaluation
from repro.core.mapper import MapperConfig
from repro.core.objectives import make_objective
from repro.engine.engine import ExplorationEngine
from repro.physical.estimate import NetworkEstimator
from repro.topology.base import Topology
from repro.topology.library import standard_library


@dataclass
class SelectionResult:
    """Outcome of a library-wide selection run.

    When synthesis is enabled, synthesized fabrics appear in
    ``evaluations``/``errors`` alongside the library entries (their
    names carry the ``syn-`` spec labels) and are listed in
    ``synthesized`` so tables and reports can mark them.
    """

    objective_name: str
    routing_code: str
    evaluations: dict[str, MappingEvaluation] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    #: Names of entries produced by topology synthesis (subset of the
    #: evaluations/errors keys), in candidate order.
    synthesized: list[str] = field(default_factory=list)

    @property
    def feasible(self) -> dict[str, MappingEvaluation]:
        return {
            name: ev for name, ev in self.evaluations.items() if ev.feasible
        }

    @property
    def best_name(self) -> str | None:
        feasible = self.feasible
        if not feasible:
            return None
        return min(feasible, key=lambda n: (feasible[n].cost, n))

    @property
    def best(self) -> MappingEvaluation | None:
        name = self.best_name
        return None if name is None else self.evaluations[name]

    def table(self) -> list[dict]:
        """Rows in library order; infeasible entries carry their reason."""
        synthesized = set(self.synthesized)
        rows = []
        for name, ev in self.evaluations.items():
            row = ev.summary_row()
            row["selected"] = name == self.best_name
            if not ev.feasible:
                row["note"] = "no feasible mapping"
            if synthesized:
                row["synthesized"] = name in synthesized
            rows.append(row)
        for name, reason in self.errors.items():
            row = {
                "topology": name,
                "routing": self.routing_code,
                "feasible": False,
                "selected": False,
                "note": reason,
            }
            if synthesized:
                row["synthesized"] = name in synthesized
            rows.append(row)
        return rows

    def format_table(self) -> str:
        """Human-readable table (CLI / examples)."""
        header = (
            f"{'topology':<22}{'ok':<4}{'avg hops':>9}{'area mm2':>10}"
            f"{'power mW':>10}{'max load':>10}  note"
        )
        lines = [header, "-" * len(header)]
        for row in self.table():
            mark = "*" if row.get("selected") else ""
            lines.append(
                f"{row['topology'] + mark:<22}"
                f"{'y' if row['feasible'] else 'n':<4}"
                f"{_fmt(row.get('avg_hops')):>9}"
                f"{_fmt(row.get('area_mm2')):>10}"
                f"{_fmt(row.get('power_mw')):>10}"
                f"{_fmt(row.get('max_link_load_mb_s')):>10}"
                f"  {row.get('note', '')}"
            )
        return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    return f"{value:.2f}" if isinstance(value, float) else str(value)


def select_topology(
    core_graph: CoreGraph,
    topologies: list[Topology] | None = None,
    routing: str = "MP",
    objective="hops",
    constraints: Constraints | None = None,
    estimator: NetworkEstimator | None = None,
    config: MapperConfig | None = None,
    jobs: int = 1,
    engine: ExplorationEngine | None = None,
    synthesize=None,
    cache_backend=None,
    journal=None,
) -> SelectionResult:
    """Map onto every library topology and choose the best.

    Args:
        topologies: explicit topology instances; defaults to the paper's
            standard five-entry library sized for the application.
        objective: an objective name or an
            :class:`~repro.core.objectives.Objective` instance (e.g. a
            :class:`~repro.core.objectives.WeightedObjective`).
        jobs: parallel worker processes (1 = serial). Results are
            identical to the serial path regardless of ``jobs``.
        engine: explicit engine (overrides ``jobs``); pass the same
            engine across calls to reuse its evaluation cache.
        cache_backend: persistent cache storage spec (e.g.
            ``"sqlite:evals.db"``) for the engine built when ``engine``
            is not given.
        journal: optional :class:`~repro.engine.journal.RunJournal`;
            completed evaluations are appended and (on a resume
            journal) replayed bit-identically, so an interrupted
            selection resumes instead of restarting.
        synthesize: race automatically synthesized custom fabrics
            against the library in the same table: a
            :class:`~repro.synthesis.SynthesisConfig`, or ``True`` for
            the default sweep. Synthesized candidates are evaluated
            under the same routing/objective/constraints in the same
            engine batch, marked in :attr:`SelectionResult.synthesized`
            and eligible to win the selection outright.

    Raises:
        ValueError: when ``topologies`` is an empty list — selection
            over an empty library can never produce a result, so this
            fails loudly instead of reporting "no feasible topology".
    """
    if isinstance(objective, str):
        make_objective(objective)  # validate the name early
        objective_name = objective
    else:
        objective_name = objective.name
    if topologies is None:
        topologies = standard_library(core_graph.num_cores)
    # Materialize: the sequence is walked twice (job build + reduction).
    topologies = list(topologies)
    if not topologies:
        raise ValueError(
            "select_topology received an empty topologies list; pass None "
            "for the standard library or at least one topology instance"
        )
    if engine is None:
        engine = ExplorationEngine(
            jobs=jobs, cache_backend=cache_backend, journal=journal
        )
    elif journal is not None and engine.journal is None:
        engine.journal = journal
    selection = SelectionResult(
        objective_name=objective_name, routing_code=routing
    )
    job_list = engine.selection_jobs(
        core_graph,
        topologies=topologies,
        routing=routing,
        objective=objective,
        constraints=constraints,
        config=config,
        estimator=estimator,
    )

    synth_candidates: list = []
    synth_jobs: list = []
    if synthesize:
        # Imported here: the synthesis package builds on the engine and
        # mapper layers, so a module-level import would be circular.
        from repro.synthesis.generate import SynthesisConfig, synthesis_jobs

        synth_config = (
            synthesize
            if isinstance(synthesize, SynthesisConfig)
            else SynthesisConfig()
        )
        synth_candidates, synth_jobs, _pruned = synthesis_jobs(
            core_graph,
            config=synth_config,
            routing=routing,
            objective=objective,
            constraints=constraints,
            mapper_config=config,
            estimator=estimator,
        )

    results = engine.run(job_list + synth_jobs)
    for topology, result in zip(topologies, results):
        if result.ok:
            selection.evaluations[topology.name] = result.evaluation
        else:
            selection.errors[topology.name] = result.error
    for (spec, _topology), result in zip(
        synth_candidates, results[len(job_list):]
    ):
        selection.synthesized.append(spec.label)
        if result.ok:
            selection.evaluations[spec.label] = result.evaluation
        else:
            selection.errors[spec.label] = result.error
    return selection
