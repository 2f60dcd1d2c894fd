"""The parallel design-space exploration engine.

SUNMAP's selection flow is embarrassingly parallel: every candidate
(topology × routing function × objective) is an independent mapping
search, and every simulation-campaign point (topology × pattern × rate ×
seed) is an independent measurement. :class:`ExplorationEngine` makes
that explicit — callers build a job list (mixing
:class:`~repro.engine.jobs.EvaluationJob` and
:class:`~repro.engine.jobs.SimulationJob` freely), the engine memoizes
repeated work through a shared
:class:`~repro.engine.cache.EvaluationCache`, executes the remainder
through a pluggable executor (serial or process pool), and reduces
results back into submission order so the outcome is independent of
completion order and worker count.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from itertools import product

from repro.core.constraints import Constraints
from repro.core.coregraph import CoreGraph
from repro.core.mapper import MapperConfig
from repro.engine.backends import key_fingerprint, make_backend
from repro.engine.cache import EvaluationCache
from repro.engine.executors import Executor, make_executor
from repro.engine.jobs import (
    BatchSimulationJob,
    EvaluationJob,
    JobResult,
    SimulationJob,
    job_kind,
    run_job,
)
from repro.engine.journal import RunJournal
from repro.engine.resilience import JobFailure, RetryPolicy
from repro.errors import ReproError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.topology.base import Topology
from repro.topology.library import standard_library

_JOBS = obs_metrics.REGISTRY.counter(
    "repro_engine_jobs_total",
    "Jobs the engine resolved, by kind and how they were served",
    ("kind", "status"),
)
_FAILURES = obs_metrics.REGISTRY.counter(
    "repro_engine_failures_total",
    "Terminal job failures surfaced by the engine",
    ("failure",),
)


class ExplorationEngine:
    """Executes evaluation jobs with memoization and pluggable parallelism.

    Args:
        jobs: worker count — ``1`` runs serially in-process, ``N > 1``
            uses a process pool of ``N`` workers, ``0`` sizes the pool to
            the machine.
        executor: explicit executor instance (overrides ``jobs``).
        cache: shared evaluation cache; a private one is created when not
            given. Pass one engine (or one cache) around to reuse results
            across selection runs, sweeps and fallback escalations.
        cache_backend: storage behind the private cache when ``cache`` is
            not given — a :class:`~repro.engine.backends.CacheBackend`
            instance or a :func:`~repro.engine.backends.make_backend`
            spec string (``"sqlite:results.db"``). A persistent
            backend makes warm results survive the process: a second
            run of the same sweep performs zero evaluations.
        journal: optional :class:`~repro.engine.journal.RunJournal`.
            Completed results are appended to it and replayed (by
            fingerprint, bit-identically) on later runs — a killed
            sweep resumes where it died. Failures are never journaled.
        retry_policy: :class:`~repro.engine.resilience.RetryPolicy` for
            the executor built from ``jobs`` (ignored when an explicit
            ``executor`` is passed — configure that executor directly).
    """

    def __init__(
        self,
        jobs: int = 1,
        executor: Executor | None = None,
        cache: EvaluationCache | None = None,
        cache_backend=None,
        journal: RunJournal | None = None,
        retry_policy: RetryPolicy | None = None,
    ):
        """Build the engine (see the class docstring for the knobs)."""
        self.executor = executor or make_executor(jobs, policy=retry_policy)
        if cache is None:
            # Not `cache or ...`: an empty cache is falsy (it has __len__).
            cache = (
                EvaluationCache()
                if cache_backend is None
                else EvaluationCache(backend=make_backend(cache_backend))
            )
        self.cache = cache
        self.journal = journal
        #: Cumulative failure counts by kind (``crash``/``timeout``/
        #: ``error``) across every ``run`` on this engine.
        self.failure_stats: Counter = Counter()
        #: Failures surfaced by the most recent ``run`` call (empty when
        #: it completed cleanly or raised).
        self.last_failures: list[JobFailure] = []

    # ------------------------------------------------------------------
    # core execution
    # ------------------------------------------------------------------
    def run(
        self,
        jobs: Sequence[EvaluationJob | SimulationJob],
        on_failure: str = "raise",
    ) -> list[JobResult]:
        """Execute a batch; results come back in submission order.

        Batches may mix job kinds (mapping searches and simulation
        points share one queue, cache and executor). Cache hits are
        served without executing; duplicate keys within the batch are
        executed once and fanned out to every submitter. A
        :class:`~repro.engine.jobs.BatchSimulationJob` executes as one
        unit but is content-keyed *per point*: cached/journaled points
        are served individually, only the missing subset runs, and
        completed points land in cache and journal one by one — so a
        killed batch campaign resumes point-exactly, like the exact
        lane. Results are
        bit-identical across executors: the reduction is by submission
        index, and per-job seeds are content-derived.

        ``on_failure`` decides what a terminal
        :class:`~repro.engine.resilience.JobFailure` (a job the
        resilience layer could not complete — retries exhausted or a
        fatal error) does: ``"raise"`` (default) re-raises the original
        exception, matching pre-resilience behaviour; ``"skip"``
        returns the failure in the result list (``ok`` is False) so one
        poisoned point degrades a sweep instead of killing it.
        Failures are never cached or journaled. Per-run stats land in
        :attr:`last_failures` / :attr:`failure_stats`.
        """
        with obs_trace.span(
            "engine.run", jobs=len(jobs), executor=self.executor.name
        ) as sp:
            return self._run(jobs, on_failure, sp)

    def _run(
        self,
        jobs: Sequence[EvaluationJob | SimulationJob],
        on_failure: str,
        sp,
    ) -> list[JobResult]:
        """Body of :meth:`run`, wrapped in the ``engine.run`` span."""
        if on_failure not in ("raise", "skip"):
            raise ReproError(
                f"on_failure must be 'raise' or 'skip', got {on_failure!r}"
            )
        results: list[JobResult | None] = [None] * len(jobs)
        pending: list[tuple[int, EvaluationJob | SimulationJob]] = []
        keys: dict[int, tuple] = {}
        first_index_for_key: dict[tuple, int] = {}
        duplicates: dict[int, list[int]] = {}
        failures: list[JobFailure] = []
        # Grouped jobs (batched simulation): the group executes as one
        # unit but caches/journals per point, so a group shrinks to its
        # cache-missing points before execution and the stored entries
        # are interchangeable with a later run's differently-composed
        # groups. index -> (job, per-point results, missing idx, keys).
        groups: dict[
            int,
            tuple[
                BatchSimulationJob,
                list[JobResult | None],
                list[int],
                list[tuple],
            ],
        ] = {}

        for index, job in enumerate(jobs):
            if isinstance(job, BatchSimulationJob):
                point_keys = job.point_keys()
                point_results: list[JobResult | None] = []
                missing: list[int] = []
                for pi, pkey in enumerate(point_keys):
                    hit = self.cache.get(pkey)
                    if hit is None and self.journal is not None:
                        hit = self.journal.get(key_fingerprint(pkey))
                        if hit is not None:
                            self.cache.put(pkey, hit)
                    if hit is None:
                        point_results.append(None)
                        missing.append(pi)
                    else:
                        point_results.append(
                            hit.retagged(job.points[pi].tag, cached=True)
                        )
                cached_points = len(point_keys) - len(missing)
                if cached_points:
                    _JOBS.inc(cached_points, kind="batch_sim", status="cached")
                if not missing:
                    results[index] = JobResult(
                        tag=job.tag,
                        value=tuple(point_results),
                        cached=True,
                    )
                    continue
                groups[index] = (job, point_results, missing, point_keys)
                pending.append((index, job.subset(missing)))
                continue
            key = job.cache_key()
            hit = self.cache.get(key)
            if hit is None and self.journal is not None:
                hit = self.journal.get(key_fingerprint(key))
                if hit is not None:
                    # Promote the replayed result so in-run cache hits
                    # and the persistent backend see it too.
                    self.cache.put(key, hit)
            if hit is not None:
                _JOBS.inc(kind=job_kind(job), status="cached")
                results[index] = hit.retagged(job.tag, cached=True)
                continue
            if key in first_index_for_key:
                # Same work already queued in this batch: piggyback.
                owner = first_index_for_key[key]
                duplicates.setdefault(owner, []).append(index)
                self.cache.note_deduped()
                _JOBS.inc(kind=job_kind(job), status="deduped")
                continue
            first_index_for_key[key] = index
            keys[index] = key
            pending.append((index, job.pinned(key)))

        for index, result in self.executor.run(run_job, pending):
            if isinstance(result, JobFailure):
                # Terminal infrastructure failure: never cached, never
                # journaled — a flaky worker must not poison warm state.
                self.failure_stats[result.failure_kind] += 1
                _FAILURES.inc(failure=result.failure_kind)
                _JOBS.inc(kind=job_kind(jobs[index]), status="failed")
                if on_failure == "raise":
                    self.last_failures = []
                    raise result.to_exception()
                failures.append(result)
                results[index] = result.retagged(
                    jobs[index].tag, cached=False
                )
                for dup_index in duplicates.get(index, ()):
                    results[dup_index] = result.retagged(
                        jobs[dup_index].tag, cached=False
                    )
                continue
            if index in groups:
                job, point_results, missing, point_keys = groups[index]
                for pi, point_result in zip(missing, result.value):
                    self.cache.put(point_keys[pi], point_result)
                    if self.journal is not None:
                        self.journal.record(
                            key_fingerprint(point_keys[pi]), point_result
                        )
                    point_results[pi] = point_result.retagged(
                        job.points[pi].tag, cached=False
                    )
                results[index] = JobResult(
                    tag=job.tag, value=tuple(point_results)
                )
                _JOBS.inc(len(missing), kind="batch_sim", status="computed")
                continue
            # The cache keeps the pristine result; every caller-facing
            # copy goes through retagged() so its collected list is
            # detached from the cached entry.
            self.cache.put(keys[index], result)
            _JOBS.inc(kind=job_kind(jobs[index]), status="computed")
            if self.journal is not None:
                self.journal.record(key_fingerprint(keys[index]), result)
            results[index] = result.retagged(jobs[index].tag, cached=False)
            for dup_index in duplicates.get(index, ()):
                results[dup_index] = result.retagged(
                    jobs[dup_index].tag, cached=True
                )
        self.last_failures = failures
        sp.set("failures", len(failures))
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def run_one(self, job: EvaluationJob | SimulationJob) -> JobResult:
        """Convenience wrapper for a single candidate."""
        return self.run([job])[0]

    # ------------------------------------------------------------------
    # job-list builders
    # ------------------------------------------------------------------
    def selection_jobs(
        self,
        core_graph: CoreGraph,
        topologies: Sequence[Topology] | None = None,
        routing: str = "MP",
        objective="hops",
        constraints: Constraints | None = None,
        config: MapperConfig | None = None,
        estimator=None,
    ) -> list[EvaluationJob]:
        """One job per library topology (the phase-1/2 selection flow)."""
        if topologies is None:
            topologies = standard_library(core_graph.num_cores)
        return [
            EvaluationJob(
                core_graph=core_graph,
                topology=topology,
                routing=routing,
                objective=objective,
                constraints=constraints,
                config=config,
                estimator=estimator,
                tag=topology.name,
            )
            for topology in topologies
        ]

    def sweep(
        self,
        core_graph: CoreGraph,
        topologies: Sequence[Topology] | None = None,
        routings: Sequence[str] = ("MP",),
        objectives: Sequence = ("hops",),
        constraints: Constraints | None = None,
        config: MapperConfig | None = None,
        estimator=None,
    ) -> dict[tuple[str, str, str], JobResult]:
        """Full grid sweep: one job per topology × routing × objective.

        Returns ``{(topology_name, routing_code, objective_name): result}``
        with captured infeasible/unsupported outcomes inline (check
        :attr:`JobResult.ok`).
        """
        if topologies is None:
            topologies = standard_library(core_graph.num_cores)
        grid = list(product(topologies, routings, objectives))
        jobs = [
            EvaluationJob(
                core_graph=core_graph,
                topology=topology,
                routing=routing,
                objective=objective,
                constraints=constraints,
                config=config,
                estimator=estimator,
                tag=f"{topology.name}/{routing}/{_objective_name(objective)}",
            )
            for topology, routing, objective in grid
        ]
        results = self.run(jobs)
        return {
            (topology.name, routing, _objective_name(objective)): result
            for (topology, routing, objective), result in zip(grid, results)
        }


def _objective_name(objective) -> str:
    return objective if isinstance(objective, str) else objective.name
