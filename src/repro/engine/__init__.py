"""Parallel design-space exploration engine.

Public surface:

* :class:`ExplorationEngine` — job-list execution with memoization and
  pluggable parallelism (``jobs=1`` serial, ``jobs=N`` process pool);
* :class:`EvaluationJob` / :class:`SimulationJob` / :class:`JobResult` —
  the two design-space job kinds (mapping search, campaign measurement)
  and their shared outcome record;
* :class:`EvaluationCache` — shared content-keyed result cache;
* :class:`MemoryBackend` / :class:`SQLiteBackend` — pluggable cache
  storage (:func:`make_backend` builds one from a spec string); the
  persistent backend carries warm results across processes and CI runs;
* :func:`make_executor`, :class:`SerialExecutor`,
  :class:`ProcessExecutor` — the executor plugins;
* :class:`RetryPolicy` / :class:`JobFailure` / :func:`classify_failure`
  — the crash-tolerance layer (retries with deterministic backoff,
  typed terminal failures);
* :class:`RunJournal` — append-only run journal for resumable sweeps.
"""

from repro.engine.backends import (
    CacheBackend,
    MemoryBackend,
    SQLiteBackend,
    key_fingerprint,
    make_backend,
)
from repro.engine.cache import CacheStats, EvaluationCache
from repro.engine.engine import ExplorationEngine
from repro.engine.executors import (
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)
from repro.engine.jobs import (
    EvaluationJob,
    JobResult,
    SimulationJob,
    execute_job,
    execute_simulation_job,
    run_job,
)
from repro.engine.journal import JournalStats, RunJournal, open_journal
from repro.engine.resilience import (
    DEFAULT_RETRY_POLICY,
    JobFailure,
    RetryPolicy,
    classify_failure,
)

__all__ = [
    "CacheBackend",
    "CacheStats",
    "DEFAULT_RETRY_POLICY",
    "EvaluationCache",
    "EvaluationJob",
    "ExplorationEngine",
    "JobFailure",
    "JobResult",
    "JournalStats",
    "MemoryBackend",
    "ProcessExecutor",
    "RetryPolicy",
    "RunJournal",
    "SQLiteBackend",
    "SerialExecutor",
    "SimulationJob",
    "classify_failure",
    "execute_job",
    "execute_simulation_job",
    "key_fingerprint",
    "make_backend",
    "make_executor",
    "open_journal",
    "run_job",
]
