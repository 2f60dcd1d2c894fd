"""Shared memoization of evaluated candidates.

Selection, routing sweeps and the fallback escalation of ``run_sunmap``
revisit the same (core graph, topology, routing, objective) candidates —
e.g. a ``select`` after an ``explore`` on the same application, or the
unchanged topologies when only one library entry was edited. The cache
keys on content fingerprints (:mod:`repro.engine.fingerprint`), so a hit
means "bit-identical work", never "same object".

Storage is pluggable (:mod:`repro.engine.backends`): the default is the
original in-process dict (:class:`~repro.engine.backends.MemoryBackend`,
now with LRU eviction), while the SQLite backend persists results
across processes and CI runs — the substrate of the design
service's warm starts (:mod:`repro.service`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from threading import Lock
from typing import TYPE_CHECKING

from repro.engine.backends import CacheBackend, MemoryBackend
from repro.obs import metrics as obs_metrics

if TYPE_CHECKING:  # annotation only
    from repro.engine.jobs import JobResult

_HITS = obs_metrics.REGISTRY.counter(
    "repro_cache_hits_total", "Cache lookups served from the store", ("backend",)
)
_MISSES = obs_metrics.REGISTRY.counter(
    "repro_cache_misses_total", "Cache lookups that missed", ("backend",)
)
_DEDUP = obs_metrics.REGISTRY.counter(
    "repro_cache_dedup_total",
    "In-batch duplicate jobs served from the first submitter",
    ("backend",),
)
_EVICTIONS = obs_metrics.REGISTRY.counter(
    "repro_cache_evictions_total", "LRU entries evicted by bounded stores", ("backend",)
)


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache (reported by CLI/benchmarks)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Writes the backend dropped (disk full, locked store, read-only
    #: filesystem). The cache stays correct — a lost write only costs a
    #: recompute — but sustained write errors mean the warm store is
    #: not actually warming, so they are surfaced here.
    write_errors: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    def __str__(self) -> str:
        """Compact ``hits/lookups`` summary line."""
        text = (
            f"{self.hits}/{self.lookups} hits "
            f"({self.hit_rate * 100:.0f}%)"
        )
        if self.evictions:
            text += f", {self.evictions} evicted"
        if self.write_errors:
            text += f", {self.write_errors} write errors"
        return text


#: Default cache bound: generous for any realistic sweep (a full
#: topology × routing × objective grid is tens of entries) while keeping
#: a long-lived shared engine from growing without bound — collect=True
#: entries carry the whole evaluated mapping cloud.
DEFAULT_MAX_ENTRIES = 1024


@dataclass
class EvaluationCache:
    """Result store keyed by :meth:`EvaluationJob.cache_key`.

    Thread-safe; shared by every run of the engine that owns it. Workers
    return results to the parent process, which stores them here, so the
    process executor populates the same cache the serial one does.

    Storage is delegated to a :class:`~repro.engine.backends.CacheBackend`.
    When none is given, a :class:`~repro.engine.backends.MemoryBackend`
    bounded to ``max_entries`` is created (``None`` disables the bound,
    ``0`` disables caching entirely); least-recently-used entries are
    evicted beyond the bound and counted in :attr:`CacheStats.evictions`.
    An explicit backend (e.g. a persistent SQLite store)
    manages its own capacity — ``max_entries`` then only retains its
    ``0``-disables-caching meaning.

    The store holds the engine's :class:`~repro.engine.jobs.JobResult`
    records, so its counters (and the ``repro_cache_*`` metrics) count
    engine job lookups only. The mapping search memoizes its
    per-assignment evaluations in its own dict
    (:mod:`repro.core.memo`), outside this cache.

    ``write_only=True`` turns every lookup into a miss while still
    persisting results — the design service's ``cache: "refresh"``
    control, which recomputes and overwrites warm entries in place.
    """

    max_entries: int | None = DEFAULT_MAX_ENTRIES
    stats: CacheStats = field(default_factory=CacheStats)
    backend: CacheBackend | None = None
    write_only: bool = False
    _lock: Lock = field(default_factory=Lock, repr=False)

    def __post_init__(self):
        """Create the default LRU memory backend when none was given."""
        if self.backend is None:
            self.backend = MemoryBackend(max_entries=self.max_entries)

    def get(self, key: tuple) -> JobResult | None:
        """Return the cached result for ``key``, or ``None`` on a miss."""
        with self._lock:
            result = (
                None if self.write_only else self.backend.get(key)
            )
            if result is None:
                self.stats.misses += 1
                _MISSES.inc(backend=self.backend.name)
            else:
                self.stats.hits += 1
                _HITS.inc(backend=self.backend.name)
            return result

    def note_deduped(self) -> None:
        """Reclassify the last lookup of a key as a hit.

        The engine found the same key already queued in the current
        batch (``get`` had counted it as a miss).
        """
        with self._lock:
            self.stats.hits += 1
            self.stats.misses -= 1
            _DEDUP.inc(backend=self.backend.name)

    def put(self, key: tuple, result: JobResult) -> None:
        """Store ``result`` under ``key`` (a no-op when caching is off)."""
        if self.max_entries == 0:
            return  # caching disabled
        with self._lock:
            evicted = self.backend.put(key, result)
            self.stats.evictions += evicted
            if evicted:
                _EVICTIONS.inc(evicted, backend=self.backend.name)
            # Persistent backends count writes they had to drop; mirror
            # the running total so one CacheStats line tells the story.
            self.stats.write_errors = getattr(
                self.backend, "write_errors", 0
            )

    def __len__(self) -> int:
        """Number of entries in the underlying store."""
        return len(self.backend)

    def clear(self) -> None:
        """Drop every stored entry (counters are preserved)."""
        with self._lock:
            self.backend.clear()
