"""Persistent cache backends: durability, corruption, concurrency.

The durability contract under test (see ``repro.engine.backends``):

* a corrupted, truncated or unreadable entry is logged, dropped and
  **recomputed** — never served back and never a crash;
* a schema-version mismatch discards the store (cold start);
* concurrent writers from several processes never corrupt the store;
* warm results are bit-identical to freshly computed ones.
"""

from __future__ import annotations

import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.mapper import MapperConfig
from repro.core.selector import select_topology
from repro.engine import (
    EvaluationCache,
    ExplorationEngine,
    MemoryBackend,
    SQLiteBackend,
    make_backend,
)
from repro.engine.backends import key_fingerprint
from repro.errors import ReproError

FAST = MapperConfig(converge=False, swap_rounds=1)

KEY_A = ("eval", "fp-a", "MP", "hops")
KEY_B = ("eval", "fp-b", "MP", "hops")
KEY_C = ("eval", "fp-c", "MP", "hops")


class TestMemoryBackend:
    def test_roundtrip_and_len(self):
        backend = MemoryBackend()
        assert backend.get(KEY_A) is None
        assert backend.put(KEY_A, {"cost": 1}) == 0
        assert backend.get(KEY_A) == {"cost": 1}
        assert len(backend) == 1
        backend.clear()
        assert len(backend) == 0

    def test_lru_eviction_prefers_recently_used(self):
        backend = MemoryBackend(max_entries=2)
        backend.put(KEY_A, "a")
        backend.put(KEY_B, "b")
        backend.get(KEY_A)  # touch A: B is now least recently used
        evicted = backend.put(KEY_C, "c")
        assert evicted == 1
        assert backend.evictions == 1
        assert backend.get(KEY_B) is None  # B evicted, not A
        assert backend.get(KEY_A) == "a"
        assert backend.get(KEY_C) == "c"

    def test_overwrite_does_not_evict(self):
        backend = MemoryBackend(max_entries=2)
        backend.put(KEY_A, "a")
        backend.put(KEY_B, "b")
        assert backend.put(KEY_A, "a2") == 0
        assert backend.evictions == 0
        assert backend.get(KEY_A) == "a2"

    def test_zero_bound_stores_nothing(self):
        backend = MemoryBackend(max_entries=0)
        assert backend.put(KEY_A, "a") == 0
        assert len(backend) == 0


class TestSQLiteBackend:
    def test_roundtrip_across_instances(self, tmp_path):
        path = tmp_path / "evals.db"
        store = SQLiteBackend(path)
        store.put(KEY_A, {"cost": 2.5})
        store.close()
        reopened = SQLiteBackend(path)
        assert reopened.get(KEY_A) == {"cost": 2.5}
        assert len(reopened) == 1
        reopened.close()

    def test_corrupt_entry_is_dropped_and_recomputed(self, tmp_path):
        path = tmp_path / "evals.db"
        store = SQLiteBackend(path)
        store.put(KEY_A, {"cost": 1.0})
        store.close()
        # Truncate the pickled payload behind the backend's back.
        conn = sqlite3.connect(path)
        (blob,) = conn.execute("SELECT payload FROM entries").fetchone()
        conn.execute(
            "UPDATE entries SET payload = ?", (blob[: len(blob) // 2],)
        )
        conn.commit()
        conn.close()
        store = SQLiteBackend(path)
        assert store.get(KEY_A) is None  # never served back
        assert store.corrupt_entries == 1
        assert len(store) == 0  # entry deleted: next put recomputes it
        store.put(KEY_A, {"cost": 1.0})
        assert store.get(KEY_A) == {"cost": 1.0}
        store.close()

    def test_garbage_entry_is_dropped(self, tmp_path):
        path = tmp_path / "evals.db"
        store = SQLiteBackend(path)
        conn = sqlite3.connect(path)
        conn.execute(
            "INSERT INTO entries VALUES (?, ?)",
            (key_fingerprint(KEY_A), b"not a pickle"),
        )
        conn.commit()
        conn.close()
        assert store.get(KEY_A) is None
        assert store.corrupt_entries == 1
        store.close()

    def test_unreadable_file_is_rotated_cold(self, tmp_path):
        path = tmp_path / "evals.db"
        path.write_bytes(b"this is not a sqlite database at all")
        store = SQLiteBackend(path)  # must not raise
        assert len(store) == 0
        store.put(KEY_A, "a")
        assert store.get(KEY_A) == "a"
        assert (tmp_path / "evals.db.corrupt").exists()
        store.close()

    def test_schema_mismatch_discards_entries(self, tmp_path):
        path = tmp_path / "evals.db"
        store = SQLiteBackend(path)
        store.put(KEY_A, "a")
        store.close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET v = '999' WHERE k = 'schema_version'"
        )
        conn.commit()
        conn.close()
        reopened = SQLiteBackend(path)  # cold start, not a guess
        assert reopened.get(KEY_A) is None
        assert len(reopened) == 0
        reopened.close()

    def test_concurrent_writers_from_processes(self, tmp_path):
        """Two processes hammering the same store never corrupt it."""
        path = tmp_path / "evals.db"
        script = (
            "import sys\n"
            "from repro.engine import SQLiteBackend\n"
            "store = SQLiteBackend(sys.argv[1])\n"
            "tag = sys.argv[2]\n"
            "for i in range(40):\n"
            "    store.put(('shared', i % 10), {'tag': tag, 'i': i})\n"
            "    store.put((tag, i), i)\n"
            "store.close()\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(path), tag],
                env=_child_env(),
            )
            for tag in ("w1", "w2")
        ]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        store = SQLiteBackend(path)
        # 10 shared keys + 40 per writer, every one readable.
        assert len(store) == 90
        for i in range(10):
            value = store.get(("shared", i))
            assert value["tag"] in ("w1", "w2")  # last writer won
        for tag in ("w1", "w2"):
            for i in range(40):
                assert store.get((tag, i)) == i
        store.close()


class TestMakeBackend:
    def test_spec_forms(self, tmp_path):
        assert isinstance(make_backend(None), MemoryBackend)
        assert isinstance(make_backend("memory"), MemoryBackend)
        sqlite_store = make_backend(f"sqlite:{tmp_path}/a.db")
        assert isinstance(sqlite_store, SQLiteBackend)
        sqlite_store.close()
        suffixed = make_backend(str(tmp_path / "b.sqlite3"))
        assert isinstance(suffixed, SQLiteBackend)
        suffixed.close()

    @pytest.mark.parametrize(
        "spec", ["foo:bar", "{}/plain", "{}/evals.json"]
    )
    def test_rejects_unknown_specs_without_touching_disk(
        self, tmp_path, spec
    ):
        with pytest.raises(ReproError, match="unknown cache spec"):
            make_backend(spec.format(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_instance_passthrough(self):
        backend = MemoryBackend()
        assert make_backend(backend) is backend

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            make_backend(42)


class TestEvaluationCacheWithBackends:
    def test_eviction_counter_reaches_stats(self):
        cache = EvaluationCache(max_entries=1)
        cache.put(KEY_A, "a")
        cache.put(KEY_B, "b")
        assert len(cache) == 1
        assert cache.stats.evictions == 1
        assert "evicted" in str(cache.stats)

    def test_write_only_reads_nothing_but_persists(self):
        backend = MemoryBackend()
        backend.put(KEY_A, "warm")
        cache = EvaluationCache(backend=backend, write_only=True)
        assert cache.get(KEY_A) is None  # refresh semantics
        assert cache.stats.misses == 1
        cache.put(KEY_A, "recomputed")
        assert backend.get(KEY_A) == "recomputed"

    @pytest.mark.parametrize("spec", ["sqlite:{}/evals.db"])
    def test_engine_warm_start_is_bit_identical(self, tmp_path, spec, vopd_app):
        """A second engine over a warm store does zero evaluations."""
        spec = spec.format(tmp_path)
        cold_engine = ExplorationEngine(cache_backend=spec)
        cold = select_topology(
            vopd_app, routing="MP", config=FAST, engine=cold_engine
        )
        assert cold_engine.cache.stats.hits == 0
        _close(cold_engine)

        warm_engine = ExplorationEngine(cache_backend=spec)
        warm = select_topology(
            vopd_app, routing="MP", config=FAST, engine=warm_engine
        )
        assert warm_engine.cache.stats.misses == 0  # zero evaluations
        assert warm_engine.cache.stats.hits == cold_engine.cache.stats.misses
        assert warm.best_name == cold.best_name
        assert warm.table() == cold.table()
        for name, evaluation in cold.evaluations.items():
            warm_eval = warm.evaluations[name]
            assert warm_eval.cost == evaluation.cost
            assert warm_eval.assignment == evaluation.assignment
        _close(warm_engine)


def _close(engine) -> None:
    closer = getattr(engine.cache.backend, "close", None)
    if closer is not None:
        closer()


def _child_env() -> dict:
    import os

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestWriteErrors:
    """Failed cache writes are counted and surfaced, never raised."""

    def test_sqlite_backend_counts_failed_writes(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "evals.db")
        backend._conn.close()  # simulate a store gone bad mid-run
        backend.put(KEY_A, {"cost": 1})
        assert backend.write_errors == 1

    def test_repeated_write_failures_warn_once(self, tmp_path, caplog):
        backend = SQLiteBackend(tmp_path / "evals.db")
        backend._conn.close()
        with caplog.at_level("WARNING", logger="repro.engine.backends"):
            backend.put(KEY_A, {"cost": 1})
            backend.put(KEY_A, {"cost": 2})
        assert backend.write_errors == 2
        # Only the first failure warns; repeats are demoted to debug.
        warnings = [
            r
            for r in caplog.records
            if r.levelname == "WARNING" and "write failed" in r.getMessage()
        ]
        assert len(warnings) == 1
        assert "first write failure" in warnings[0].getMessage()

    def test_cache_stats_mirror_backend_write_errors(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "evals.db")
        backend._conn.close()
        cache = EvaluationCache(backend=backend)
        cache.put(KEY_A, {"cost": 1})
        assert cache.stats.write_errors == 1
        assert "1 write error" in str(cache.stats)

    def test_memory_backend_reports_zero(self):
        cache = EvaluationCache(backend=MemoryBackend())
        cache.put(KEY_A, "a")
        assert cache.stats.write_errors == 0
