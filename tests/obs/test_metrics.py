"""MetricsRegistry: families, labels, concurrency, exposition format."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.obs import DEFAULT_BUCKETS, MetricsRegistry, get_registry


class TestCounters:
    def test_counts_and_snapshots(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_total", "help text")
        c.inc()
        c.inc(2)
        assert c.value() == 3
        snap = reg.snapshot()["repro_test_total"]
        assert snap["type"] == "counter"
        assert snap["series"] == [{"labels": {}, "value": 3.0}]

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_total", "h")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labeled_series_are_independent(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_jobs_total", "h", ("kind", "status"))
        c.inc(kind="evaluation", status="cached")
        c.inc(2, kind="evaluation", status="computed")
        assert c.value(kind="evaluation", status="cached") == 1
        assert c.value(kind="evaluation", status="computed") == 2
        assert c.value(kind="simulation", status="cached") == 0

    def test_wrong_label_set_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_jobs_total", "h", ("kind",))
        with pytest.raises(ValueError):
            c.inc()  # missing label
        with pytest.raises(ValueError):
            c.inc(kind="x", extra="y")


class TestRegistration:
    def test_reregistration_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_x_total", "h")
        b = reg.counter("repro_x_total", "h")
        assert a is b

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", "h")
        with pytest.raises(ValueError):
            reg.gauge("repro_x_total", "h")

    def test_label_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", "h", ("kind",))
        with pytest.raises(ValueError):
            reg.counter("repro_x_total", "h", ("status",))

    def test_reset_keeps_families_clears_series(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total", "h")
        c.inc(5)
        reg.reset()
        assert "repro_x_total" in reg.snapshot()
        assert c.value() == 0


class TestGaugesAndHistograms:
    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_inflight", "h")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value() == 3

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_s", "h", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        series = reg.snapshot()["repro_s"]["series"][0]
        assert series["count"] == 5
        assert series["sum"] == pytest.approx(56.05)
        # Bucket counts are cumulative; +Inf is implicit in ``count``.
        assert series["buckets"] == {"0.1": 1, "1": 3, "10": 4}

    def test_default_buckets_strictly_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("repro_s", "h", buckets=(1.0, 1.0))


class TestConcurrency:
    def test_parallel_increments_do_not_lose_counts(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_hot_total", "h", ("worker",))

        def hammer(w):
            for _ in range(2000):
                c.inc(worker=str(w % 2))

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value(worker="0") + c.value(worker="1") == 16000


class TestExposition:
    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_jobs_total", "Jobs handled", ("kind",))
        c.inc(3, kind="evaluation")
        h = reg.histogram("repro_s", "Latency", buckets=(0.5, 1.0))
        h.observe(0.25)
        text = reg.exposition()
        lines = text.splitlines()
        assert "# HELP repro_jobs_total Jobs handled" in lines
        assert "# TYPE repro_jobs_total counter" in lines
        assert 'repro_jobs_total{kind="evaluation"} 3' in lines
        assert 'repro_s_bucket{le="0.5"} 1' in lines
        assert 'repro_s_bucket{le="+Inf"} 1' in lines
        assert "repro_s_sum 0.25" in lines
        assert "repro_s_count 1" in lines

    def test_exposition_escapes_label_values(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total", "h", ("tag",))
        c.inc(tag='a"b\\c\nd')
        line = [
            ln for ln in reg.exposition().splitlines()
            if ln.startswith("repro_x_total{")
        ][0]
        assert line == 'repro_x_total{tag="a\\"b\\\\c\\nd"} 1'


class TestProcessRegistry:
    def test_instrumented_modules_preregister_families(self):
        """A cold process already exposes the catalog's key families.

        This is what makes the service's ``metrics`` request useful
        before the first byte of work: families exist with zero values.
        """
        # Importing the layers registers their instruments.
        import repro.engine.engine  # noqa: F401
        import repro.service.server  # noqa: F401
        import repro.simulation.campaign  # noqa: F401

        names = set(get_registry().snapshot())
        expected = {
            "repro_cache_hits_total",
            "repro_cache_misses_total",
            "repro_cache_dedup_total",
            "repro_engine_jobs_total",
            "repro_engine_retries_total",
            "repro_job_seconds",
            "repro_service_requests_total",
            "repro_campaign_points_per_sec",
        }
        assert expected <= names


def _cache_series(jobs: int, tmp_path: Path) -> list[str]:
    """``repro_cache_{hits,misses}_total`` lines of one CLI selection
    run in a fresh process (so the registry starts empty)."""
    metrics = tmp_path / f"jobs{jobs}.prom"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "select", "--app", "vopd",
            "--jobs", str(jobs), "--metrics", str(metrics),
        ],
        capture_output=True, text=True, timeout=300, env=env, check=True,
    )
    return sorted(
        line
        for line in metrics.read_text(encoding="utf-8").splitlines()
        if line.startswith(
            ("repro_cache_hits_total", "repro_cache_misses_total")
        )
    )


class TestCacheCounters:
    def test_cache_series_do_not_depend_on_worker_count(self, tmp_path):
        """The cache counters count engine job lookups only, so a serial
        and a process-pool selection report the same series."""
        serial = _cache_series(1, tmp_path)
        assert serial  # the selection did look up its jobs
        assert serial == _cache_series(2, tmp_path)
