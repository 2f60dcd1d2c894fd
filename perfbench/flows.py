"""The in-process workloads: ``paper_flows``, ``synthetic_scale`` and
``campaign_sweep``.

Each workload class is built from ``(seed, seconds)``; its
``run(recorder)`` executes the timed section once and returns an
:class:`Outcome`. Every flow gets a fresh :class:`ExplorationEngine` at
``jobs=1``, so all of its work runs in this process where the layer
wrappers of :mod:`perfbench.layers` can see it. The flows of one run
share the process, and with it module-level caches (topology routing
views, the mapper's learned evaluator modes, simulator layouts): the
first flow pays to warm them, inside the timed section.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import MapperConfig, load_application, run_sunmap, vopd
from repro.apps.synthetic import random_core_graph
from repro.engine import ExplorationEngine
from repro.errors import MappingInfeasibleError
from repro.io import selection_to_dict
from repro.obs.metrics import get_registry
from repro.simulation.campaign import CampaignConfig, strip_runtime

from perfbench.measure import Op, lane_agreement

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_SELECTION = ROOT / "tests" / "golden" / "selection.json"


@dataclass
class Outcome:
    """What one timed section produced.

    Attributes:
        wall_s: host seconds of the timed section.
        ops: every operation attempted, in order.
        outputs: output name -> sha256 of its canonical bytes; a traced
            run must reproduce its untraced run's outputs exactly.
        checks: ``(name, passed, detail)`` of each output check.
        layer: per-layer figures the workload measures itself (engine
            cache statistics, lane agreement, service counters).
    """

    wall_s: float
    ops: list[Op]
    outputs: dict[str, str]
    checks: list[tuple[str, bool, str]]
    layer: dict[str, float] = field(default_factory=dict)


def digest(payload) -> str:
    """sha256 of a payload's canonical JSON bytes."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def retries_total() -> float:
    """Retries charged by this process's engines so far."""
    family = get_registry().snapshot().get("repro_engine_retries_total")
    return sum(s["value"] for s in family["series"]) if family else 0.0


def report_payload(report) -> dict:
    """The deterministic outputs of one ``run_sunmap`` report."""
    payload = {
        "attempted_routings": report.attempted_routings,
        "selection": selection_to_dict(report.selection),
    }
    if report.netlist is not None:
        payload["netlist"] = [
            len(report.netlist.switches),
            len(report.netlist.nis),
            len(report.netlist.links),
        ]
        payload["systemc_sha256"] = hashlib.sha256(
            report.systemc.encode("utf-8")
        ).hexdigest()
    if report.campaign is not None:
        payload["campaign"] = strip_runtime(report.campaign.to_dict())
    return payload


class _Section:
    """Runs the ops of one timed section, timing each as a closed-loop
    operation and tallying the engines' own cache statistics."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.ops: list[Op] = []
        self.outputs: dict[str, str] = {}
        self.checks: list[tuple[str, bool, str]] = []
        self.cache_hits = 0
        self.cache_lookups = 0

    def span(self, name):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name)

    def flow(self, label: str, fn):
        """Run ``fn(engine)`` as one operation on a fresh engine.

        ``fn`` returns a report, or raises; an exception it does not
        handle itself is a failed operation. Returns the report (or
        ``None`` on failure).
        """
        engine = ExplorationEngine(jobs=1)
        with self.span("bench.op"):
            start = time.perf_counter()
            try:
                value = fn(engine)
                ok = True
            except Exception as exc:  # noqa: BLE001 - counted, reported
                value, ok = None, False
                self.checks.append((f"{label} ran", False, repr(exc)))
            done = time.perf_counter()
        self.ops.append(Op(due=start, sent=start, done=done, ok=ok))
        # engine.cache_hit_ratio comes from the engine's own CacheStats:
        # the process-wide repro_cache_hits_total{backend="memory"}
        # counter is also incremented by the mapping-search memo, whose
        # private caches share the memory backend label.
        stats = engine.cache.stats
        self.cache_hits += stats.hits
        self.cache_lookups += stats.lookups
        return value

    def outcome(self, wall_s: float, retries: float, **layer) -> Outcome:
        layer["engine.cache_hit_ratio"] = (
            self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0
        )
        layer["engine.retries"] = retries
        return Outcome(wall_s, self.ops, self.outputs, self.checks, layer)


def _timed(recorder, body) -> Outcome:
    """Run ``body(section)`` as the timed section."""
    section = _Section(recorder)
    retries_before = retries_total()
    with section.span("bench.section"):
        start = time.perf_counter()
        layer = body(section) or {}
        wall = time.perf_counter() - start
    return section.outcome(wall, retries_total() - retries_before, **layer)


# ---------------------------------------------------------------------------
# paper_flows
# ---------------------------------------------------------------------------
#: The converged mapper of ``tests/test_sunmap_flow.py``.
CONVERGE = MapperConfig(converge=True, max_rounds=10)

#: ``(label, app, run_sunmap keyword arguments)``; the four ``*/hops``
#: labels are keys of the selection goldens.
PAPER_FLOWS = (
    ("vopd/hops", "vopd", {"routing": "MP", "objective": "hops"}),
    ("dsp/hops", "dsp", {"routing": "MP", "objective": "hops"}),
    ("mpeg4/hops", "mpeg4", {"routing": "MP", "objective": "hops"}),
    ("netproc/hops", "netproc", {"routing": "MP", "objective": "hops"}),
    (
        "mpeg4/power-converged", "mpeg4",
        {"routing": "SM", "objective": "power", "config": CONVERGE},
    ),
)


def golden_check(label: str, report, goldens: dict) -> tuple[str, bool, str]:
    """The report's selection against ``tests/golden/selection.json``."""
    expected = goldens[label]
    got = {
        "attempted_routings": report.attempted_routings,
        "best": report.best_topology_name,
        "feasible": sorted(report.selection.feasible),
        "selected_routing": report.selection.routing_code,
    }
    return (f"{label} matches golden", got == expected, json.dumps(got))


def power_flow_check(report) -> tuple[str, bool, str]:
    """The converged mpeg4 SM/power expectations of
    ``tests/test_sunmap_flow.py`` (Figure 7(b))."""
    best = report.best_topology_name or ""
    feasible = {name.split("-")[0] for name in report.selection.feasible}
    passed = (
        best.startswith(("mesh", "clos"))
        and feasible == {"mesh", "torus", "hypercube", "clos"}
    )
    return (
        "mpeg4/power-converged winner",
        passed,
        f"best={best} feasible={sorted(feasible)}",
    )


class PaperFlows:
    """The paper's applications through the whole flow, generation on.

    The inputs are the fixed paper applications; the seed changes
    nothing. ``seconds`` scales the number of rounds over the five
    flows (one round below 60 s).
    """

    ROUND_S = 36.0

    def __init__(self, seed: int, seconds: float):
        self.rounds = max(1, round(seconds / self.ROUND_S))
        self.apps = {name: load_application(name) for _, name, _ in PAPER_FLOWS}
        self.goldens = json.loads(GOLDEN_SELECTION.read_text(encoding="utf-8"))

    def run(self, recorder) -> Outcome:
        return _timed(recorder, self._body)

    def _body(self, section: _Section):
        for round_index in range(self.rounds):
            for label, app_name, kwargs in PAPER_FLOWS:
                app = self.apps[app_name]
                report = section.flow(
                    label,
                    lambda engine: run_sunmap(
                        app, generate=True, engine=engine, **kwargs
                    ),
                )
                if report is None:
                    continue
                section.outputs[f"{round_index}/{label}"] = digest(
                    report_payload(report)
                )
                if label in self.goldens:
                    section.checks.append(
                        golden_check(label, report, self.goldens)
                    )
                else:
                    section.checks.append(power_flow_check(report))


# ---------------------------------------------------------------------------
# synthetic_scale
# ---------------------------------------------------------------------------
#: Fixed swap budget for the synthetic apps: two full pairwise-swap
#: rounds, so every app costs about the same number of evaluations.
SYNTHETIC_CONFIG = MapperConfig(converge=False, swap_rounds=2)
SYNTHETIC_CORES = 24


class SyntheticScale:
    """Seeded sparse 24-core applications under DO and MP, no fallback.

    ``seconds`` sets the number of applications (one per 5 s). "No
    feasible topology" is a legitimate outcome and is recorded, not
    counted as a failure.
    """

    APP_S = 5.0

    def __init__(self, seed: int, seconds: float):
        rng = random.Random(f"synthetic_scale:{seed}")
        count = max(1, round(seconds / self.APP_S))
        self.apps = [
            random_core_graph(
                SYNTHETIC_CORES,
                seed=rng.randrange(1 << 30),
                name=f"syn{SYNTHETIC_CORES}-{seed}-{i}",
            )
            for i in range(count)
        ]

    def run(self, recorder) -> Outcome:
        return _timed(recorder, self._body)

    def _body(self, section: _Section):
        for app in self.apps:
            for routing in ("DO", "MP"):
                label = f"{app.name}/{routing}"
                result = section.flow(
                    label,
                    lambda engine: _synthetic_flow(app, routing, engine),
                )
                if result is None:
                    continue
                section.outputs[label] = digest(result)
                if "selection" in result:
                    best = result["selection"]["best"]
                    section.checks.append((
                        f"{label} winner generated",
                        best is not None and "netlist" in result,
                        str(best),
                    ))


def _synthetic_flow(app, routing: str, engine) -> dict:
    try:
        report = run_sunmap(
            app,
            routing=routing,
            routing_fallbacks=(),
            config=SYNTHETIC_CONFIG,
            generate=True,
            engine=engine,
        )
    except MappingInfeasibleError as exc:
        return {"infeasible": str(exc)}
    return report_payload(report)


# ---------------------------------------------------------------------------
# campaign_sweep
# ---------------------------------------------------------------------------
#: Offered loads (flits/cycle/node) of the wide sweep; they run from
#: zero load to past every pattern's knee on the vopd winner.
CAMPAIGN_RATES = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.55, 0.7)
CAMPAIGN_PATTERNS = ("app", "uniform", "hotspot", "transpose")
CAMPAIGN_SEEDS_PER_PASS = 3


class CampaignSweep:
    """The vopd flow with a wide campaign on its winner, once per lane.

    Each pass sweeps 8 rates x 4 patterns x 3 seed-derived traffic
    seeds (96 points) on the exact lane and then on the batch lane;
    ``seconds`` sets the number of passes (one per 7.5 s).
    """

    PASS_S = 7.5

    def __init__(self, seed: int, seconds: float):
        rng = random.Random(f"campaign_sweep:{seed}")
        passes = max(1, round(seconds / self.PASS_S))
        self.app = vopd()
        self.goldens = json.loads(GOLDEN_SELECTION.read_text(encoding="utf-8"))
        self.sweeps = []
        for _ in range(passes):
            seeds = tuple(
                sorted(rng.sample(range(1, 1 << 20), CAMPAIGN_SEEDS_PER_PASS))
            )
            self.sweeps.append({
                lane: CampaignConfig(
                    rates=CAMPAIGN_RATES,
                    patterns=CAMPAIGN_PATTERNS,
                    seeds=seeds,
                    sim_engine=lane,
                )
                for lane in ("exact", "batch")
            })

    def run(self, recorder) -> Outcome:
        return _timed(recorder, self._body)

    def _body(self, section: _Section):
        matches = patterns = 0
        rel_errors = []
        for pass_index, configs in enumerate(self.sweeps):
            reports = {}
            for lane, config in configs.items():
                label = f"{pass_index}/vopd+campaign/{lane}"
                report = section.flow(
                    label,
                    lambda engine: run_sunmap(
                        self.app, simulate=config, engine=engine
                    ),
                )
                if report is None:
                    continue
                campaign = report.campaign
                if campaign.failures or campaign.degraded:
                    section.ops[-1].ok = False
                section.outputs[label] = digest(report_payload(report))
                section.checks.append(
                    golden_check("vopd/hops", report, self.goldens)
                )
                reports[lane] = campaign
            if len(reports) == 2:
                agree, hits, count, errors = lane_agreement(
                    reports["exact"], reports["batch"], CAMPAIGN_RATES
                )
                matches += hits
                patterns += count
                rel_errors.extend(errors)
                section.checks.append((
                    f"pass {pass_index} lanes detect saturation within one step",
                    agree,
                    json.dumps({
                        lane: reports[lane].saturation_rates()
                        for lane in reports
                    }),
                ))
        return {
            "simulation.batch.sat_match_frac": (
                matches / patterns if patterns else 0.0
            ),
            "simulation.batch.latency_rel_err": (
                sum(rel_errors) / len(rel_errors) if rel_errors else 0.0
            ),
        }
