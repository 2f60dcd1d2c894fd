"""The ``service_mix`` workload: open-loop traffic against the design
service running as its own process.

Set-up starts ``python -m repro.cli serve`` (``--jobs 2``, a fresh
``sqlite:`` cache in a temporary directory under ``perfbench/out``) and
waits for its ``health`` probe. The timed section replays a seeded
request schedule at a fixed rate from one asyncio client over two
connections, timing each request from its scheduled send time. The mix:

* one cold request every 18 slots, alternating ``select`` (the dsp
  application under a seeded link capacity) and ``campaign`` (a seeded
  narrow sweep of dsp on a mesh or torus, every other one on the batch
  lane);
* popular repeats of earlier requests (warm cache hits once the first
  copy has finished) in most other slots;
* one or two repeats sent 30 ms apart after each cold request, while
  the first copy is still running, so they join it in flight;
* one ``cache: "refresh"`` repeat every 54 slots, which recomputes and
  writes through the persistent backend.

The cold rate is kept low (0.78 cold and 0.26 refresh requests/s, each
holding the engine for roughly 0.2-0.6 s on a 2-CPU host) because every
engine pass holds the batching engine's flush lock: warm repeats queue
behind a running cold pass, and near saturation the median would
measure that queue rather than the service.

After the timed section every answer is checked against the other
answers to the same parameters, and a seeded sample against direct
library calls.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import load_application, run_sunmap
from repro.core.constraints import Constraints
from repro.core.greedy import initial_greedy_mapping
from repro.engine import ExplorationEngine
from repro.io import selection_to_dict
from repro.simulation.campaign import CampaignConfig, run_campaign, strip_runtime
from repro.topology.library import make_topology

from perfbench.flows import Outcome, digest
from perfbench.measure import (
    MIN_SAMPLES_BEYOND,
    Op,
    median,
    percentile,
    samples_beyond,
)

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: Requests per second of the open-loop schedule (grid slots; the
#: in-flight repeats ride on top of it).
RATE = 14.0
#: Client connections the schedule is spread over.
CONNECTIONS = 2
#: Service worker processes and admission budget.
SERVICE_JOBS = 2
MAX_INFLIGHT = 32
#: Every COLD_EVERY-th grid slot is a cold request (select and campaign
#: alternate), every REFRESH_EVERY-th a refresh, the rest are warm
#: repeats of earlier cold requests, picked by a seeded popularity. A fixed arrival pattern keeps the seed from changing how
#: bursty the load is; the seed picks parameters and repeat targets.
COLD_EVERY = 18
REFRESH_EVERY = 54
#: Every cold request is followed by in-flight repeats (two for every
#: other one) this many seconds apart. They cost the service no work but
#: wait as long as the cold request, so they widen the slow tail that
#: ``req_p95_ms`` is read from without adding load.
DEDUP_LAG_S = 0.03
#: Seconds allowed for the last answers after the last send.
DRAIN_TIMEOUT_S = 60.0
#: Distinct requests re-computed by direct library calls after the run.
DIRECT_SAMPLE = 4


@dataclass
class Request:
    """One scheduled request."""

    at: float
    payload: dict
    key: str
    role: str


@dataclass
class Answer:
    """What came back for one request."""

    request: Request
    due: float
    sent: float
    done: float | None = None
    response: dict | None = None
    result_json: str | None = None


# ---------------------------------------------------------------------------
# the seeded schedule
# ---------------------------------------------------------------------------
def _select_params(rng: random.Random) -> dict:
    # The link capacity makes every cold select a distinct request while
    # the work stays alike: dsp maps under MP without fallback anywhere
    # in this range.
    return {
        "app": "dsp",
        "routing": "MP",
        "objective": rng.choice(["hops", "bandwidth"]),
        "link_capacity_mb_s": round(rng.uniform(1000.0, 2000.0), 1),
        "fallback": True,
    }


def _campaign_params(rng: random.Random, index: int) -> dict:
    rates = sorted(rng.sample([0.05, 0.1, 0.2, 0.3, 0.4, 0.5], 2))
    params = {
        "app": "dsp",
        "topology": rng.choice(["mesh", "torus"]),
        "rates": rates,
        "patterns": rng.sample(["app", "uniform", "hotspot", "transpose"], 2),
        "seeds": [rng.randrange(1, 1 << 20)],
        "warmup": 200,
        "measure": 800,
        "drain": 400,
        "faults": 0,
        "fault_seeds": [1],
    }
    if index % 2:
        params["sim_engine"] = "batch"
    return params


def request_key(kind: str, params: dict) -> str:
    """Requests with equal keys must get byte-identical results."""
    return json.dumps([kind, params], sort_keys=True)


def build_schedule(seed: int, seconds: float) -> list[Request]:
    """The seeded request schedule of one run, sorted by send time."""
    rng = random.Random(f"service_mix:{seed}")
    slots = max(1, round(seconds * RATE))
    requests: list[Request] = []
    cold: list[tuple[float, Request]] = []  # (popularity, request)

    def add(at, kind, params, role, cache="default"):
        payload = {
            "v": 1, "id": f"q{len(requests)}", "kind": kind,
            "cache": cache, "params": params,
        }
        request = Request(at, payload, request_key(kind, params), role)
        requests.append(request)
        return request

    for slot in range(slots):
        at = slot / RATE
        if slot % COLD_EVERY == 0:
            index = len(cold)
            if index % 2 == 0:
                kind, params = "select", _select_params(rng)
            else:
                kind, params = "campaign", _campaign_params(rng, index // 2)
            first = add(at, kind, params, "cold")
            cold.append((rng.paretovariate(1.2), first))
            for copy in range(1 + index % 2):
                add(at + DEDUP_LAG_S * (copy + 1), kind, params, "inflight")
        elif slot % REFRESH_EVERY == COLD_EVERY // 2:
            target = rng.choice(cold)[1]
            add(
                at, target.payload["kind"], target.payload["params"],
                "refresh", cache="refresh",
            )
        else:
            # Warm repeats alternate between the kinds, so the seed does
            # not shift the select/campaign balance of the warm traffic.
            kind = ("select", "campaign")[slot % 2]
            pool = [c for c in cold if c[1].payload["kind"] == kind] or cold
            target = rng.choices(
                [r for _, r in pool], weights=[p for p, _ in pool]
            )[0]
            add(at, target.payload["kind"], target.payload["params"], "warm")
    requests.sort(key=lambda r: r.at)
    return requests


# ---------------------------------------------------------------------------
# the service process
# ---------------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServiceProcess:
    """``repro.cli serve`` in its own process group."""

    START_TIMEOUT_S = 60.0

    def __init__(self):
        OUT.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="svc-", dir=OUT))
        self.port = _free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--host", "127.0.0.1", "--port", str(self.port),
                "--jobs", str(SERVICE_JOBS),
                "--max-inflight", str(MAX_INFLIGHT),
                "--cache", f"sqlite:{self.workdir / 'evals.db'}",
            ],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + self.START_TIMEOUT_S
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"design service exited with {self.process.returncode}"
                )
            try:
                response = asyncio.run(self.probe("health"))
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError("design service did not start")
                time.sleep(0.02)
                continue
            if response.get("ok"):
                return

    async def probe(self, kind: str) -> dict:
        """One ``health`` or ``metrics`` probe on its own connection."""
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", self.port, limit=1 << 24
        )
        try:
            request = {"v": 1, "kind": kind, "params": {}}
            writer.write(json.dumps(request).encode("utf-8") + b"\n")
            await writer.drain()
            return json.loads(await reader.readline())
        finally:
            writer.close()
            await writer.wait_closed()

    def stop(self) -> None:
        """Stop the service and every process of its group, and wait."""
        pgid = self.process.pid
        if self.process.poll() is None:
            _signal_group(pgid, signal.SIGINT)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                _signal_group(pgid, signal.SIGKILL)
                self.process.wait()
        # Pool workers of the service share its process group; give them
        # a moment to exit with it, then kill any that remain. (A member
        # that stays visible after SIGKILL is a zombie: it has ended.)
        deadline = time.monotonic() + 10
        while _signal_group(pgid, 0) and time.monotonic() < deadline:
            time.sleep(0.02)
        if _signal_group(pgid, signal.SIGKILL):
            time.sleep(0.5)
        shutil.rmtree(self.workdir, ignore_errors=True)


def _signal_group(pgid: int, sig) -> bool:
    """Signal a process group; ``False`` when it no longer exists."""
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        return False
    return True


# ---------------------------------------------------------------------------
# the open-loop client
# ---------------------------------------------------------------------------
async def drive(port: int, schedule: list[Request]) -> list[Answer]:
    """Send ``schedule`` open loop; return every answer in send order."""
    connections = [
        await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
        for _ in range(CONNECTIONS)
    ]
    answers: dict[str, Answer] = {}
    remaining = len(schedule)
    all_done = asyncio.Event()

    async def read(reader):
        nonlocal remaining
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            response = json.loads(line)
            answer = answers[response["id"]]
            answer.done = now
            answer.response = response
            if "result" in response:
                answer.result_json = json.dumps(response["result"])
            remaining -= 1
            if remaining == 0:
                all_done.set()

    readers = [asyncio.create_task(read(r)) for r, _ in connections]
    try:
        start = time.perf_counter() + 0.05
        for index, request in enumerate(schedule):
            due = start + request.at
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            writer = connections[index % CONNECTIONS][1]
            answers[request.payload["id"]] = Answer(
                request, due, time.perf_counter()
            )
            writer.write(json.dumps(request.payload).encode("utf-8") + b"\n")
            await writer.drain()
        try:
            await asyncio.wait_for(all_done.wait(), DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            pass  # unanswered requests count as failures
    finally:
        for reader_task in readers:
            reader_task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in connections:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
    return [answers[r.payload["id"]] for r in schedule]


# ---------------------------------------------------------------------------
# direct library calls (the byte-identity reference)
# ---------------------------------------------------------------------------
def direct_result(kind: str, params: dict) -> dict:
    """The documented library call behind a ``select`` or ``campaign``
    request, on a private serial engine."""
    engine = ExplorationEngine(jobs=1)
    app = load_application(params["app"])
    if kind == "select":
        report = run_sunmap(
            app,
            routing=params["routing"],
            objective=params["objective"],
            constraints=Constraints(
                link_capacity_mb_s=params["link_capacity_mb_s"]
            ),
            generate=False,
            engine=engine,
        )
        return {
            "application": app.name,
            "attempted_routings": report.attempted_routings,
            "selection": selection_to_dict(report.selection),
        }
    topology = make_topology(params["topology"], app.num_cores)
    config = CampaignConfig(
        rates=tuple(params["rates"]),
        patterns=tuple(params["patterns"]),
        seeds=tuple(params["seeds"]),
        warmup=params["warmup"],
        measure=params["measure"],
        drain=params["drain"],
        faults=params["faults"],
        fault_seeds=tuple(params["fault_seeds"]),
        sim_engine=params.get("sim_engine", "exact"),
    )
    return run_campaign(
        topology,
        core_graph=app,
        assignment=initial_greedy_mapping(app, topology),
        config=config,
        engine=engine,
    ).to_dict()


def _comparable(kind: str, result: dict) -> str:
    """Canonical text of a result; campaigns drop their wall-clock
    ``runtime`` block."""
    if kind == "campaign":
        result = strip_runtime(result)
    return json.dumps(result)


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------
@dataclass
class ServiceMix:
    """One service process plus the seeded schedule it will serve."""

    seed: int
    seconds: float
    schedule: list[Request] = field(init=False)
    service: ServiceProcess = field(init=False)

    def __post_init__(self):
        self.schedule = build_schedule(self.seed, self.seconds)
        self.service = ServiceProcess()

    def close(self) -> None:
        self.service.stop()

    def run(self, recorder) -> Outcome:
        port = self.service.port
        before = after = metrics = None
        if recorder is not None:
            before = asyncio.run(self.service.probe("health"))["result"]
        answers = asyncio.run(drive(port, self.schedule))
        # An unanswered request failed; it waited until the client gave
        # up, which keeps every latency finite.
        gave_up = time.perf_counter()
        if recorder is not None:
            after = asyncio.run(self.service.probe("health"))["result"]
            metrics = asyncio.run(self.service.probe("metrics"))["result"]
        first_due = answers[0].due
        last_done = max(
            (a.done for a in answers if a.done is not None),
            default=first_due,
        )
        ops = [
            Op(
                due=a.due, sent=a.sent,
                done=gave_up if a.done is None else a.done,
                ok=bool(a.response and a.response.get("ok")),
            )
            for a in answers
        ]
        checks = self._check(answers)
        latencies = [op.latency_s for op in ops]
        beyond = samples_beyond(latencies, 95.0)
        checks.append((
            "enough requests for req_p95_ms",
            beyond >= MIN_SAMPLES_BEYOND,
            f"{beyond} of {len(ops)} samples beyond p95",
        ))
        outputs = {}
        for a in answers:
            if a.result_json is not None:
                kind = a.request.payload["kind"]
                outputs[a.request.key] = digest(
                    _comparable(kind, json.loads(a.result_json))
                )
        layer = {}
        if recorder is not None:
            root = recorder.add_span("bench.section", first_due, last_done)
            for a in answers:
                if a.done is not None:
                    recorder.add_span(
                        "service.request", a.sent, a.done, parent=root
                    )
            layer = service_layer_metrics(answers, ops, before, after, metrics)
        return Outcome(last_done - first_due, ops, outputs, checks, layer)

    def _check(self, answers: list[Answer]) -> list[tuple[str, bool, str]]:
        by_key: dict[str, set[str]] = {}
        for a in answers:
            if a.result_json is not None:
                kind = a.request.payload["kind"]
                by_key.setdefault(a.request.key, set()).add(
                    _comparable(kind, json.loads(a.result_json))
                )
        mismatched = [k for k, texts in by_key.items() if len(texts) != 1]
        checks = [(
            "repeated requests get byte-identical answers",
            not mismatched,
            f"{len(mismatched)} of {len(by_key)} keys differ",
        )]
        rng = random.Random(f"service_mix:direct:{self.seed}")
        sample = rng.sample(sorted(by_key), min(DIRECT_SAMPLE, len(by_key)))
        for key in sample:
            kind, params = json.loads(key)
            expected = _comparable(kind, direct_result(kind, params))
            (served,) = by_key[key]
            checks.append((
                f"{kind} answer equals the direct library call",
                served == expected,
                key[:80],
            ))
        return checks


def service_layer_metrics(answers, ops, before, after, metrics) -> dict:
    """Per-layer figures of the service, from the answers' ``stats`` and
    the ``health``/``metrics`` probes taken around the traffic."""
    computed, rtt_minus_compute = [], []
    deduped = ok = busy = 0
    for a in answers:
        response = a.response or {}
        error = response.get("error") or {}
        busy += error.get("code") == "busy"
        if not response.get("ok"):
            continue
        ok += 1
        stats = response["stats"]
        deduped += stats["deduped"]
        if not stats["deduped"]:
            computed.append(stats["elapsed_ms"])
        rtt_minus_compute.append(
            (a.done - a.sent) * 1000.0 - stats["elapsed_ms"]
        )
    cache_before, cache_after = before["cache"], after["cache"]
    hits = cache_after["hits"] - cache_before["hits"]
    lookups = hits + cache_after["misses"] - cache_before["misses"]
    backend_hits = _series(metrics, "repro_cache_hits_total", backend="sqlite")
    backend_misses = _series(
        metrics, "repro_cache_misses_total", backend="sqlite"
    )
    late = [op.late_s * 1000.0 for op in ops]
    return {
        # The engine's own CacheStats, as the health probe reports them
        # (not the process-wide memory-backend counter, which the
        # mapping memo also increments).
        "engine.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "engine.jobs": lookups,
        "engine.retries": _series(metrics, "repro_engine_retries_total"),
        "service.compute_ms_p50": median(computed) if computed else 0.0,
        "service.wire_ms_p50": (
            median(rtt_minus_compute) if rtt_minus_compute else 0.0
        ),
        "service.dedup_ratio": deduped / ok if ok else 0.0,
        "service.busy_frac": busy / len(answers),
        # The persistent backend's hit ratio: the mapping memo never
        # uses the sqlite label, so this series is its own.
        "service.cache_hit_ratio": (
            backend_hits / (backend_hits + backend_misses)
            if backend_hits + backend_misses else 0.0
        ),
        "bench.gen_late_ms_p95": percentile(late, 95.0),
    }


def _series(snapshot: dict, name: str, **labels) -> float:
    """Sum of a metrics-probe family's series matching ``labels``."""
    family = snapshot.get(name) or {"series": []}
    return sum(
        s.get("value", 0.0)
        for s in family["series"]
        if all(s["labels"].get(k) == v for k, v in labels.items())
    )
