"""Async design service: many concurrent JSON requests, one warm engine.

:class:`DesignService` is the front door the ROADMAP's service layer
asks for: it accepts concurrent design requests (``select`` /
``synthesize`` / ``campaign``, plus the ``health`` and ``metrics``
probes), validates
them against the contract (:mod:`repro.service.contract`), dedupes
identical requests in flight
(:class:`~repro.service.jobqueue.InFlightTable`), batches the engine
jobs of overlapping requests into single executor passes
(:class:`~repro.service.jobqueue.BatchingEngine`), and streams each
response as soon as its computation lands — over a newline-delimited
JSON TCP protocol (:meth:`DesignService.serve`) or directly in-process
(:meth:`DesignService.handle`, which is also what the tests drive).

The service degrades before it collapses: an optional ``max_inflight``
budget rejects over-capacity computations with the typed retryable
``busy`` error (dedup joiners stay free), campaign requests honour a
per-request ``deadline_s`` by returning partial results flagged
``degraded``, and oversized request lines get a clean ``ContractError``
response instead of a dropped connection.

Every handler calls the exact public flow a direct caller would —
:func:`~repro.sunmap.run_sunmap`,
:func:`~repro.synthesis.generate.synthesize_topologies`,
:func:`~repro.simulation.campaign.run_campaign` — so a response's
``result`` payload is byte-identical to the direct call, regardless of
cache backend, batching or dedup (asserted in the service tests).

Compute runs in worker threads (``asyncio.to_thread``), so the event
loop stays free to accept, validate and dedupe requests while the
engine grinds; the engine's own process executor supplies the real
parallelism when the service is started with ``jobs > 1``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
from time import perf_counter

from repro.apps import APPLICATIONS, load_application
from repro.core.constraints import Constraints
from repro.core.coregraph import CoreGraph
from repro.core.greedy import initial_greedy_mapping
from repro.engine.cache import EvaluationCache
from repro.engine.engine import ExplorationEngine
from repro.errors import ContractError, ReproError, ServiceBusyError
from repro.io import (
    core_graph_from_dict,
    custom_topology_from_dict,
    custom_topology_to_dict,
    reject_non_finite,
    selection_to_dict,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.service.contract import (
    DesignRequest,
    error_response,
    parse_request,
    DesignResponse,
)
from repro.service.jobqueue import BatchingEngine, InFlightTable
from repro.simulation.campaign import CampaignConfig, run_campaign
from repro.sunmap import DEFAULT_ROUTING_FALLBACKS, run_sunmap
from repro.synthesis.generate import SynthesisConfig, synthesize_topologies
from repro.topology.library import make_topology

log = logging.getLogger(__name__)

_REQUESTS = obs_metrics.REGISTRY.counter(
    "repro_service_requests_total",
    "Requests received, by kind (invalid requests count under 'invalid')",
    ("kind",),
)
_BUSY = obs_metrics.REGISTRY.counter(
    "repro_service_busy_total", "Computations rejected by admission control"
)
_INFLIGHT = obs_metrics.REGISTRY.gauge(
    "repro_service_inflight", "Computations currently admitted"
)
_REQUEST_SECONDS = obs_metrics.REGISTRY.histogram(
    "repro_service_request_seconds",
    "End-to-end request latency by kind (compute kinds only)",
    ("kind",),
)


class DesignService:
    """One service instance: shared engine, in-flight table, counters.

    Args:
        engine: explicit inner engine (overrides ``jobs`` and
            ``cache_backend``). The service wraps it in a
            :class:`~repro.service.jobqueue.BatchingEngine`; do not
            submit to it directly while the service is live.
        jobs: engine worker processes (1 = in-thread serial execution).
        cache_backend: evaluation-cache storage — a
            :class:`~repro.engine.backends.CacheBackend` or a
            :func:`~repro.engine.backends.make_backend` spec string.
            With a persistent backend (``"sqlite:PATH"``) the service
            starts warm: requests already answered by any earlier
            process cost zero evaluations.
        batch_window_s: straggler window of the job batcher (see
            :class:`~repro.service.jobqueue.BatchingEngine`).
        max_inflight: admission-control budget — the number of request
            *computations* allowed to run concurrently (in-flight dedup
            joiners are free: they cost no engine work). Past the
            budget, new computations are rejected with the typed
            retryable ``busy`` error instead of being queued without
            bound. ``None`` (default) disables admission control.
        max_request_bytes: largest accepted request line on the TCP
            transport; an oversized line gets a clean ``ContractError``
            response (and the connection survives) instead of an
            asyncio ``LimitOverrunError`` connection drop.
    """

    def __init__(
        self,
        engine: ExplorationEngine | None = None,
        jobs: int = 1,
        cache_backend=None,
        batch_window_s: float = 0.005,
        max_inflight: int | None = None,
        max_request_bytes: int = 1_048_576,
    ):
        """Build the service (see the class docstring for the knobs)."""
        if max_inflight is not None and max_inflight < 1:
            raise ReproError("max_inflight must be at least 1")
        if max_request_bytes < 1024:
            raise ReproError("max_request_bytes must be at least 1024")
        inner = engine or ExplorationEngine(
            jobs=jobs, cache_backend=cache_backend
        )
        self.engine = BatchingEngine(inner, window_s=batch_window_s)
        self.inflight = InFlightTable()
        self._ids = itertools.count(1)
        self.max_inflight = max_inflight
        self.max_request_bytes = max_request_bytes
        #: Requests received (including invalid ones).
        self.requests = 0
        #: Requests actually computed (excludes in-flight dedup joins).
        self.computed = 0
        #: Requests rejected by admission control.
        self.busy_rejections = 0
        #: Computations currently admitted (all state below is mutated
        #: on the event-loop thread only, so plain ints suffice).
        self._admitted = 0
        #: EWMA of recent compute times, feeding the busy response's
        #: ``retry_after_s`` hint.
        self._ewma_compute_s: float | None = None

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def handle(self, payload: dict) -> dict:
        """Process one raw request payload into a response dict.

        The full lifecycle: validate → normalize → fingerprint → join or
        own the in-flight computation → compute in a worker thread →
        respond. Contract violations and captured domain errors come
        back as error envelopes; only genuine bugs propagate.
        """
        self.requests += 1
        try:
            request = parse_request(payload)
        except ContractError as exc:
            _REQUESTS.inc(kind="invalid")
            raw_id = payload.get("id") if isinstance(payload, dict) else None
            raw_kind = (
                payload.get("kind") if isinstance(payload, dict) else None
            )
            return error_response(raw_kind, raw_id, exc).to_dict()
        _REQUESTS.inc(kind=request.kind)
        request_id = (
            request.request_id
            if request.request_id is not None
            else f"req-{next(self._ids)}"
        )
        if request.kind == "health":
            # Operational probe: answered on the event loop, never
            # admitted (a saturated service must still report itself).
            return DesignResponse(
                kind="health", request_id=request_id, result=self.health()
            ).to_dict()
        if request.kind == "metrics":
            # Observability probe: like health, answered on the event
            # loop even at saturation — the moment you most need it.
            return DesignResponse(
                kind="metrics", request_id=request_id, result=self.metrics()
            ).to_dict()
        start = perf_counter()
        deduped = False
        with obs_trace.span(
            "service.request", kind=request.kind, id=request_id
        ) as sp:
            try:
                if request.cache == "default":
                    fingerprint = request.fingerprint()
                    future, owner = self.inflight.join(fingerprint)
                    if owner:
                        try:
                            result = await self._compute_admitted(request)
                        except BaseException as exc:
                            self.inflight.reject(fingerprint, exc)
                            raise
                        self.inflight.resolve(fingerprint, result)
                    else:
                        deduped = True
                        result = await future
                else:
                    # refresh/bypass explicitly ask for a fresh
                    # computation, so they never join (or seed) the
                    # in-flight table.
                    result = await self._compute_admitted(request)
            except ReproError as exc:
                sp.set("deduped", deduped)
                sp.set("ok", False)
                _REQUEST_SECONDS.observe(
                    perf_counter() - start, kind=request.kind
                )
                response = error_response(request.kind, request_id, exc)
                response.stats = {"deduped": deduped}
                return response.to_dict()
            elapsed = perf_counter() - start
            sp.set("deduped", deduped)
            sp.set("ok", True)
        _REQUEST_SECONDS.observe(elapsed, kind=request.kind)
        return DesignResponse(
            kind=request.kind,
            request_id=request_id,
            result=result,
            stats={
                "elapsed_ms": round(elapsed * 1000.0, 3),
                "deduped": deduped,
            },
        ).to_dict()

    async def _compute_admitted(self, request: DesignRequest) -> dict:
        """Admit one computation against the budget, then run it.

        Called on the event-loop thread, so the admit/release counter
        needs no lock. Over budget, the request is rejected with the
        typed retryable ``busy`` error — nothing was computed, and
        ``retry_after_s`` estimates when a slot should free up.
        """
        if (
            self.max_inflight is not None
            and self._admitted >= self.max_inflight
        ):
            self.busy_rejections += 1
            _BUSY.inc()
            raise ServiceBusyError(
                f"service at capacity: {self._admitted}/"
                f"{self.max_inflight} computations in flight; retry later",
                retry_after_s=self._retry_hint(),
            )
        self._admitted += 1
        _INFLIGHT.set(self._admitted)
        start = perf_counter()
        try:
            return await asyncio.to_thread(self._compute, request)
        finally:
            self._admitted -= 1
            _INFLIGHT.set(self._admitted)
            elapsed = perf_counter() - start
            self._ewma_compute_s = (
                elapsed
                if self._ewma_compute_s is None
                else 0.7 * self._ewma_compute_s + 0.3 * elapsed
            )

    def _retry_hint(self) -> float:
        """Backoff hint for busy responses (recent compute-time EWMA)."""
        if self._ewma_compute_s is None:
            return 1.0
        return min(30.0, max(0.05, self._ewma_compute_s))

    def health(self) -> dict:
        """The ``health`` probe payload: load, budget and cache stats."""
        stats = self.engine.cache.stats
        return {
            "status": "ok",
            "in_flight": self._admitted,
            "max_inflight": self.max_inflight,
            "deduping": len(self.inflight),
            "requests": self.requests,
            "computed": self.computed,
            "busy_rejections": self.busy_rejections,
            "cache": {
                "entries": len(self.engine.cache),
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "write_errors": stats.write_errors,
            },
            "job_failures": dict(self.engine.failure_stats),
            "batches": self.engine.batches,
        }

    def metrics(self) -> dict:
        """The ``metrics`` probe payload: the unified registry snapshot.

        Served on the event loop like ``health`` — a saturated service
        still reports its counters, latency histograms and gauges (the
        full catalog lives in ``docs/OBSERVABILITY.md``).
        """
        return obs_metrics.get_registry().snapshot()

    def _compute(self, request: DesignRequest) -> dict:
        """Run one request's flow on a worker thread (blocking)."""
        engine = self._engine_for(request.cache)
        handler = {
            "select": self._run_select,
            "synthesize": self._run_synthesize,
            "campaign": self._run_campaign,
        }[request.kind]
        result = handler(request.params, engine)
        self.computed += 1
        return result

    def _engine_for(self, cache_control: str) -> ExplorationEngine:
        """Engine honouring the request's cache-control value.

        ``default`` shares the batching engine (warm reads, warm
        writes, cross-request batching); ``bypass`` runs on a private
        in-memory engine (no shared reads or writes); ``refresh`` runs
        write-only over the shared backend, overwriting warm entries
        with freshly computed — bit-identical — results.
        """
        if cache_control == "default":
            return self.engine
        if cache_control == "bypass":
            return ExplorationEngine(executor=self.engine.executor)
        return ExplorationEngine(
            executor=self.engine.executor,
            cache=EvaluationCache(
                backend=self.engine.cache.backend, write_only=True
            ),
        )

    # ------------------------------------------------------------------
    # per-kind handlers (each is the direct public flow, nothing more)
    # ------------------------------------------------------------------
    @staticmethod
    def _load_app(params: dict) -> CoreGraph:
        """Resolve the request's application reference."""
        if "core_graph" in params:
            return core_graph_from_dict(params["core_graph"])
        name = params["app"]
        if name not in APPLICATIONS:
            raise ContractError(
                f"$.params.app: unknown application {name!r}; built-ins: "
                f"{sorted(APPLICATIONS)}"
            )
        return load_application(name)

    def _run_select(self, params: dict, engine: ExplorationEngine) -> dict:
        """``select``: the paper's phase-1/2 flow via :func:`run_sunmap`."""
        app = self._load_app(params)
        synthesize = (
            SynthesisConfig(fault_tolerance=params["fault_tolerance"])
            if params["synthesize"] else None
        )
        report = run_sunmap(
            app,
            routing=params["routing"],
            objective=params["objective"],
            constraints=Constraints(params["link_capacity_mb_s"]),
            generate=False,
            routing_fallbacks=(
                DEFAULT_ROUTING_FALLBACKS if params["fallback"] else ()
            ),
            synthesize=synthesize,
            engine=engine,
        )
        return {
            "application": app.name,
            "attempted_routings": report.attempted_routings,
            "selection": selection_to_dict(report.selection),
        }

    def _run_synthesize(
        self, params: dict, engine: ExplorationEngine
    ) -> dict:
        """``synthesize``: custom-fabric generation + ranking."""
        app = self._load_app(params)
        config = SynthesisConfig(
            strategies=tuple(params["strategies"]),
            concentrations=tuple(params["concentrations"]),
            max_switch_degrees=tuple(params["max_switch_degrees"]),
            max_candidates=params["max_candidates"],
            fault_tolerance=params["fault_tolerance"],
        )
        result = synthesize_topologies(
            app,
            config=config,
            routing=params["routing"],
            objective=params["objective"],
            constraints=Constraints(params["link_capacity_mb_s"]),
            engine=engine,
        )
        payload = result.to_dict()
        best = result.best
        payload["best_topology"] = (
            None if best is None else custom_topology_to_dict(best.topology)
        )
        return payload

    def _run_campaign(self, params: dict, engine: ExplorationEngine) -> dict:
        """``campaign``: latency–throughput sweep of one mapped design."""
        app = (
            self._load_app(params)
            if ("app" in params or "core_graph" in params)
            else None
        )
        if "custom_topology" in params:
            topology = custom_topology_from_dict(params["custom_topology"])
        else:
            cores = params.get(
                "cores", None if app is None else app.num_cores
            )
            if cores is None:
                raise ContractError(
                    "$.params: a library 'topology' needs a size; add "
                    "'cores', an application, or send 'custom_topology'"
                )
            topology = make_topology(params["topology"], cores)
        # The campaign validates a mapped design; as in the CLI, the
        # deterministic greedy phase-1 mapping stands in for a full
        # search (submit a 'select' request for the optimized mapping).
        assignment = (
            None if app is None else initial_greedy_mapping(app, topology)
        )
        config = CampaignConfig(
            rates=tuple(params["rates"]),
            patterns=tuple(params["patterns"]),
            seeds=tuple(params["seeds"]),
            warmup=params["warmup"],
            measure=params["measure"],
            drain=params["drain"],
            faults=params["faults"],
            fault_seeds=tuple(params["fault_seeds"]),
            # Absent means "exact" (kept out of PARAM_DEFAULTS so
            # pre-batch campaign fingerprints stay stable).
            sim_engine=params.get("sim_engine", "exact"),
        )
        result = run_campaign(
            topology,
            core_graph=app,
            assignment=assignment,
            config=config,
            engine=engine,
            # A request deadline degrades gracefully: the sweep stops
            # scheduling chunks once the budget is spent and the
            # partial result comes back flagged "degraded": true.
            deadline_s=params.get("deadline_s"),
        )
        return result.to_dict()

    # ------------------------------------------------------------------
    # transport: newline-delimited JSON over TCP
    # ------------------------------------------------------------------
    async def handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve one client connection.

        Each input line is an independent request processed as its own
        task; response lines are written **as computations complete**,
        not in request order — clients match them back by ``id``. This
        is the streaming half of the contract: a batch of submitted
        jobs trickles back per-job instead of blocking on the slowest.
        """
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()

        async def respond(raw: bytes) -> None:
            """Handle one request line and stream its response out."""
            try:
                payload = json.loads(raw, parse_constant=reject_non_finite)
            except ValueError as exc:  # bad syntax, encoding or NaN/Inf
                response = error_response(
                    None, None, ContractError(f"invalid JSON: {exc}")
                ).to_dict()
            else:
                try:
                    response = await self.handle(payload)
                except Exception as exc:  # keep the connection alive
                    log.exception("internal error handling request")
                    response = error_response(
                        payload.get("kind") if isinstance(payload, dict)
                        else None,
                        payload.get("id") if isinstance(payload, dict)
                        else None,
                        exc,
                    ).to_dict()
            async with write_lock:
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                await writer.drain()

        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as exc:
                # EOF: a final unterminated line is still a request.
                line = exc.partial
                if line.strip():
                    task = asyncio.create_task(respond(line))
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                break
            except asyncio.LimitOverrunError:
                # The line exceeds max_request_bytes: answer with a
                # typed contract error and discard through the next
                # newline — the connection (and any pipelined requests
                # after the newline) survives.
                response = error_response(
                    None,
                    None,
                    ContractError(
                        "request line exceeds the server's "
                        f"{self.max_request_bytes}-byte limit"
                    ),
                ).to_dict()
                async with write_lock:
                    writer.write(
                        json.dumps(response).encode("utf-8") + b"\n"
                    )
                    await writer.drain()
                if not await _discard_oversized_line(reader):
                    break
                continue
            if not line.strip():
                continue
            task = asyncio.create_task(respond(line))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError, asyncio.CancelledError):
            # Every response is already written; a server shutdown
            # cancelling this final handshake is not an error.
            pass

    async def start(
        self, host: str = "127.0.0.1", port: int = 8787
    ) -> asyncio.base_events.Server:
        """Bind and return the listening server (``port=0`` = ephemeral)."""
        return await asyncio.start_server(
            self.handle_connection, host, port,
            limit=self.max_request_bytes,
        )

    async def serve(self, host: str = "127.0.0.1", port: int = 8787) -> None:
        """Serve requests until cancelled."""
        server = await self.start(host, port)
        sockets = ", ".join(
            str(sock.getsockname()) for sock in server.sockets
        )
        log.info("design service listening on %s", sockets)
        async with server:
            await server.serve_forever()


async def _discard_oversized_line(reader: asyncio.StreamReader) -> bool:
    """Consume the rest of an over-limit request line.

    After a ``LimitOverrunError`` the oversized data is still buffered;
    ``readuntil`` only ever consumes *through* a separator, so eating
    ``exc.consumed``-byte chunks until the newline arrives discards the
    bad line without touching any pipelined request behind it. Returns
    ``False`` on EOF (nothing left to serve).
    """
    while True:
        try:
            await reader.readuntil(b"\n")
            return True
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
        except asyncio.IncompleteReadError:
            return False


# ---------------------------------------------------------------------------
# client helpers
# ---------------------------------------------------------------------------
async def submit_async(
    payloads: list[dict], host: str = "127.0.0.1", port: int = 8787
):
    """Submit requests over one connection; yield responses as they land.

    Responses arrive in completion order (the server streams them);
    match them to requests by ``id``.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for payload in payloads:
            writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await writer.drain()
        for _ in payloads:
            line = await reader.readline()
            if not line:
                raise ReproError(
                    "server closed the connection before answering every "
                    "request"
                )
            yield json.loads(line)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass


def submit(
    payloads: list[dict], host: str = "127.0.0.1", port: int = 8787
) -> list[dict]:
    """Blocking :func:`submit_async` wrapper (completion-order list)."""
    async def _collect() -> list[dict]:
        return [r async for r in submit_async(payloads, host, port)]

    return asyncio.run(_collect())
