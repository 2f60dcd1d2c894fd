"""The design service: bit-identity, dedup, batching, warm starts.

The service's central promise: a response's ``result`` payload is
byte-identical to the equivalent direct library call — whatever cache
backend serves it, however requests are deduped or batched, and
whichever process computed it first.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core.greedy import initial_greedy_mapping
from repro.core.selector import select_topology
from repro.engine import EvaluationJob, ExplorationEngine
from repro.io import selection_to_dict
from repro.service import DesignService
from repro.service.jobqueue import BatchingEngine
from repro.service.server import submit_async
from repro.simulation.campaign import (
    CampaignConfig,
    run_campaign,
    strip_runtime,
)
from repro.sunmap import run_sunmap
from repro.synthesis.generate import SynthesisConfig, synthesize_topologies
from repro.topology.library import make_topology

#: Small, fast request bodies reused across tests.
SELECT = {
    "v": 1,
    "kind": "select",
    "params": {"app": "vopd", "routing": "MP"},
}
SYNTHESIZE = {
    "v": 1,
    "kind": "synthesize",
    "params": {
        "app": "vopd",
        "strategies": ["greedy"],
        "concentrations": [3],
        "max_switch_degrees": [6],
        "max_candidates": 3,
    },
}
CAMPAIGN = {
    "v": 1,
    "kind": "campaign",
    "params": {
        "app": "vopd",
        "topology": "mesh",
        "rates": [0.05, 0.1],
        "patterns": ["app", "uniform"],
        "seeds": [1],
        "warmup": 50,
        "measure": 100,
        "drain": 50,
    },
}


def handle(service: DesignService, payload: dict) -> dict:
    return asyncio.run(service.handle(payload))


def canonical(value) -> str:
    """Byte-level identity proxy: canonical JSON of the payload."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class TestBitIdentity:
    """Service results == direct library calls, byte for byte."""

    def test_select_matches_run_sunmap(self, vopd_app):
        response = handle(DesignService(), SELECT)
        assert response["ok"], response
        report = run_sunmap(vopd_app, routing="MP", generate=False)
        expected = {
            "application": vopd_app.name,
            "attempted_routings": report.attempted_routings,
            "selection": selection_to_dict(report.selection),
        }
        assert canonical(response["result"]) == canonical(
            json.loads(json.dumps(expected))
        )

    def test_select_without_fallback_matches_select_topology(self, dsp_app):
        """``fallback: false`` never escalates: dsp stays infeasible
        under MP, exactly as a direct selection reports it."""
        response = handle(
            DesignService(),
            {"v": 1, "kind": "select",
             "params": {"app": "dsp", "fallback": False}},
        )
        assert response["ok"], response
        assert response["result"]["attempted_routings"] == ["MP"]
        direct = select_topology(dsp_app, routing="MP")
        assert direct.best is None
        assert canonical(response["result"]["selection"]) == canonical(
            json.loads(json.dumps(selection_to_dict(direct)))
        )

    def test_synthesize_matches_direct_call(self, vopd_app):
        response = handle(DesignService(), SYNTHESIZE)
        assert response["ok"], response
        result = synthesize_topologies(
            vopd_app,
            config=SynthesisConfig(
                strategies=("greedy",),
                concentrations=(3,),
                max_switch_degrees=(6,),
                max_candidates=3,
            ),
        )
        assert response["result"]["best"] == (
            None if result.best is None else result.best.name
        )
        assert canonical(response["result"]["rows"]) == canonical(
            json.loads(json.dumps(result.to_dict()["rows"]))
        )

    def test_campaign_matches_direct_call(self, vopd_app):
        response = handle(DesignService(), CAMPAIGN)
        assert response["ok"], response
        topology = make_topology("mesh", vopd_app.num_cores)
        direct = run_campaign(
            topology,
            core_graph=vopd_app,
            assignment=initial_greedy_mapping(vopd_app, topology),
            config=CampaignConfig(
                rates=(0.05, 0.1),
                patterns=("app", "uniform"),
                seeds=(1,),
                warmup=50,
                measure=100,
                drain=50,
            ),
        )
        assert canonical(strip_runtime(response["result"])) == canonical(
            json.loads(json.dumps(strip_runtime(direct.to_dict())))
        )

    @pytest.mark.parametrize("spec", ["sqlite:{}/evals.db"])
    def test_identity_holds_from_a_warm_backend(self, tmp_path, spec):
        """Cold compute and warm replay produce identical results."""
        spec = spec.format(tmp_path)
        cold = handle(DesignService(cache_backend=spec), CAMPAIGN)
        warm_service = DesignService(cache_backend=spec)
        warm = handle(warm_service, CAMPAIGN)
        assert warm_service.engine.cache.stats.misses == 0
        assert canonical(strip_runtime(cold["result"])) == canonical(
            strip_runtime(warm["result"])
        )


class TestInFlightDedup:
    def test_n_identical_requests_compute_once(self):
        service = DesignService()

        async def burst():
            return await asyncio.gather(
                *(service.handle(dict(SELECT, id=f"r{i}")) for i in range(5))
            )

        responses = asyncio.run(burst())
        assert service.computed == 1  # exactly one computation
        assert service.inflight.deduped == 4
        assert sum(r["stats"]["deduped"] for r in responses) == 4
        payloads = {canonical(r["result"]) for r in responses}
        assert len(payloads) == 1  # every awaiter got the same bits
        assert [r["id"] for r in responses] == [f"r{i}" for i in range(5)]

    def test_owner_failure_reaches_every_awaiter(self):
        service = DesignService()
        bad = {
            "v": 1,
            "kind": "campaign",
            "params": {
                "topology": "no-such-fabric",
                "cores": 9,
                "patterns": ["uniform"],
                "rates": [0.05],
                "warmup": 10,
                "measure": 20,
                "drain": 10,
            },
        }

        async def burst():
            return await asyncio.gather(
                *(service.handle(dict(bad, id=f"r{i}")) for i in range(3))
            )

        responses = asyncio.run(burst())
        assert all(not r["ok"] for r in responses)
        assert {r["error"]["type"] for r in responses} == {"TopologyError"}
        assert len(service.inflight) == 0  # table retired the entry

    def test_refresh_and_bypass_do_not_join_the_table(self):
        service = DesignService()

        async def burst():
            return await asyncio.gather(
                service.handle(dict(SELECT, id="a", cache="bypass")),
                service.handle(dict(SELECT, id="b", cache="bypass")),
            )

        responses = asyncio.run(burst())
        assert all(r["ok"] for r in responses)
        assert service.computed == 2  # both computed independently
        assert service.inflight.deduped == 0


class TestCacheControl:
    def test_default_serves_warm_results(self):
        service = DesignService()
        handle(service, SELECT)
        warm_misses = service.engine.cache.stats.misses
        handle(service, SELECT)
        assert service.engine.cache.stats.misses == warm_misses
        assert service.engine.cache.stats.hits > 0

    def test_refresh_recomputes_and_overwrites(self):
        service = DesignService()
        first = handle(service, SELECT)
        stored = len(service.engine.cache)
        refreshed = handle(service, dict(SELECT, cache="refresh"))
        assert service.computed == 2  # warm entries were not consulted
        assert len(service.engine.cache) == stored  # overwritten in place
        assert canonical(first["result"]) == canonical(refreshed["result"])

    def test_bypass_leaves_the_shared_store_untouched(self):
        service = DesignService()
        response = handle(service, dict(SELECT, cache="bypass"))
        assert response["ok"]
        assert len(service.engine.cache) == 0  # nothing written through


class TestBatching:
    def test_concurrent_runs_merge_into_one_pass(self, vopd_app):
        inner = ExplorationEngine()
        batching = BatchingEngine(inner, window_s=0.25)
        jobs_a = [_job(vopd_app, "mesh"), _job(vopd_app, "torus")]
        jobs_b = [_job(vopd_app, "hypercube")]
        results: dict[str, list] = {}

        def submit(name, jobs):
            results[name] = batching.run(jobs)

        threads = [
            threading.Thread(target=submit, args=("a", jobs_a)),
            threading.Thread(target=submit, args=("b", jobs_b)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert batching.batches == 1  # one merged inner pass
        assert batching.batched_requests == 2
        assert batching.largest_batch == 2
        # Slices map back to their own submissions, bit-identically.
        direct = ExplorationEngine().run(jobs_a + jobs_b)
        merged = results["a"] + results["b"]
        assert [r.tag for r in merged] == [r.tag for r in direct]
        for got, want in zip(merged, direct):
            assert got.evaluation.cost == want.evaluation.cost
            assert got.evaluation.assignment == want.evaluation.assignment

    def test_sequential_runs_do_not_wait_for_each_other(self, vopd_app):
        batching = BatchingEngine(ExplorationEngine(), window_s=0)
        first = batching.run([_job(vopd_app, "mesh")])
        second = batching.run([_job(vopd_app, "mesh")])
        assert batching.batches == 2
        assert first[0].evaluation.cost == second[0].evaluation.cost
        assert second[0].cached  # same engine cache underneath

    def test_empty_run_is_a_noop(self):
        batching = BatchingEngine(ExplorationEngine(), window_s=0)
        assert batching.run([]) == []
        assert batching.batches == 0


class TestTransport:
    def test_streaming_round_trip_with_errors(self):
        async def scenario():
            service = DesignService()
            server = await service.start(port=0)
            port = server.sockets[0].getsockname()[1]
            payloads = [
                dict(CAMPAIGN, id="good"),
                {"v": 1, "id": "bad", "kind": "select", "params": {}},
            ]
            responses = [
                r async for r in submit_async(payloads, port=port)
            ]
            server.close()
            await server.wait_closed()
            return responses

        responses = asyncio.run(scenario())
        by_id = {r["id"]: r for r in responses}
        assert by_id["good"]["ok"]
        assert not by_id["bad"]["ok"]
        assert by_id["bad"]["error"]["type"] == "ContractError"

    def test_invalid_json_line_gets_an_error_envelope(self):
        async def scenario():
            service = DesignService()
            server = await service.start(port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"this is not json\n")
            await writer.drain()
            line = await reader.readline()
            writer.close()
            server.close()
            await server.wait_closed()
            return json.loads(line)

        response = asyncio.run(scenario())
        assert not response["ok"]
        assert "invalid JSON" in response["error"]["message"]

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_numbers_are_a_contract_error(self, token):
        """Python's json decodes NaN/Infinity; the wire must refuse them
        before ``parse_request`` sees a non-finite campaign rate."""
        line = json.dumps(CAMPAIGN).replace("0.05", token, 1)
        assert token in line

        async def scenario():
            service = DesignService()
            server = await service.start(port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(line.encode("utf-8") + b"\n")
            await writer.drain()
            response = await reader.readline()
            writer.close()
            server.close()
            await server.wait_closed()
            return json.loads(response)

        response = asyncio.run(scenario())
        assert not response["ok"]
        assert response["error"]["type"] == "ContractError"
        assert "non-finite" in response["error"]["message"]


class TestCrossProcessWarmStart:
    def test_second_process_does_zero_evaluations(self, tmp_path):
        """The acceptance bar: process 2 answers entirely from disk."""
        db = tmp_path / "evals.db"
        script = (
            "import asyncio, json, sys\n"
            "from repro.service import DesignService\n"
            "service = DesignService(cache_backend=f'sqlite:{sys.argv[1]}')\n"
            "request = json.loads(sys.argv[2])\n"
            "response = asyncio.run(service.handle(request))\n"
            "stats = service.engine.cache.stats\n"
            "print(json.dumps({'response': response,\n"
            "                  'hits': stats.hits, 'misses': stats.misses}))\n"
        )

        def run_once() -> dict:
            out = subprocess.run(
                [sys.executable, "-c", script, str(db), json.dumps(SELECT)],
                capture_output=True, text=True, timeout=300,
                env=_child_env(), check=True,
            )
            return json.loads(out.stdout)

        cold = run_once()
        warm = run_once()
        assert cold["response"]["ok"] and warm["response"]["ok"]
        assert cold["misses"] > 0 and cold["hits"] == 0
        assert warm["misses"] == 0  # zero evaluations in process 2
        assert warm["hits"] == cold["misses"]
        assert canonical(cold["response"]["result"]) == canonical(
            warm["response"]["result"]
        )


def _job(app, topology_name: str) -> EvaluationJob:
    topology = make_topology(topology_name, app.num_cores)
    return EvaluationJob(core_graph=app, topology=topology, tag=topology.name)


def _child_env() -> dict:
    import os

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env
