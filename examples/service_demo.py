"""Design service demo: one warm engine answering concurrent requests.

Starts an in-process :class:`repro.service.DesignService` backed by a
persistent SQLite cache (``<cache-dir>/evals.db``), fires a burst of
concurrent requests at it — including deliberate duplicates and one
invalid request — and shows what the service layer buys you:

* identical in-flight requests are computed **once** (the duplicates
  just await the first computation);
* results are served from the persistent store on the next run of this
  script (run it twice and compare the timings);
* every response is byte-identical to the equivalent direct library
  call, whatever the cache did.

Run:  PYTHONPATH=src python examples/service_demo.py [cache-dir]

CI runs this script twice in the smoke job, with the cache directory
restored from the previous CI run, and requires the second run to be a
warm start.
"""

import asyncio
import json
import sys
import time

from repro.service import DesignService

#: The burst: a select, the SAME select twice more (dedup), a synthesis
#: sweep, a campaign, and one request that violates the contract.
REQUESTS = [
    {"v": 1, "id": "select-1", "kind": "select",
     "params": {"app": "vopd", "objective": "hops"}},
    {"v": 1, "id": "select-2", "kind": "select",
     "params": {"app": "vopd", "objective": "hops"}},
    {"v": 1, "id": "select-3", "kind": "select",
     "params": {"app": "vopd", "objective": "hops", "routing": "MP"}},
    {"v": 1, "id": "synth-1", "kind": "synthesize",
     "params": {"app": "vopd", "strategies": ["greedy"],
                "concentrations": [3], "max_switch_degrees": [6],
                "max_candidates": 3}},
    {"v": 1, "id": "campaign-1", "kind": "campaign",
     "params": {"app": "vopd", "topology": "mesh",
                "rates": [0.05, 0.1], "patterns": ["app", "uniform"],
                "seeds": [1], "warmup": 50, "measure": 100, "drain": 50}},
    {"v": 1, "id": "broken-1", "kind": "select",
     "params": {"app": "vopd", "routing": "northwest"}},
]


def describe(response: dict) -> str:
    """One summary line per response."""
    rid = response["id"]
    flags = " (deduped)" if response.get("stats", {}).get("deduped") else ""
    if not response["ok"]:
        err = response["error"]
        return f"  {rid:12s} ERROR {err['type']}: {err['message'][:60]}"
    result = response["result"]
    if response["kind"] == "select":
        detail = f"best={result['selection']['best']}"
    elif response["kind"] == "synthesize":
        detail = f"best={result['best']}"
    else:
        curves = ", ".join(sorted(result["curves"]))
        detail = f"curves: {curves}"
    return f"  {rid:12s} ok    {detail}{flags}"


async def main() -> None:
    cache_dir = sys.argv[1] if len(sys.argv) > 1 else ".sunmap-cache"
    store = f"{cache_dir}/evals.db"
    service = DesignService(cache_backend=f"sqlite:{store}")
    print(f"design service with persistent cache at {store}")

    start = time.perf_counter()
    responses = await asyncio.gather(
        *(service.handle(request) for request in REQUESTS)
    )
    elapsed = time.perf_counter() - start

    print(f"\n{len(REQUESTS)} concurrent requests in {elapsed:.2f}s:")
    for response in responses:
        print(describe(response))

    stats = service.engine.cache.stats
    print(
        f"\ncomputed {service.computed} of {service.requests} requests "
        f"({service.inflight.deduped} deduped in flight); "
        f"cache: {stats}"
    )
    if stats.hits and not stats.misses:
        print("warm start: every result came from the persistent store")

    # select-1/2/3 are one computation — and identical bits.
    select = [r for r in responses if r["id"].startswith("select")]
    payloads = {json.dumps(r["result"], sort_keys=True) for r in select}
    assert len(payloads) == 1, "deduplicated responses must be identical"
    ok = sum(1 for r in responses if r["ok"])
    assert ok == len(REQUESTS) - 1, "exactly one request should fail"
    print("demo checks passed")


if __name__ == "__main__":
    asyncio.run(main())
