"""Simulator-kernel performance benchmark with a committed trajectory.

Measures the hot path of the integer-indexed kernel rewrite: simulated
cycles/sec of the wormhole simulator, both as pure-kernel burst drains
(packets pre-queued, ``step(None)`` only) and as open-loop runs with a
synthetic traffic generator attached. Whole ``run_sunmap`` flows are
timed by perfbench's ``paper_flows`` workload and
``bench_runtime_full_flow.py``, not here.

Results land in ``BENCH_kernel.json`` at the repo root:

* ``baseline`` — the pre-rewrite kernel, measured on the recording
  machine (kept verbatim so later changes have a trajectory to regress
  against);
* ``current`` — the numbers of the checked-out code on the last
  recording machine;
* ``speedup`` — current vs. baseline cycles/sec (geometric mean).

Usage::

    python benchmarks/bench_kernel.py            # full run, rewrites current
    python benchmarks/bench_kernel.py --smoke    # reduced budget (CI)
    python benchmarks/bench_kernel.py --smoke --check
        # exit 1 if cycles/sec regressed > 30% vs the committed current

``--check`` compares freshly measured cycles/sec against the committed
``current`` section *before* rewriting it, normalized by the recorded
machine-speed calibration (``harness.py``), so a kernel regression fails
CI while normal machine-to-machine variance does not.
"""

from __future__ import annotations

import sys
import time
from random import Random

import harness
from repro.simulation.network import Network, SimConfig
from repro.simulation.traffic import SyntheticTraffic
from repro.topology.library import make_topology

KERNEL_CASES = [
    # name, topology, cores, open-loop injection rate
    ("mesh16", "mesh", 16, 0.25),
    ("torus16", "torus", 16, 0.30),
    ("clos12", "clos", 12, 0.20),
]


def burst_drain(topo_name: str, n: int, bursts: int = 12,
                burst_size: int = 60, seed: int = 13) -> tuple[int, float]:
    """Pure-kernel throughput: inject a packet burst, drain, repeat.

    Packet creation happens between the timed segments, so the metric
    isolates the switch/flit kernel (no traffic-generator cost).
    """
    topo = make_topology(topo_name, n)
    net = Network(topo, SimConfig(seed=1))
    rng = Random(seed)
    slots = net.active_slots
    cycles = 0
    wall = 0.0
    for _ in range(bursts):
        for _ in range(burst_size):
            src, dst = rng.sample(slots, 2)
            net.create_packet(src, dst)
        start = time.perf_counter()
        before = net.cycle
        if not net.drain(max_cycles=100000):
            raise RuntimeError(f"{topo_name} burst failed to drain")
        wall += time.perf_counter() - start
        cycles += net.cycle - before
    return cycles, wall


def open_loop(topo_name: str, n: int, rate: float,
              cycles: int = 4000) -> tuple[int, float]:
    """End-to-end simulated cycles/sec with synthetic traffic attached."""
    topo = make_topology(topo_name, n)
    net = Network(topo, SimConfig(seed=2))
    traffic = SyntheticTraffic("uniform", rate, seed=4)
    start = time.perf_counter()
    net.run(cycles, traffic)
    net.drain(max_cycles=100000)
    wall = time.perf_counter() - start
    return net.cycle, wall


def measure(smoke: bool = False, reps: int = 2) -> dict:
    """Measure every workload; best-of-``reps`` to damp machine noise."""
    kernel = {}
    for name, topo, n, rate in KERNEL_CASES:
        if smoke and name != "mesh16":
            continue
        best_burst = 0.0
        best_open = 0.0
        for _ in range(1 if smoke else reps):
            cycles, wall = burst_drain(topo, n, bursts=4 if smoke else 12)
            best_burst = max(best_burst, cycles / wall)
            cycles, wall = open_loop(
                topo, n, rate, cycles=1500 if smoke else 4000
            )
            best_open = max(best_open, cycles / wall)
        kernel[name] = {
            "burst_cycles_per_sec": round(best_burst, 1),
            "open_loop_cycles_per_sec": round(best_open, 1),
        }
    return {
        "kernel": kernel,
        "calibration_ops_per_sec": harness.calibrate(),
    }


def _kernel_ratios(current: dict, reference: dict) -> list[float]:
    """Per-metric cycles/sec ratios for cases present in both runs."""
    ratios = []
    for case, metrics in current.get("kernel", {}).items():
        ref = reference.get("kernel", {}).get(case)
        if not ref:
            continue
        for metric, value in metrics.items():
            if metric in ref and ref[metric]:
                ratios.append(value / ref[metric])
    return ratios


def main(argv: list[str] | None = None) -> int:
    args = harness.parse_args(
        "kernel", __doc__, argv,
        smoke_help="reduced budget: one kernel case, single rep",
        check_help="exit 1 if cycles/sec regressed more than 30%% versus "
        "the committed BENCH_kernel.json",
    )
    committed = harness.load_committed("kernel")
    current = measure(smoke=args.smoke)

    check_failed = False
    if args.check and committed.get("current"):
        ratio = harness.geomean(_kernel_ratios(current, committed["current"]))
        if ratio is not None:
            check_failed = harness.gate(
                "cycles/sec", "kernel cycles/sec", ratio, current,
                committed["current"],
            )

    baseline = committed.get("baseline", {})
    speedup = harness.geomean(_kernel_ratios(current, baseline))
    record = {
        "schema": 1,
        "baseline": baseline,
        "current": current,
        "speedup": {
            "cycles_per_sec": None if speedup is None else round(speedup, 2),
        },
        "smoke": args.smoke,
    }
    harness.write_record(harness.output_path("kernel", args), record)

    for case, metrics in current["kernel"].items():
        line = "  ".join(f"{k}={v:,.0f}" for k, v in metrics.items())
        print(f"kernel {case:8s} {line}")
    if speedup is not None:
        print(
            f"speedup vs pre-rewrite baseline: "
            f"cycles/sec {record['speedup']['cycles_per_sec']}x"
        )
    return 1 if check_failed else 0


if __name__ == "__main__":
    sys.exit(main())
