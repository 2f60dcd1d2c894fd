"""Shared scaffold of the gated benchmark scripts.

``bench_kernel``, ``bench_mapping``, ``bench_synthesis``,
``bench_batchsim`` and ``bench_obs`` each measure their own workload
and own their acceptance floors and record layout. Everything else
lives here, once:

* the ``--smoke`` / ``--check`` / ``--json`` command line and where the
  record is written (``BENCH_<name>.json`` at the repo root,
  ``BENCH_<name>.smoke.json`` under ``--smoke``, or ``--json PATH``);
* loading the committed record, which is always ``BENCH_<name>.json``
  wherever the fresh measurement goes;
* the machine-speed calibration and the calibration-normalized ratio
  gate (fail below :data:`MIN_CHECK_RATIO`);
* the JSON writer.

The scripts run as ``python benchmarks/bench_<name>.py`` and import this
module from their own directory.
"""

from __future__ import annotations

import argparse
import json
import math
import time
from pathlib import Path

#: Where the committed ``BENCH_<name>.json`` records live.
ROOT = Path(__file__).resolve().parent.parent

#: Acceptable calibration-normalized throughput ratio vs the committed
#: record before ``--check`` fails (a >30% regression).
MIN_CHECK_RATIO = 0.7


def calibrate(loops: int = 200_000, reps: int = 3) -> float:
    """Machine-speed proxy: ops/sec of a fixed pure-Python loop.

    Recorded next to every measurement and used by ``--check`` to
    normalize throughput across machines — CI runners are slower than
    the workstation that recorded the committed numbers, and comparing
    raw wall-clock throughput across machines would fail the gate
    without any code regression. The loop's mix (list indexing, dict
    gets, int arithmetic) roughly matches the simulator kernel's.
    """
    best = 0.0
    cells = list(range(64))
    table = {i: i + 1 for i in range(64)}
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        get = table.get
        for i in range(loops):
            j = i & 63
            acc += cells[j] + get(j, 0)
        wall = time.perf_counter() - start
        best = max(best, loops / wall)
    return round(best, 1)


def geomean(values) -> float | None:
    """Geometric mean of positive values; ``None`` when there are none."""
    values = list(values)
    if not values:
        return None
    return math.exp(sum(math.log(v) for v in values) / len(values))


def gate(metric: str, what: str, ratio: float, current: dict,
         reference: dict) -> bool:
    """Print the normalized ratio gate; True when it fails.

    ``ratio`` is fresh / committed raw throughput. It is divided by the
    machine-speed ratio of the two records' ``calibration_ops_per_sec``
    so the gate measures the code, not the runner hardware; a record
    without calibration is gated on the raw ratio.
    """
    committed_cal = reference.get("calibration_ops_per_sec")
    fresh_cal = current.get("calibration_ops_per_sec")
    if committed_cal and fresh_cal:
        machine = fresh_cal / committed_cal
        normalized = ratio / machine
        print(
            f"{metric} vs committed: {ratio:.2f}x raw, machine speed "
            f"{machine:.2f}x, normalized {normalized:.2f}x "
            f"(gate: >= {MIN_CHECK_RATIO})"
        )
    else:
        normalized = ratio
        print(
            f"{metric} vs committed: {ratio:.2f}x "
            f"(no calibration recorded; gate: >= {MIN_CHECK_RATIO})"
        )
    if normalized < MIN_CHECK_RATIO:
        print(f"PERF REGRESSION: {what} dropped >{1 - MIN_CHECK_RATIO:.0%}")
        return True
    return False


def parse_args(name: str, doc: str, argv, smoke_help: str,
               check_help: str) -> argparse.Namespace:
    """The ``--smoke`` / ``--check`` / ``--json`` flags every script takes."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help=smoke_help)
    parser.add_argument("--check", action="store_true", help=check_help)
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help=f"output path (default: BENCH_{name}.json at the repo root; "
        f"--smoke writes BENCH_{name}.smoke.json so a reduced-budget run "
        "never clobbers the committed record)",
    )
    return parser.parse_args(argv)


def output_path(name: str, args: argparse.Namespace) -> Path:
    """Where this run's record goes."""
    if args.json is not None:
        return Path(args.json)
    return ROOT / (f"BENCH_{name}.smoke.json" if args.smoke
                   else f"BENCH_{name}.json")


def load_committed(name: str) -> dict:
    """The committed ``BENCH_<name>.json`` record (``{}`` if absent)."""
    path = ROOT / f"BENCH_{name}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def write_record(path: Path, record: dict) -> None:
    """Write ``record`` as sorted, one-space-indented JSON and say where."""
    path.write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {path}")
