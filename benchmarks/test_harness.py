"""Tests of the shared benchmark scaffold (``harness.py``); nothing is timed.

Run from the repository root with::

    PYTHONPATH=src python -m pytest benchmarks/test_harness.py -q
"""

from __future__ import annotations

import json
import math

import pytest

import harness

CAL = {"calibration_ops_per_sec": 100.0}


@pytest.fixture
def root(tmp_path, monkeypatch):
    """Point the harness's repo root at an empty scratch directory."""
    monkeypatch.setattr(harness, "ROOT", tmp_path)
    return tmp_path


def parse(*argv):
    return harness.parse_args("x", "Doc line.\nMore.", list(argv),
                              smoke_help="s", check_help="c")


class TestGate:
    def test_passes_at_exactly_the_floor(self, capsys):
        assert not harness.gate("ops/sec", "ops", 0.7, CAL, CAL)
        out = capsys.readouterr().out
        assert out == (
            "ops/sec vs committed: 0.70x raw, machine speed 1.00x, "
            "normalized 0.70x (gate: >= 0.7)\n"
        )

    def test_fails_just_below_the_floor(self, capsys):
        assert harness.gate("ops/sec", "ops", math.nextafter(0.7, 0), CAL, CAL)
        assert capsys.readouterr().out.endswith(
            "PERF REGRESSION: ops dropped >30%\n"
        )

    def test_normalizes_by_machine_speed(self, capsys):
        slow = {"calibration_ops_per_sec": 50.0}
        # Half the raw throughput on a machine half as fast is parity
        # with the floor's own arithmetic: 0.35 / 0.5 == 0.7.
        assert not harness.gate("ops/sec", "ops", 0.35, slow, CAL)
        assert harness.gate("ops/sec", "ops", 0.34, slow, CAL)
        assert "machine speed 0.50x, normalized 0.68x" in (
            capsys.readouterr().out
        )

    @pytest.mark.parametrize("current, reference", [
        ({}, CAL), (CAL, {}), ({}, {}),
    ])
    def test_without_calibration_gates_the_raw_ratio(
        self, capsys, current, reference
    ):
        assert not harness.gate("ops/sec", "ops", 0.7, current, reference)
        assert harness.gate("ops/sec", "ops", 0.69, current, reference)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "ops/sec vs committed: 0.70x "
            "(no calibration recorded; gate: >= 0.7)"
        )
        assert lines[-1] == "PERF REGRESSION: ops dropped >30%"


class TestGeomean:
    def test_empty_is_none(self):
        assert harness.geomean([]) is None

    def test_values(self):
        assert harness.geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert harness.geomean(iter([5.0])) == pytest.approx(5.0)


class TestArgsAndPaths:
    def test_flags_default_off(self):
        args = parse()
        assert (args.smoke, args.check, args.json) == (False, False, None)

    def test_no_other_options(self):
        with pytest.raises(SystemExit):
            parse("--output", "x.json")

    def test_default_path(self, root):
        assert harness.output_path("x", parse()) == root / "BENCH_x.json"
        assert (harness.output_path("x", parse("--check"))
                == root / "BENCH_x.json")

    def test_smoke_path(self, root):
        assert (harness.output_path("x", parse("--smoke", "--check"))
                == root / "BENCH_x.smoke.json")

    @pytest.mark.parametrize("smoke", [(), ("--smoke",)])
    def test_json_path_wins(self, root, tmp_path, smoke):
        target = tmp_path / "elsewhere" / "out.json"
        args = parse(*smoke, "--json", str(target))
        assert harness.output_path("x", args) == target


class TestRecords:
    def test_missing_committed_record_is_empty(self, root):
        assert harness.load_committed("x") == {}

    @pytest.mark.parametrize("argv", [
        ("--smoke",), ("--json", "redirect.json"),
        ("--smoke", "--json", "redirect.json"),
    ])
    def test_committed_record_is_always_bench_x_json(self, root, argv):
        (root / "BENCH_x.json").write_text('{"current": "committed"}')
        (root / "BENCH_x.smoke.json").write_text('{"current": "smoke"}')
        (root / "redirect.json").write_text('{"current": "redirect"}')
        args = parse(*[str(root / a) if a.endswith(".json") else a
                       for a in argv])
        out = harness.output_path("x", args)
        assert out != root / "BENCH_x.json"
        assert json.loads(out.read_text()) != {"current": "committed"}
        assert harness.load_committed("x") == {"current": "committed"}

    def test_write_record_round_trips(self, root, capsys):
        path = root / "out.json"
        record = {"b": [1, 2], "a": {"z": 1.5, "y": None}}
        harness.write_record(path, record)
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(record, indent=1, sort_keys=True) + "\n"
        assert json.loads(text) == record
        assert capsys.readouterr().out == f"wrote {path}\n"
