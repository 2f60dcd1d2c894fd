"""CLI smoke and behaviour tests (each subcommand end to end)."""

import json

import pytest

from repro.cli import main
from repro.topology.custom import MAX_LINK_MULT


class TestListing:
    def test_apps(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        for name in ("vopd", "mpeg4", "dsp", "netproc"):
            assert name in out

    def test_topologies(self, capsys):
        assert main(["topologies", "--cores", "12"]) == 0
        out = capsys.readouterr().out
        assert "mesh-3x4" in out
        assert "butterfly-4ary2fly" in out

    def test_topologies_reports_unavailable(self, capsys):
        assert main(["topologies", "--cores", "16"]) == 0
        out = capsys.readouterr().out
        assert "octagon" in out and "not available" in out

    def test_library(self, capsys):
        assert main(["library", "--max-radix", "5"]) == 0
        out = capsys.readouterr().out
        assert "area mm2" in out and "5x" in out


class TestMapAndSelect:
    def test_map_dsp_mesh(self, capsys):
        assert main([
            "map", "--app", "dsp", "--topology", "mesh",
            "--capacity", "1000",
        ]) == 0
        out = capsys.readouterr().out
        assert "assignment:" in out
        assert "arm" in out

    def test_select_dsp(self, capsys):
        assert main([
            "select", "--app", "dsp", "--capacity", "1000",
        ]) == 0
        out = capsys.readouterr().out
        assert "best:" in out
        assert "butterfly" in out

    def test_select_with_fallback(self, capsys):
        assert main([
            "select", "--app", "dsp", "--fallback",
        ]) == 0
        out = capsys.readouterr().out
        assert "attempted" in out

    def test_select_fallback_honours_save_and_markdown(
        self, capsys, tmp_path
    ):
        """dsp is infeasible under MP at 500 MB/s: the escalated
        selection is the one printed as markdown and saved."""
        path = tmp_path / "sel.json"
        assert main([
            "select", "--app", "dsp", "--fallback", "--markdown",
            "--save", str(path),
        ]) == 0
        out = capsys.readouterr().out
        saved = json.loads(path.read_text())
        assert saved["routing"] != "MP"
        assert saved["best"] is not None
        assert "| topology |" in out
        assert f"best: {saved['best']}\n" in out
        assert f"selection saved to {path}" in out

    @pytest.mark.parametrize("app", ["vopd", "dsp"])
    def test_select_independent_of_hash_seed(self, app):
        """Selection output must not depend on string-hash order: graph
        ids, quadrants and every float sum follow graph order, never a
        set's iteration order."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = (
                str(src) + os.pathsep + env.get("PYTHONPATH", "")
            )
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "select", "--app", app],
                capture_output=True, text=True, timeout=300, env=env,
                check=True,
            )
            outputs.append(proc.stdout)
        assert "best:" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_select_runs_without_scipy(self):
        """scipy is a test-only dependency: a floorplanning selection
        runs, and prints the same, with every scipy import blocked."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        argv = ["select", "--app", "vopd", "--objective", "power"]
        blocked = (
            "import runpy, sys\n"
            "sys.modules['scipy'] = None\n"
            f"sys.argv = ['repro.cli'] + {argv!r}\n"
            "runpy.run_module('repro.cli', run_name='__main__')\n"
        )
        outputs = [
            subprocess.run(
                cmd, capture_output=True, text=True, timeout=300, env=env,
                check=True,
            ).stdout
            for cmd in (
                [sys.executable, "-c", blocked],
                [sys.executable, "-m", "repro.cli", *argv],
            )
        ]
        assert "best:" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_bad_app_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["select", "--app", "doom"])

    def test_map_requires_topology_or_file(self, capsys):
        assert main(["map", "--app", "dsp"]) == 1
        assert "--topology" in capsys.readouterr().err


class TestRejectedValues:
    """Values the library refuses when a config or cache is built: the
    CLI reports each with exit 1 and a one-line error."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["synthesize", "--fault-tolerance", "-1"],
            ["synthesize", "--strategies", "bogus"],
            ["synthesize", "--max-candidates", "0"],
            ["synthesize", "--concentrations", "0"],
            ["synthesize", "--degrees", "0"],
            ["synthesize", "--degrees", str(MAX_LINK_MULT + 1)],
            ["select", "--capacity", "-5"],
            ["select", "--capacity", "nan"],
            ["select", "--cache", "foo:bar"],
            ["select", "--cache", "store"],
        ],
    )
    def test_exit_1_with_one_line_error(
        self, argv, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(argv[:1] + ["--app", "vopd"] + argv[1:]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []  # no store was created


class TestSynthesize:
    def test_synthesize_dsp(self, capsys):
        assert main(["synthesize", "--app", "dsp"]) == 0
        out = capsys.readouterr().out
        assert "syn-" in out
        assert "best:" in out

    def test_synthesize_save_and_reuse(self, capsys, tmp_path):
        path = tmp_path / "fabric.json"
        assert main([
            "synthesize", "--app", "vopd", "--save-topology", str(path),
            "--strategies", "greedy", "--concentrations", "4",
            "--degrees", "4",
        ]) == 0
        assert path.exists()
        capsys.readouterr()
        # The saved fabric maps and generates without re-synthesis.
        assert main([
            "map", "--app", "vopd", "--topology-file", str(path),
        ]) == 0
        assert "assignment:" in capsys.readouterr().out
        assert main([
            "generate", "--app", "vopd", "--topology-file", str(path),
        ]) == 0
        assert "sc_main" in capsys.readouterr().out

    def test_select_synthesize_races_library(self, capsys):
        assert main([
            "select", "--app", "vopd", "--synthesize", "--jobs", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "mesh-3x4" in out  # library still in the table
        assert "syn-" in out      # synthesized candidates race it

    def test_select_topology_file_joins_library(self, capsys, tmp_path):
        path = tmp_path / "fabric.json"
        assert main([
            "synthesize", "--app", "dsp", "--save-topology", str(path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "select", "--app", "dsp", "--capacity", "1000",
            "--topology-file", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "butterfly" in out and "syn-" in out


class TestSimulateAndGenerate:
    def test_simulate(self, capsys):
        assert main([
            "simulate", "--app", "netproc", "--topology", "clos",
            "--rate", "0.1", "--cycles", "800", "--warmup", "200",
            "--drain", "800",
        ]) == 0
        out = capsys.readouterr().out
        assert "avg latency" in out

    def test_simulate_named_pattern(self, capsys):
        assert main([
            "simulate", "--app", "netproc", "--topology", "mesh",
            "--rate", "0.05", "--pattern", "uniform",
            "--cycles", "600", "--warmup", "200", "--drain", "600",
        ]) == 0
        assert "mesh" in capsys.readouterr().out

    def test_simulate_campaign(self, capsys):
        assert main([
            "simulate", "--app", "dsp", "--topology", "mesh",
            "--rates", "0.1,0.4", "--patterns", "app,uniform",
            "--seeds", "1", "--cycles", "600", "--warmup", "200",
            "--drain", "600", "--jobs", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "campaign: dsp-filter" in out
        assert "saturation rates" in out

    def test_simulate_campaign_markdown(self, capsys):
        assert main([
            "simulate", "--app", "dsp", "--topology", "mesh",
            "--rates", "0.1", "--patterns", "uniform,adversarial",
            "--cycles", "400", "--warmup", "100", "--drain", "400",
            "--markdown",
        ]) == 0
        out = capsys.readouterr().out
        assert "| pattern |" in out
        assert "bit_reverse" in out  # mesh's adversarial permutation

    def test_simulate_campaign_bad_rates(self, capsys):
        code = main([
            "simulate", "--app", "dsp", "--topology", "mesh",
            "--rates", "0.4,0.1",
        ])
        assert code == 1
        assert "increasing" in capsys.readouterr().err

    def test_simulate_campaign_rate_above_one(self, capsys):
        code = main([
            "simulate", "--app", "dsp", "--topology", "mesh",
            "--rates", "0.5,5",
        ])
        assert code == 1
        assert "(0, 1]" in capsys.readouterr().err

    def test_simulate_campaign_default_protocol(self, monkeypatch, capsys):
        """Without cycle flags a CLI campaign measures with
        CampaignConfig's protocol, like a service campaign."""
        import repro.simulation.campaign as campaign_module
        from repro.simulation.campaign import CampaignConfig

        seen = []

        class Result:
            def summary(self):
                return "stub"

        def fake_run_campaign(topology, config, **kwargs):
            seen.append(config)
            return Result()

        monkeypatch.setattr(campaign_module, "run_campaign", fake_run_campaign)
        assert main([
            "simulate", "--app", "dsp", "--topology", "mesh",
            "--rates", "0.1",
        ]) == 0
        default = CampaignConfig()
        (config,) = seen
        assert (config.warmup, config.measure, config.drain) == (
            default.warmup, default.measure, default.drain
        )

    def test_simulate_campaign_malformed_rates(self, capsys):
        code = main([
            "simulate", "--app", "dsp", "--topology", "mesh",
            "--rates", "0.1,abc",
        ])
        assert code == 1
        assert "comma-separated" in capsys.readouterr().err

    def test_simulate_campaign_adversarial_alias_deduped(self, capsys):
        # On mesh, 'adversarial' resolves to bit_reverse; listing both
        # must not double-count the pattern.
        assert main([
            "simulate", "--app", "dsp", "--topology", "mesh",
            "--rates", "0.1", "--patterns", "bit_reverse,adversarial",
            "--cycles", "400", "--warmup", "100", "--drain", "400",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("bit_reverse ") == 1  # one curve row, not two

    def test_generate_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "dsp.cpp"
        assert main([
            "generate", "--app", "dsp", "--topology", "butterfly",
            "--capacity", "1000", "--output", str(out_file),
        ]) == 0
        assert out_file.exists()
        text = out_file.read_text()
        assert "sc_main" in text

    def test_generate_infeasible_returns_error(self, capsys):
        code = main([
            "generate", "--app", "mpeg4", "--topology", "butterfly",
            "--capacity", "500",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_explore_dsp(self, capsys):
        assert main([
            "explore", "--app", "dsp", "--topology", "mesh",
            "--capacity", "1000",
        ]) == 0
        out = capsys.readouterr().out
        assert "DO" in out and "SA" in out
        assert "Pareto" in out


class TestSubmitInput:
    """``sunmap submit`` decodes its input without reaching a server."""

    REQUESTS = [
        {"v": 1, "id": "a", "kind": "health", "params": {}},
        {"v": 1, "id": "b", "kind": "select", "params": {"app": "vopd"}},
    ]

    @pytest.fixture
    def sent(self, monkeypatch):
        calls = []

        def fake_submit(payloads, host, port):
            calls.append(payloads)
            return [{"id": p.get("id"), "ok": True} for p in payloads]

        monkeypatch.setattr("repro.service.submit", fake_submit)
        return calls

    def submit_text(self, tmp_path, text):
        path = tmp_path / "requests.json"
        path.write_text(text, encoding="utf-8")
        return main(["submit", "--file", str(path), "--compact"])

    @pytest.mark.parametrize("indent", [None, 0, 2])
    def test_json_array(self, tmp_path, sent, indent):
        # indent=0 puts every object at column 0, so the text contains
        # "\n{" although it is one JSON array, not JSON-lines.
        text = json.dumps(self.REQUESTS, indent=indent)
        assert self.submit_text(tmp_path, text) == 0
        assert sent == [self.REQUESTS]

    def test_single_object(self, tmp_path, sent):
        text = json.dumps(self.REQUESTS[0], indent=0)
        assert self.submit_text(tmp_path, text) == 0
        assert sent == [self.REQUESTS[:1]]

    def test_json_lines(self, tmp_path, sent):
        text = "\n".join(json.dumps(r) for r in self.REQUESTS) + "\n"
        assert self.submit_text(tmp_path, text) == 0
        assert sent == [self.REQUESTS]

    @pytest.mark.parametrize("text", [
        '[{"v": 1, "kind": "campaign", "params": {"rates": [NaN]}}]',
        '{"v": 1, "kind": "health", "params": {}}\n'
        '{"v": 1, "kind": "campaign", "params": {"rates": [Infinity]}}',
    ])
    def test_non_finite_is_a_one_line_error(self, tmp_path, sent, capsys,
                                            text):
        assert self.submit_text(tmp_path, text) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid request JSON: non-finite")
        assert err.count("\n") == 1
        assert sent == []

    def test_malformed_is_a_one_line_error(self, tmp_path, sent, capsys):
        assert self.submit_text(tmp_path, '[{"v": 1,') == 1
        assert capsys.readouterr().err.startswith(
            "error: invalid request JSON:"
        )
        assert sent == []
