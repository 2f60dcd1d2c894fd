"""Serialization (repro.io) and text rendering (repro.report)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapper import MapperConfig, map_onto
from repro.core.selector import select_topology
from repro.errors import CoreGraphError, TopologyError
from repro.floorplan.lp import floorplan_mapping
from repro.io import (
    core_graph_from_dict,
    core_graph_to_dict,
    custom_topology_from_dict,
    custom_topology_to_dict,
    load_core_graph,
    load_topology,
    save_core_graph,
    save_selection,
    save_topology,
    selection_to_dict,
)
from repro.report import (
    render_floorplan,
    render_mapping,
    selection_to_markdown,
)
from repro.topology.custom import MAX_LINK_MULT
from repro.topology.library import make_topology

FAST = MapperConfig(converge=False, swap_rounds=1)


class TestCoreGraphIO:
    def test_round_trip_preserves_everything(self, vopd_app):
        clone = core_graph_from_dict(core_graph_to_dict(vopd_app))
        assert clone.name == vopd_app.name
        assert clone.num_cores == vopd_app.num_cores
        assert clone.flows() == vopd_app.flows()
        for i in range(vopd_app.num_cores):
            assert clone.core(i).name == vopd_app.core(i).name
            assert clone.core(i).area_mm2 == vopd_app.core(i).area_mm2

    def test_file_round_trip(self, dsp_app, tmp_path):
        path = tmp_path / "dsp.json"
        save_core_graph(dsp_app, path)
        clone = load_core_graph(path)
        assert clone.flows() == dsp_app.flows()

    def test_defaults_filled_in(self):
        payload = {
            "name": "mini",
            "cores": [{"name": "a"}, {"name": "b"}],
            "flows": [{"src": "a", "dst": "b", "bandwidth_mb_s": 10.0}],
        }
        graph = core_graph_from_dict(payload)
        assert graph.core("a").area_mm2 == 2.0
        assert graph.core("a").is_soft

    def test_missing_field_rejected(self):
        with pytest.raises(CoreGraphError):
            core_graph_from_dict({"name": "x", "cores": [{}], "flows": []})

    @pytest.mark.parametrize(
        "change",
        [
            {"name": ["x"]},
            {"cores": 5},
            {"cores": ["a"]},
            {"cores": [{"name": "a", "area_mm2": "big"}, {"name": "b"}]},
            {"cores": [{"name": "a", "is_soft": "yes"}, {"name": "b"}]},
            {"cores": [{"name": "a", "power_mw": None}, {"name": "b"}]},
            {"flows": [{"src": "a", "dst": "b", "bandwidth_mb_s": "9"}]},
            {"flows": [{"src": "a", "dst": "b", "bandwidth_mb_s": 1e400}]},
            {"flows": [{"src": 0, "dst": "b", "bandwidth_mb_s": 9.0}]},
        ],
    )
    def test_wrongly_typed_field_rejected(self, change):
        payload = {
            "name": "mini",
            "cores": [{"name": "a"}, {"name": "b"}],
            "flows": [{"src": "a", "dst": "b", "bandwidth_mb_s": 10.0}],
            **change,
        }
        with pytest.raises(CoreGraphError):
            core_graph_from_dict(payload)

    def test_json_is_valid(self, tiny_app, tmp_path):
        path = tmp_path / "tiny.json"
        save_core_graph(tiny_app, path)
        payload = json.loads(path.read_text())
        assert payload["name"] == "tiny"
        assert len(payload["flows"]) == 4


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
class TestNonFiniteJsonRejected:
    """Python's json decodes NaN/Infinity; the file loaders must not."""

    def test_core_graph_file(self, tiny_app, tmp_path, token):
        path = tmp_path / "app.json"
        save_core_graph(tiny_app, path)
        text = path.read_text()
        path.write_text(text.replace("200.0", token, 1))
        assert token in path.read_text()
        with pytest.raises(CoreGraphError, match="non-finite"):
            load_core_graph(path)

    def test_topology_file(self, tmp_path, token):
        from repro.errors import TopologyError

        path = tmp_path / "fabric.json"
        path.write_text(
            '{"name": "f", "slot_switch": [0, 1], "links": [{"a": 0, "b": 1}],'
            f' "positions": {{"0": [0.0, {token}], "1": [1.0, 0.0]}}}}'
        )
        with pytest.raises(TopologyError, match="non-finite"):
            load_topology(path)

    def test_cli_reports_a_typed_error(self, tiny_app, tmp_path, capsys, token):
        from repro.cli import main

        path = tmp_path / "app.json"
        save_core_graph(tiny_app, path)
        path.write_text(path.read_text().replace("200.0", token, 1))
        assert main(["select", "--app-file", str(path)]) == 1
        assert "non-finite" in capsys.readouterr().err


def test_malformed_json_file_is_a_typed_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x", "cores": [')
    with pytest.raises(CoreGraphError, match="invalid core-graph JSON"):
        load_core_graph(path)


class TestTopologyIO:
    def _fabric(self):
        from repro.topology.custom import CustomTopology

        return CustomTopology(
            name="fab",
            slot_switch=[0, 0, 1, 2, 2],
            links=[(0, 1), (0, 1), (1, 2)],
            positions={0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 1.0)},
        )

    def test_round_trip_preserves_everything(self):
        topo = self._fabric()
        clone = custom_topology_from_dict(custom_topology_to_dict(topo))
        assert clone.name == topo.name
        assert clone.slot_switch == topo.slot_switch
        assert clone.link_multiplicity() == topo.link_multiplicity()
        assert clone.switch_positions() == topo.switch_positions()

    def test_file_round_trip_re_evaluates_identically(
        self, tiny_app, tmp_path
    ):
        """A saved synthesized fabric reloads and re-evaluates to the
        exact numbers of the original — no synthesis re-run needed."""
        from repro.synthesis import SynthesisConfig, synthesize_topologies

        result = synthesize_topologies(
            tiny_app,
            config=SynthesisConfig(
                strategies=("greedy",),
                concentrations=(2,),
                max_switch_degrees=(4,),
            ),
        )
        best = result.best
        assert best is not None
        path = tmp_path / "fabric.json"
        save_topology(best.topology, path)
        clone = load_topology(path)
        ev = map_onto(tiny_app, clone, routing="MP", objective="hops")
        assert ev.avg_hops == best.evaluation.avg_hops
        assert ev.power_mw == best.evaluation.power_mw
        assert ev.max_link_load == best.evaluation.max_link_load

    def test_missing_field_rejected(self):
        with pytest.raises(TopologyError):
            custom_topology_from_dict({"name": "x", "links": []})

    @pytest.mark.parametrize("mult", [MAX_LINK_MULT + 1, 0, -1])
    def test_link_multiplicity_out_of_bounds_rejected(self, mult):
        with pytest.raises(TopologyError, match="mult"):
            custom_topology_from_dict(
                {
                    "name": "fat",
                    "slot_switch": [0, 1],
                    "links": [{"a": 0, "b": 1, "mult": mult}],
                }
            )

    def test_link_multiplicity_at_the_bound_builds(self):
        topo = custom_topology_from_dict(
            {
                "name": "fat",
                "slot_switch": [0, 1],
                "links": [{"a": 0, "b": 1, "mult": MAX_LINK_MULT}],
            }
        )
        assert topo.link_multiplicity() == {(0, 1): MAX_LINK_MULT}

    def test_default_positions_allowed(self):
        clone = custom_topology_from_dict(
            {
                "name": "bare",
                "slot_switch": [0, 1],
                "links": [{"a": 0, "b": 1}],
            }
        )
        assert clone.num_slots == 2


#: Any value ``json.loads`` can return (huge literals decode to
#: infinities; NaN has no JSON literal).
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _or_junk(valid):
    """A well-formed field value, or any JSON value in its place."""
    return st.one_of(valid, JSON_VALUES)


NAMES = st.sampled_from(["a", "b", "c"])
CORE_GRAPH_DOCS = st.fixed_dictionaries(
    {
        "name": _or_junk(st.text(max_size=6)),
        "cores": _or_junk(st.lists(
            st.fixed_dictionaries(
                {"name": _or_junk(NAMES)},
                optional={
                    "area_mm2": _or_junk(st.floats(0.5, 8.0)),
                    "is_soft": _or_junk(st.booleans()),
                    "aspect_min": _or_junk(st.floats(0.2, 1.0)),
                    "aspect_max": _or_junk(st.floats(1.0, 5.0)),
                    "power_mw": _or_junk(st.floats(0.0, 50.0)),
                },
            ),
            max_size=4,
        )),
        "flows": _or_junk(st.lists(
            st.fixed_dictionaries({
                "src": _or_junk(NAMES),
                "dst": _or_junk(NAMES),
                "bandwidth_mb_s": _or_junk(st.floats(1.0, 500.0)),
            }),
            max_size=4,
        )),
    }
)
SWITCH_IDS = st.integers(0, 3)
TOPOLOGY_DOCS = st.fixed_dictionaries(
    {
        "name": _or_junk(st.text(max_size=6)),
        "slot_switch": _or_junk(st.lists(SWITCH_IDS, max_size=5)),
        "links": _or_junk(st.lists(
            st.fixed_dictionaries(
                {"a": _or_junk(SWITCH_IDS), "b": _or_junk(SWITCH_IDS)},
                optional={"mult": _or_junk(st.integers(1, 3))},
            ),
            max_size=5,
        )),
    },
    optional={
        "positions": _or_junk(st.dictionaries(
            SWITCH_IDS.map(str),
            st.tuples(st.floats(0, 4), st.floats(0, 4)).map(list),
            max_size=4,
        )),
    },
)
FUZZ = settings(max_examples=300, deadline=None)


class TestLoaderFuzz:
    """The JSON loaders are input boundaries: any decoded JSON value
    builds or raises the loader's typed error, never anything else."""

    @FUZZ
    @given(st.one_of(CORE_GRAPH_DOCS, JSON_VALUES))
    def test_core_graph_from_dict(self, payload):
        try:
            graph = core_graph_from_dict(payload)
        except CoreGraphError:
            return
        assert isinstance(graph.name, str)
        assert graph.num_cores >= 1

    @FUZZ
    @given(st.one_of(TOPOLOGY_DOCS, JSON_VALUES))
    def test_custom_topology_from_dict(self, payload):
        try:
            topology = custom_topology_from_dict(payload)
        except TopologyError:
            return
        assert isinstance(topology.name, str)
        assert all(
            1 <= mult <= MAX_LINK_MULT
            for mult in topology.link_multiplicity().values()
        )


class TestSelectionIO:
    def test_selection_dict_shape(self, tiny_app, tmp_path):
        selection = select_topology(tiny_app, routing="MP", config=FAST)
        payload = selection_to_dict(selection)
        assert payload["best"] == selection.best_name
        assert len(payload["rows"]) == 5
        path = tmp_path / "sel.json"
        save_selection(selection, path)
        assert json.loads(path.read_text())["routing"] == "MP"


class TestReport:
    def test_render_floorplan_contains_labels(self, dsp_app):
        topo = make_topology("mesh", 6)
        assignment = {i: i for i in range(6)}
        fp = floorplan_mapping(topo, assignment, dsp_app)
        text = render_floorplan(fp, dsp_app)
        assert "mm2" in text
        assert "arm" in text
        assert "#" in text and "+" in text

    def test_render_mapping(self, tiny_app):
        topo = make_topology("mesh", 4)
        ev = map_onto(tiny_app, topo, config=FAST)
        text = render_mapping(ev)
        assert "tiny on mesh-2x2" in text
        assert "avg hops" in text
        assert "c0" in text

    def test_selection_markdown(self, tiny_app):
        selection = select_topology(tiny_app, routing="MP", config=FAST)
        md = selection_to_markdown(selection)
        assert md.startswith("| topology |")
        assert "**x**" in md  # a winner is marked
        assert md.count("\n") >= 6


class TestCliIntegration:
    def test_select_from_app_file(self, tiny_app, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "app.json"
        save_core_graph(tiny_app, path)
        assert main(["select", "--app-file", str(path)]) == 0
        assert "best:" in capsys.readouterr().out

    def test_select_markdown_and_save(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "sel.json"
        assert main([
            "select", "--app", "dsp", "--capacity", "1000",
            "--markdown", "--save", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "| topology |" in text
        assert out.exists()

    def test_missing_app_is_an_error(self, capsys):
        from repro.cli import main

        assert main(["select"]) == 1
        assert "provide --app or --app-file" in capsys.readouterr().err
