"""JSON serialization for applications, topologies and selection results.

Lets users describe their SoC outside Python and feed it to the CLI
(``sunmap select --app-file my_soc.json``), lets tools consume selection
outcomes programmatically, and lets synthesized custom fabrics be saved,
reloaded and re-evaluated without re-running synthesis
(``sunmap synthesize --save-topology fabric.json`` then
``sunmap map --topology-file fabric.json``).

Core-graph schema::

    {
      "name": "my-soc",
      "cores": [
        {"name": "cpu", "area_mm2": 4.0, "is_soft": true,
         "aspect_min": 0.33, "aspect_max": 3.0, "power_mw": 0.0},
        ...
      ],
      "flows": [
        {"src": "cpu", "dst": "mem", "bandwidth_mb_s": 400.0},
        ...
      ]
    }

Custom-topology schema (parallel channels carried as ``mult``, from 1
to :data:`~repro.topology.custom.MAX_LINK_MULT`)::

    {
      "name": "syn-greedy-s3c4d4",
      "slot_switch": [0, 0, 1, 1, 2],
      "links": [{"a": 0, "b": 1, "mult": 2}, {"a": 1, "b": 2}],
      "positions": {"0": [0.0, 0.0], "1": [1.0, 0.0], "2": [0.0, 1.0]}
    }
"""

from __future__ import annotations

import json

from repro.core.coregraph import CoreGraph
from repro.core.selector import SelectionResult
from repro.errors import CoreGraphError, ReproError, TopologyError
from repro.topology.custom import MAX_LINK_MULT, CustomTopology


def reject_non_finite(token: str):
    """``parse_constant`` hook refusing ``NaN``/``Infinity``/``-Infinity``.

    Python's :mod:`json` decodes those non-standard tokens by default;
    every input boundary passes this hook so they fail at decode time.
    """
    raise ValueError(f"non-finite number {token} is not valid JSON")


def _load_json(path, error: type[ReproError], what: str):
    """Decode a JSON input file, raising ``error`` on malformed JSON."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle, parse_constant=reject_non_finite)
        except ValueError as exc:
            raise error(f"invalid {what} JSON in {path}: {exc}") from None


def core_graph_to_dict(graph: CoreGraph) -> dict:
    """Serializable description of an application."""
    return {
        "name": graph.name,
        "cores": [
            {
                "name": core.name,
                "area_mm2": core.area_mm2,
                "is_soft": core.is_soft,
                "aspect_min": core.aspect_min,
                "aspect_max": core.aspect_max,
                "power_mw": core.power_mw,
            }
            for core in graph.cores
        ],
        "flows": [
            {
                "src": graph.core(src).name,
                "dst": graph.core(dst).name,
                "bandwidth_mb_s": bandwidth,
            }
            for (src, dst), bandwidth in sorted(graph.flows().items())
        ],
    }


_JSON_TYPE_NAMES = {str: "string", bool: "boolean", float: "number"}

#: Optional per-core fields and their JSON types; an absent field takes
#: :meth:`~repro.core.coregraph.CoreGraph.add_core`'s default.
_CORE_FIELDS = {
    "area_mm2": float, "is_soft": bool, "aspect_min": float,
    "aspect_max": float, "power_mw": float,
}


def _typed(value, kind: type, what: str):
    """``value`` if it has JSON type ``kind`` (``float`` = any number)."""
    ok = isinstance(value, (int, float) if kind is float else kind)
    if not ok or (kind is not bool and isinstance(value, bool)):
        raise TypeError(
            f"{what} must be a {_JSON_TYPE_NAMES[kind]}, got {value!r}"
        )
    return value


def core_graph_from_dict(payload: dict) -> CoreGraph:
    """Rebuild an application from its dict form (validates).

    Any malformed document — a missing field, a value of the wrong JSON
    type, an invalid graph — raises :class:`CoreGraphError`.
    """
    try:
        graph = CoreGraph(_typed(payload["name"], str, "name"))
        for core in payload["cores"]:
            graph.add_core(
                _typed(core["name"], str, "core name"),
                **{
                    field: _typed(core[field], kind, field)
                    for field, kind in _CORE_FIELDS.items()
                    if field in core
                },
            )
        for flow in payload["flows"]:
            graph.add_flow(
                _typed(flow["src"], str, "flow src"),
                _typed(flow["dst"], str, "flow dst"),
                _typed(flow["bandwidth_mb_s"], float, "bandwidth_mb_s"),
            )
    except KeyError as exc:
        raise CoreGraphError(f"missing field in core-graph JSON: {exc}") from None
    except (TypeError, OverflowError) as exc:
        raise CoreGraphError(f"malformed core-graph JSON: {exc}") from None
    graph.validate()
    return graph


def save_core_graph(graph: CoreGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(core_graph_to_dict(graph), handle, indent=2)


def load_core_graph(path) -> CoreGraph:
    return core_graph_from_dict(_load_json(path, CoreGraphError, "core-graph"))


def custom_topology_to_dict(topology: CustomTopology) -> dict:
    """Serializable description of an explicit switch fabric."""
    return {
        "name": topology.name,
        "slot_switch": topology.slot_switch,
        "links": [
            {"a": a, "b": b, "mult": mult}
            for (a, b), mult in sorted(topology.link_multiplicity().items())
        ],
        "positions": {
            str(sid): [x, y]
            for sid, (x, y) in sorted(topology.switch_positions().items())
        },
    }


def custom_topology_from_dict(payload: dict) -> CustomTopology:
    """Rebuild a custom fabric from its dict form (validates).

    Round-trips :func:`custom_topology_to_dict` exactly: the rebuilt
    topology has the same name, slots, channel multiplicities and switch
    positions, so re-evaluating it reproduces the original results.
    """
    try:
        links: list[tuple[int, int]] = []
        for link in payload["links"]:
            pair = (int(link["a"]), int(link["b"]))
            mult = int(link.get("mult", 1))
            if not 1 <= mult <= MAX_LINK_MULT:
                raise TopologyError(
                    f"link {pair} mult must be in [1, {MAX_LINK_MULT}], "
                    f"got {mult}"
                )
            links.extend([pair] * mult)
        positions = {
            int(sid): (float(xy[0]), float(xy[1]))
            for sid, xy in (payload.get("positions") or {}).items()
        }
        return CustomTopology(
            name=_typed(payload["name"], str, "name"),
            slot_switch=[int(s) for s in payload["slot_switch"]],
            links=links,
            positions=positions or None,
        )
    except KeyError as exc:
        raise TopologyError(
            f"missing field in topology JSON: {exc}"
        ) from None
    except (TypeError, ValueError, IndexError, AttributeError,
            OverflowError) as exc:
        raise TopologyError(f"malformed topology JSON: {exc}") from None


def save_topology(topology: CustomTopology, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(custom_topology_to_dict(topology), handle, indent=2)


def load_topology(path) -> CustomTopology:
    return custom_topology_from_dict(_load_json(path, TopologyError, "topology"))


def selection_to_dict(selection: SelectionResult) -> dict:
    """Serializable selection outcome (summary rows + winner)."""
    return {
        "objective": selection.objective_name,
        "routing": selection.routing_code,
        "best": selection.best_name,
        "synthesized": list(selection.synthesized),
        "rows": selection.table(),
    }


def save_selection(selection: SelectionResult, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(selection_to_dict(selection), handle, indent=2)
