"""The JSON contract: validation, normalization, fingerprints.

Every rule asserted here is documented in ``docs/SERVICE_API.md``; the
two are maintained in lockstep.
"""

from __future__ import annotations

import pytest

from repro.errors import ContractError, ReproError, ServiceError
from repro.service.contract import (
    CONTRACT_VERSION,
    MAX_CORES,
    MAX_CYCLES,
    MAX_FAULTS,
    MAX_SWEEP_ITEMS,
    DesignResponse,
    error_response,
    parse_request,
    validate,
)


def select_payload(**params) -> dict:
    params.setdefault("app", "vopd")
    return {"v": CONTRACT_VERSION, "kind": "select", "params": params}


class TestValidator:
    def test_type_checks(self):
        validate({"a": 1}, {"type": "object"})
        with pytest.raises(ContractError, match=r"\$: expected object"):
            validate([], {"type": "object"})

    def test_bool_is_not_a_number(self):
        with pytest.raises(ContractError, match="expected integer"):
            validate(True, {"type": "integer"})
        with pytest.raises(ContractError, match="expected number"):
            validate(False, {"type": "number"})

    def test_enum_and_const(self):
        with pytest.raises(ContractError, match="not one of"):
            validate("x", {"enum": ["a", "b"]})
        with pytest.raises(ContractError, match="must be 1"):
            validate(2, {"const": 1})

    def test_numeric_bounds(self):
        with pytest.raises(ContractError, match="below the minimum"):
            validate(0, {"type": "integer", "minimum": 1})
        with pytest.raises(ContractError, match="greater than"):
            validate(0.0, {"type": "number", "exclusiveMinimum": 0})

    def test_maximum(self):
        validate(1.0, {"type": "number", "maximum": 1})
        with pytest.raises(ContractError, match="above the maximum"):
            validate(1.5, {"type": "number", "maximum": 1})

    def test_object_rules_name_the_path(self):
        schema = {
            "type": "object",
            "required": ["a"],
            "additionalProperties": False,
            "properties": {"a": {"type": "string"}},
        }
        with pytest.raises(ContractError, match=r"\$\.p: missing required"):
            validate({"p": {}}, {"properties": {"p": schema}})
        with pytest.raises(ContractError, match="unknown field"):
            validate({"a": "x", "zz": 1}, schema)

    def test_array_rules(self):
        schema = {"type": "array", "minItems": 1, "items": {"type": "integer"}}
        with pytest.raises(ContractError, match="at least 1"):
            validate([], schema)
        with pytest.raises(ContractError, match=r"\$\[1\]"):
            validate([1, "x"], schema)

    def test_max_items(self):
        schema = {"type": "array", "maxItems": 2}
        validate([1, 2], schema)
        with pytest.raises(ContractError, match="at most 2"):
            validate([1, 2, 3], schema)


def campaign_payload(**params) -> dict:
    params.setdefault("app", "vopd")
    params.setdefault("topology", "mesh")
    return {"v": CONTRACT_VERSION, "kind": "campaign", "params": params}


class TestCampaignBounds:
    """No campaign can ask for unbounded simulation work."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("warmup", MAX_CYCLES + 1, r"\.warmup: .*above the maximum"),
            ("measure", MAX_CYCLES + 1, r"\.measure: .*above the maximum"),
            ("drain", MAX_CYCLES + 1, r"\.drain: .*above the maximum"),
            ("cores", MAX_CORES + 1, r"\.cores: .*above the maximum"),
            ("faults", MAX_FAULTS + 1, r"\.faults: .*above the maximum"),
            ("rates", [0.1] * (MAX_SWEEP_ITEMS + 1), r"\.rates: .*at most"),
            (
                "patterns",
                ["uniform"] * (MAX_SWEEP_ITEMS + 1),
                r"\.patterns: .*at most",
            ),
            ("seeds", [1] * (MAX_SWEEP_ITEMS + 1), r"\.seeds: .*at most"),
            (
                "fault_seeds",
                [1] * (MAX_SWEEP_ITEMS + 1),
                r"\.fault_seeds: .*at most",
            ),
        ],
    )
    def test_bound_exceeded_is_a_contract_error(self, field, value, message):
        with pytest.raises(ContractError, match=message):
            parse_request(campaign_payload(**{field: value}))

    def test_bounds_are_inclusive(self):
        request = parse_request(
            campaign_payload(
                warmup=MAX_CYCLES,
                measure=MAX_CYCLES,
                drain=MAX_CYCLES,
                faults=MAX_FAULTS,
                rates=[0.1] * MAX_SWEEP_ITEMS,
                seeds=list(range(MAX_SWEEP_ITEMS)),
            )
        )
        assert request.params["measure"] == MAX_CYCLES

    def test_typical_campaign_stays_valid(self):
        request = parse_request(
            campaign_payload(
                measure=800,
                seeds=[1],
                patterns=["app", "uniform"],
                sim_engine="batch",
            )
        )
        assert request.params["patterns"] == ["app", "uniform"]


class TestParseRequest:
    def test_defaults_are_normalized_in(self):
        request = parse_request(select_payload())
        assert request.params["routing"] == "MP"
        assert request.params["objective"] == "hops"
        assert request.params["fallback"] is True
        assert request.cache == "default"

    def test_fingerprint_is_spelling_invariant(self):
        bare = parse_request(select_payload())
        spelled = parse_request(
            select_payload(routing="MP", objective="hops")
        )
        assert bare.fingerprint() == spelled.fingerprint()

    def test_fingerprint_ignores_id_and_cache(self):
        a = parse_request({**select_payload(), "id": "a", "cache": "refresh"})
        b = parse_request({**select_payload(), "id": "b"})
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_differs_on_params(self):
        a = parse_request(select_payload(routing="MP"))
        b = parse_request(select_payload(routing="DO"))
        assert a.fingerprint() != b.fingerprint()

    def test_wrong_version_rejected(self):
        with pytest.raises(ContractError, match=r"\$\.v"):
            parse_request({"v": 99, "kind": "select", "params": {}})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractError, match=r"\$\.kind"):
            parse_request(
                {"v": CONTRACT_VERSION, "kind": "mystery", "params": {}}
            )

    def test_non_object_rejected(self):
        with pytest.raises(ContractError, match="JSON object"):
            parse_request(["not", "an", "object"])

    def test_unknown_param_rejected(self):
        with pytest.raises(ContractError, match="unknown field"):
            parse_request(select_payload(bogus=1))

    def test_select_needs_exactly_one_application(self):
        with pytest.raises(ContractError, match="exactly one"):
            parse_request(
                {"v": CONTRACT_VERSION, "kind": "select", "params": {}}
            )
        with pytest.raises(ContractError, match="exactly one"):
            parse_request(
                select_payload(core_graph={"name": "x", "cores": [],
                                           "flows": []})
            )

    def test_campaign_needs_exactly_one_topology(self):
        base = {"v": CONTRACT_VERSION, "kind": "campaign"}
        with pytest.raises(ContractError, match="exactly one of 'topology'"):
            parse_request({**base, "params": {"app": "vopd"}})

    def test_campaign_library_topology_needs_a_size(self):
        with pytest.raises(ContractError, match="needs a size"):
            parse_request(
                {
                    "v": CONTRACT_VERSION,
                    "kind": "campaign",
                    "params": {"topology": "mesh", "patterns": ["uniform"]},
                }
            )

    def test_campaign_app_pattern_needs_an_application(self):
        with pytest.raises(ContractError, match="'app' trace pattern"):
            parse_request(
                {
                    "v": CONTRACT_VERSION,
                    "kind": "campaign",
                    "params": {
                        "topology": "mesh",
                        "cores": 9,
                        "patterns": ["app"],
                    },
                }
            )

    def test_campaign_rate_above_one_rejected(self):
        """Rates are flits/cycle/node: above 1 means nothing."""
        with pytest.raises(ContractError, match=r"rates\[1\].*maximum"):
            parse_request(
                {
                    "v": CONTRACT_VERSION,
                    "kind": "campaign",
                    "params": {
                        "app": "vopd", "topology": "mesh",
                        "rates": [0.5, 5.0],
                    },
                }
            )

    def test_invalid_cache_control_rejected(self):
        with pytest.raises(ContractError, match=r"\$\.cache"):
            parse_request({**select_payload(), "cache": "always"})


class TestResponses:
    def test_result_xor_error(self):
        ok = DesignResponse(kind="select", request_id="a", result={"x": 1})
        payload = ok.to_dict()
        assert payload["ok"] is True
        assert payload["result"] == {"x": 1}
        assert "error" not in payload

        bad = error_response("select", "a", ContractError("boom"))
        payload = bad.to_dict()
        assert payload["ok"] is False
        assert payload["error"] == {"type": "ContractError", "message": "boom"}
        assert "result" not in payload

    def test_error_type_names_follow_the_hierarchy(self):
        assert issubclass(ContractError, ServiceError)
        assert issubclass(ServiceError, ReproError)
        response = error_response(None, None, ValueError("x"))
        assert response.kind == "unknown"
        assert response.error["type"] == "ValueError"
