"""The design service's typed JSON request/response contract.

One request = one design question — "which topology for this app?"
(``select``), "what custom fabric suits it?" (``synthesize``) or "how
does this design behave under load?" (``campaign``) — wrapped in a
versioned envelope::

    {"v": 1, "id": "job-1", "kind": "select", "cache": "default",
     "params": {"app": "vopd", "routing": "MP", "objective": "hops"}}

Responses echo the envelope and carry either a ``result`` payload or an
``error`` object, never both. The full contract, with one worked example
per request kind, lives in ``docs/SERVICE_API.md`` — that document and
this module are maintained in lockstep.

Validation happens here, against :data:`ENVELOPE_SCHEMA` and the
per-kind :data:`PARAM_SCHEMAS` (JSON-Schema-shaped dicts checked by a
dependency-free validator), so malformed requests fail with a precise
:class:`~repro.errors.ContractError` before any engine work starts.
:func:`parse_request` normalizes a valid payload into a
:class:`DesignRequest` with every default applied; the normalized form
is what :meth:`DesignRequest.fingerprint` hashes, so two requests that
differ only in spelling (an omitted default vs. an explicit one) dedupe
to one computation in flight.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.errors import ContractError, RetryableError, ServiceBusyError

#: Contract version carried in every envelope; a request with another
#: version is rejected (the server cannot guess what its fields mean).
CONTRACT_VERSION = 1

#: Request kinds the service accepts. ``health`` is the operational
#: probe: no engine work, returns in-flight/budget/cache statistics.
#: ``metrics`` is its sibling: no engine work, returns the unified
#: metrics-registry snapshot (see ``docs/OBSERVABILITY.md``).
KINDS = ("select", "synthesize", "campaign", "health", "metrics")

#: Cache-control values: ``default`` serves warm results and joins
#: in-flight duplicates; ``refresh`` recomputes and overwrites warm
#: entries; ``bypass`` computes without reading or writing the shared
#: store (see docs/SERVICE_API.md, "Cache control").
CACHE_CONTROLS = ("default", "refresh", "bypass")

_ROUTINGS = ("DO", "MP", "SM", "SA")
_OBJECTIVES = ("hops", "area", "power", "bandwidth")

#: Upper bounds on a campaign's size, so no request can ask for
#: unbounded simulation work: cycles per phase (``warmup``, ``measure``,
#: ``drain``), cores of a synthetic application, faults per fault set,
#: and items per sweep axis (``rates``, ``patterns``, ``seeds``,
#: ``fault_seeds``).
MAX_CYCLES = 1_000_000
MAX_CORES = 1024
MAX_FAULTS = 64
MAX_SWEEP_ITEMS = 64

#: Schema of the request envelope (JSON-Schema draft-07 subset).
ENVELOPE_SCHEMA = {
    "type": "object",
    "required": ["v", "kind", "params"],
    "additionalProperties": False,
    "properties": {
        "v": {"const": CONTRACT_VERSION},
        "id": {"type": "string"},
        "kind": {"enum": list(KINDS)},
        "cache": {"enum": list(CACHE_CONTROLS)},
        "params": {"type": "object"},
    },
}

#: Shared application reference: exactly one of ``app`` (a built-in
#: benchmark name) or ``core_graph`` (an inline ``repro.io`` core-graph
#: document) — the exactly-one rule is enforced by :func:`parse_request`
#: (JSON-Schema ``oneOf`` is deliberately out of the validator subset).
_APP_PROPERTIES = {
    "app": {"type": "string"},
    "core_graph": {"type": "object"},
}

#: Per-kind ``params`` schemas.
PARAM_SCHEMAS = {
    "select": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            **_APP_PROPERTIES,
            "routing": {"enum": list(_ROUTINGS)},
            "objective": {"enum": list(_OBJECTIVES)},
            "link_capacity_mb_s": {
                "type": "number", "exclusiveMinimum": 0,
            },
            "fallback": {"type": "boolean"},
            "synthesize": {"type": "boolean"},
            "fault_tolerance": {"type": "integer", "minimum": 0},
        },
    },
    "synthesize": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            **_APP_PROPERTIES,
            "routing": {"enum": list(_ROUTINGS)},
            "objective": {"enum": list(_OBJECTIVES)},
            "link_capacity_mb_s": {
                "type": "number", "exclusiveMinimum": 0,
            },
            "strategies": {
                "type": "array", "minItems": 1,
                "items": {"type": "string"},
            },
            "concentrations": {
                "type": "array", "minItems": 1,
                "items": {"type": "integer", "minimum": 1},
            },
            "max_switch_degrees": {
                "type": "array", "minItems": 1,
                "items": {"type": "integer", "minimum": 1},
            },
            "max_candidates": {"type": "integer", "minimum": 1},
            "fault_tolerance": {"type": "integer", "minimum": 0},
        },
    },
    "campaign": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            **_APP_PROPERTIES,
            "topology": {"type": "string"},
            "custom_topology": {"type": "object"},
            "cores": {
                "type": "integer", "minimum": 2, "maximum": MAX_CORES,
            },
            "rates": {
                "type": "array", "minItems": 1, "maxItems": MAX_SWEEP_ITEMS,
                "items": {
                    "type": "number", "exclusiveMinimum": 0, "maximum": 1,
                },
            },
            "patterns": {
                "type": "array", "minItems": 1, "maxItems": MAX_SWEEP_ITEMS,
                "items": {"type": "string"},
            },
            "seeds": {
                "type": "array", "minItems": 1, "maxItems": MAX_SWEEP_ITEMS,
                "items": {"type": "integer"},
            },
            "warmup": {
                "type": "integer", "minimum": 0, "maximum": MAX_CYCLES,
            },
            "measure": {
                "type": "integer", "minimum": 1, "maximum": MAX_CYCLES,
            },
            "drain": {
                "type": "integer", "minimum": 0, "maximum": MAX_CYCLES,
            },
            "faults": {
                "type": "integer", "minimum": 0, "maximum": MAX_FAULTS,
            },
            "fault_seeds": {
                "type": "array", "minItems": 1, "maxItems": MAX_SWEEP_ITEMS,
                "items": {"type": "integer"},
            },
            "deadline_s": {"type": "number", "exclusiveMinimum": 0},
            "sim_engine": {"enum": ["exact", "batch"]},
        },
    },
    # The health probe takes no parameters (send "params": {}).
    "health": {
        "type": "object",
        "additionalProperties": False,
        "properties": {},
    },
    # The metrics probe likewise takes no parameters.
    "metrics": {
        "type": "object",
        "additionalProperties": False,
        "properties": {},
    },
}

#: Defaults applied by :func:`parse_request` (normalized into the
#: request, so fingerprints are spelling-independent). Campaign sweep
#: defaults intentionally mirror
#: :class:`~repro.simulation.campaign.CampaignConfig`.
PARAM_DEFAULTS = {
    "select": {
        "routing": "MP",
        "objective": "hops",
        "link_capacity_mb_s": 500.0,
        "fallback": True,
        "synthesize": False,
        "fault_tolerance": 0,
    },
    "synthesize": {
        "routing": "MP",
        "objective": "hops",
        "link_capacity_mb_s": 500.0,
        "strategies": ["greedy", "bisect", "bounded"],
        "concentrations": [2, 3, 4],
        "max_switch_degrees": [4, 6, 8],
        "max_candidates": 12,
        "fault_tolerance": 0,
    },
    "campaign": {
        "rates": [0.05, 0.1, 0.2, 0.35, 0.5, 0.7],
        "patterns": ["app", "uniform", "hotspot", "transpose"],
        "seeds": [1],
        "warmup": 500,
        "measure": 2000,
        "drain": 1500,
        "faults": 0,
        "fault_seeds": [1],
        # deadline_s intentionally has no default: absence means "run
        # the whole sweep", and a normalized default would change every
        # existing campaign fingerprint. sim_engine likewise: absence
        # means "exact", and normalizing it in would re-fingerprint
        # every pre-batch campaign request.
    },
    "health": {},
    "metrics": {},
}


# ---------------------------------------------------------------------------
# minimal JSON-Schema validator
# ---------------------------------------------------------------------------
_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def validate(value, schema: dict, path: str = "$") -> None:
    """Check ``value`` against a JSON-Schema subset; raise on violation.

    Supported keywords: ``type``, ``enum``, ``const``, ``required``,
    ``properties``, ``additionalProperties`` (boolean form), ``items``,
    ``minimum``, ``exclusiveMinimum``, ``maximum``, ``minItems``,
    ``maxItems``. That
    subset covers the whole contract; anything fancier belongs in
    :func:`parse_request`'s explicit checks, where the error message can
    say *why* the rule exists.

    Raises:
        ContractError: naming the offending path and constraint.
    """
    expected = schema.get("type")
    if expected is not None:
        py_type = _TYPES[expected]
        ok = isinstance(value, py_type)
        if ok and expected in ("integer", "number") and isinstance(value, bool):
            ok = False  # bool is an int subclass; JSON says it is not
        if not ok:
            raise ContractError(
                f"{path}: expected {expected}, got {type(value).__name__}"
            )
    if "const" in schema and value != schema["const"]:
        raise ContractError(
            f"{path}: must be {schema['const']!r}, got {value!r}"
        )
    if "enum" in schema and value not in schema["enum"]:
        raise ContractError(
            f"{path}: {value!r} is not one of {schema['enum']}"
        )
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            raise ContractError(
                f"{path}: {value} is below the minimum {schema['minimum']}"
            )
        if (
            "exclusiveMinimum" in schema
            and value <= schema["exclusiveMinimum"]
        ):
            raise ContractError(
                f"{path}: {value} must be greater than "
                f"{schema['exclusiveMinimum']}"
            )
        if "maximum" in schema and value > schema["maximum"]:
            raise ContractError(
                f"{path}: {value} is above the maximum {schema['maximum']}"
            )
    if isinstance(value, dict):
        for name in schema.get("required", ()):
            if name not in value:
                raise ContractError(f"{path}: missing required field {name!r}")
        properties = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            unknown = sorted(set(value) - set(properties))
            if unknown:
                raise ContractError(
                    f"{path}: unknown field(s) {unknown}; allowed: "
                    f"{sorted(properties)}"
                )
        for name, sub in properties.items():
            if name in value:
                validate(value[name], sub, f"{path}.{name}")
    if isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            raise ContractError(
                f"{path}: needs at least {schema['minItems']} item(s)"
            )
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            raise ContractError(
                f"{path}: allows at most {schema['maxItems']} item(s)"
            )
        items = schema.get("items")
        if items is not None:
            for i, item in enumerate(value):
                validate(item, items, f"{path}[{i}]")


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DesignRequest:
    """One validated, normalized design request.

    ``params`` has every contract default applied, so two requests that
    express the same work — with or without explicit defaults — are
    equal and share a :meth:`fingerprint`.
    """

    kind: str
    params: dict
    request_id: str | None = None
    cache: str = "default"
    v: int = CONTRACT_VERSION

    def fingerprint(self) -> str:
        """Content fingerprint used for in-flight request dedup.

        Hashes the canonical JSON of ``(v, kind, params)``; ``id`` is
        caller-chosen labelling and ``cache`` is delivery policy, so
        neither changes what is computed.
        """
        canonical = json.dumps(
            {"v": self.v, "kind": self.kind, "params": self.params},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def parse_request(payload: dict) -> DesignRequest:
    """Validate a raw request payload and normalize it.

    Checks the envelope against :data:`ENVELOPE_SCHEMA`, the params
    against the kind's :data:`PARAM_SCHEMAS` entry, applies
    :data:`PARAM_DEFAULTS`, and enforces the cross-field rules the
    schema subset cannot express (exactly one application reference;
    a campaign needs a topology, and its ``app`` pattern needs an
    application).

    Raises:
        ContractError: on any violation, naming the offending field.
    """
    if not isinstance(payload, dict):
        raise ContractError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    validate(payload, ENVELOPE_SCHEMA)
    kind = payload["kind"]
    params = dict(payload["params"])
    validate(params, PARAM_SCHEMAS[kind], path="$.params")
    normalized = {**PARAM_DEFAULTS[kind], **params}

    has_app = "app" in normalized
    has_inline = "core_graph" in normalized
    if kind in ("select", "synthesize"):
        if has_app == has_inline:
            raise ContractError(
                "$.params: provide exactly one of 'app' (built-in name) "
                "or 'core_graph' (inline document)"
            )
    elif kind == "campaign":
        if has_app and has_inline:
            raise ContractError(
                "$.params: provide at most one of 'app' and 'core_graph'"
            )
        has_topology = "topology" in normalized
        has_custom = "custom_topology" in normalized
        if has_topology == has_custom:
            raise ContractError(
                "$.params: provide exactly one of 'topology' (library "
                "name) or 'custom_topology' (inline document)"
            )
        if (
            has_topology
            and "cores" not in normalized
            and not (has_app or has_inline)
        ):
            raise ContractError(
                "$.params: a library 'topology' needs a size; add "
                "'cores' or an application ('app'/'core_graph')"
            )
        if "app" in normalized["patterns"] and not (has_app or has_inline):
            raise ContractError(
                "$.params.patterns: the 'app' trace pattern needs an "
                "application; add 'app' or 'core_graph', or drop the "
                "pattern"
            )
    return DesignRequest(
        kind=kind,
        params=normalized,
        request_id=payload.get("id"),
        cache=payload.get("cache", "default"),
    )


# ---------------------------------------------------------------------------
# responses
# ---------------------------------------------------------------------------
@dataclass
class DesignResponse:
    """One response envelope: ``result`` XOR ``error``.

    ``result`` is the deterministic payload — byte-identical to the
    equivalent direct :func:`~repro.sunmap.run_sunmap` /
    :func:`~repro.synthesis.synthesize_topologies` /
    :func:`~repro.simulation.campaign.run_campaign` call, asserted in
    tests. ``stats`` carries delivery metadata (timing, dedup) that
    legitimately varies between runs and is therefore kept out of
    ``result``.
    """

    kind: str
    request_id: str | None = None
    result: dict | None = None
    error: dict | None = None
    stats: dict = field(default_factory=dict)
    v: int = CONTRACT_VERSION

    @property
    def ok(self) -> bool:
        """Whether the request produced a result."""
        return self.error is None

    def to_dict(self) -> dict:
        """The JSON-ready envelope sent over the wire."""
        payload = {
            "v": self.v,
            "id": self.request_id,
            "kind": self.kind,
            "ok": self.ok,
        }
        if self.ok:
            payload["result"] = self.result
        else:
            payload["error"] = self.error
        if self.stats:
            payload["stats"] = self.stats
        return payload


def error_response(
    kind: str | None,
    request_id: str | None,
    exc: BaseException,
) -> DesignResponse:
    """Wrap an exception in the contract's error envelope.

    The ``type`` field is the exception class name (clients branch on
    the :mod:`repro.errors` hierarchy names); ``message`` is the
    human-readable reason. Transient failures additionally carry
    ``retryable: true``, and an admission-control rejection
    (:class:`~repro.errors.ServiceBusyError`) is the typed ``busy``
    error: ``code: "busy"`` plus a ``retry_after_s`` backoff hint —
    nothing was computed, resubmitting the same request is safe.
    """
    error: dict = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, RetryableError):
        error["retryable"] = True
    if isinstance(exc, ServiceBusyError):
        error["code"] = "busy"
        error["retry_after_s"] = round(exc.retry_after_s, 3)
    return DesignResponse(
        kind=kind or "unknown",
        request_id=request_id,
        error=error,
    )
