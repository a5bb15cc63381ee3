"""JSON Schemas of the CLI's stdout documents, one per kind of output.

`tests/test_cli.py` validates each JSON document it reads against the
schema of its kind.
"""

from typing import Any


_EXACT = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "num": {"type": "integer"},
                "den": {"type": "integer", "minimum": 1},
                "float": {"type": "number"},
            },
            "required": ["num", "den", "float"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"irrational": {"const": True}, "float": {"type": "number"}},
            "required": ["irrational", "float"],
            "additionalProperties": False,
        },
    ]
}

_EDGES = {
    "type": "array",
    "items": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1},
}

_VERTEX_LIST = {"type": "array", "items": {"type": "integer", "minimum": 1}}

_STEP = {
    "type": "object",
    "properties": {
        "op": {"enum": ["select", "Mz", "X", "Z", "remove"]},
        "qubit": {"type": ["integer", "null"]},
        "outcome": {"type": ["integer", "null"]},
        "edge": {"oneOf": [{"type": "null"}, _VERTEX_LIST]},
    },
    "required": ["op"],
    "additionalProperties": False,
}

SCHEMAS: dict[str, dict[str, Any]] = {
    "state-build": {
        "type": "object",
        "properties": {"n": {"type": "integer"}, "edges": _EDGES, "text": {"type": "string"}},
        "required": ["n", "edges", "text"],
        "additionalProperties": False,
    },
    "state-dump": {
        "type": "object",
        "properties": {"n": {"type": "integer"}, "edges": _EDGES, "signs_hex": {"type": "string"}},
        "required": ["n", "edges", "signs_hex"],
        "additionalProperties": False,
    },
    "verify": {
        "type": "object",
        "properties": {
            "check": {"enum": ["stabilizers", "basis", "projector"]},
            "n": {"type": "integer"},
            "edges": _EDGES,
            "ok": {"type": "boolean"},
            "deviation": {"type": "number"},
        },
        "required": ["check", "n", "edges", "ok"],
        "additionalProperties": False,
    },
    "entanglement": {
        "type": "object",
        "properties": {
            "n": {"type": "integer"},
            "edges": _EDGES,
            "mode": {"enum": ["brute", "procedure", "closed-form"]},
            "alpha": {"type": "number"},
            "E": {"type": "number"},
            "argmax_part_a": _VERTEX_LIST,
            "per_bipartition": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {"part_a": _VERTEX_LIST, "alpha": {"type": "number"}},
                    "required": ["part_a", "alpha"],
                    "additionalProperties": False,
                },
            },
            "closed_form": _EXACT,
            "procedure": {
                "type": "object",
                "properties": {
                    "success": {"type": "boolean"},
                    "alpha": {"type": "number"},
                    "smax_squared": {"type": "number"},
                    "rows": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "properties": {
                                "k": {"type": "integer"},
                                "infinity_norm": _EXACT,
                                "within_bound": {"type": "boolean"},
                                "lambda_max": {"type": ["number", "null"]},
                            },
                            "required": ["k", "infinity_norm", "within_bound"],
                            "additionalProperties": False,
                        },
                    },
                },
                "required": ["success", "alpha"],
                "additionalProperties": False,
            },
            "match": {"type": "boolean"},
        },
        "required": ["n", "edges", "mode", "alpha", "E"],
        "additionalProperties": False,
    },
    "reduce": {
        "type": "object",
        "properties": {
            "n": {"type": "integer"},
            "edges": _EDGES,
            "part_a": _VERTEX_LIST,
            "kappa_prime_worst": {"type": "integer"},
            "bound": _EXACT,
            "entanglement_ab": {"type": "number"},
            "validated": {"type": "boolean"},
            "steps_total": {"type": "integer"},
            "branches": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "outcomes": {
                            "type": "array",
                            "items": {"type": "array", "items": {"type": "integer"}},
                        },
                        "steps": {"type": "array", "items": _STEP},
                        "final_edge": _VERTEX_LIST,
                        "kappa_prime": {"type": "integer"},
                    },
                    "required": ["outcomes", "steps", "final_edge", "kappa_prime"],
                    "additionalProperties": False,
                },
            },
        },
        "required": ["n", "edges", "part_a", "kappa_prime_worst", "bound", "entanglement_ab", "validated"],
        "additionalProperties": False,
    },
    "witness": {
        "type": "object",
        "properties": {
            "kind": {"enum": ["projector", "stabilizer"]},
            "n": {"type": "integer"},
            "edges": _EDGES,
            "alpha": _EXACT,
            "beta": _EXACT,
            "c": {"type": "number"},
            "robustness": _EXACT,
            "feasible": {"type": "boolean"},
            "p": _EXACT,
            "expectation": _EXACT,
            "negative": {"type": "boolean"},
        },
        "required": ["kind", "n", "edges", "alpha", "robustness"],
        "additionalProperties": False,
    },
    "robustness-table": {
        "type": "object",
        "properties": {
            "family": {"type": "string"},
            "rows": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {"n": {"type": "integer"}, "projector": _EXACT, "stabilizer": _EXACT},
                    "required": ["n", "projector", "stabilizer"],
                    "additionalProperties": False,
                },
            },
        },
        "required": ["family", "rows"],
        "additionalProperties": False,
    },
    "settings": {
        "type": "object",
        "properties": {
            "kind": {"enum": ["projector", "stabilizer"]},
            "n": {"type": "integer"},
            "edges": _EDGES,
            "mode": {"enum": ["canonical", "greedy"]},
            "count": {"type": "integer"},
            "settings": {"type": "array", "items": {"type": "string", "pattern": "^[XYZ]+$"}},
        },
        "required": ["kind", "n", "edges", "mode", "count"],
        "additionalProperties": False,
    },
    "campaign": {
        "type": "object",
        "properties": {
            "seed": {"type": "integer"},
            "count": {"type": "integer"},
            "max_n": {"type": "integer"},
            "all_hold": {"type": "boolean"},
            "rows": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "index": {"type": "integer"},
                        "n": {"type": "integer"},
                        "edges": _EDGES,
                        "k_max": {"type": "integer"},
                        "bound": _EXACT,
                        "entanglement": {"type": "number"},
                        "holds": {"type": "boolean"},
                    },
                    "required": ["index", "n", "edges", "k_max", "bound", "entanglement", "holds"],
                    "additionalProperties": False,
                },
            },
        },
        "required": ["seed", "count", "max_n", "all_hold", "rows"],
        "additionalProperties": False,
    },
    "reduction-audit": {
        "type": "object",
        "properties": {
            "seed": {"type": "integer"},
            "count": {"type": "integer"},
            "max_n": {"type": "integer"},
            "all_validated": {"type": "boolean"},
            "rows": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "index": {"type": "integer"},
                        "n": {"type": "integer"},
                        "edges": _EDGES,
                        "certificates": {"type": "integer", "minimum": 1},
                        "all_validated": {"type": "boolean"},
                        "min_margin": {"type": "number"},
                    },
                    "required": ["index", "n", "edges", "certificates", "all_validated", "min_margin"],
                    "additionalProperties": False,
                },
            },
        },
        "required": ["seed", "count", "max_n", "all_validated", "rows"],
        "additionalProperties": False,
    },
}
