"""Deterministic JSON encoding with exact rationals, plus output schemas.

Rational quantities serialize as {num, den, float}; irrational ones as
{irrational: true, float}. Dumps sort keys and end with a newline so that
identical inputs produce byte-identical artifacts.

`dumps(obj)` is byte for byte `json.dumps(obj, sort_keys=True, indent=2) +
"\n"` for every document whose keys are strings (the only keys hyperwit
writes; a key of another type raises TypeError, where json would convert
it). `tests/test_serialize.py::test_dumps_matches_json_dumps` holds that
contract. It is an emitter of its own because `indent` makes the stdlib run
its pure-Python encoder, which was the largest cost of a `reduce` run.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string
from typing import Any

from .hypergraph import Hypergraph

Number = Fraction | float  # exact where the inputs are, float otherwise


def exact_json(value: Number | int) -> dict[str, Any]:
    if isinstance(value, float):
        return {"irrational": True, "float": value}
    f = Fraction(value)
    return {"num": f.numerator, "den": f.denominator, "float": float(f)}


def hypergraph_json(h: Hypergraph) -> dict[str, Any]:
    return {"n": h.n, "edges": [list(e) for e in h.edges]}


def dumps(obj: Any) -> str:
    return _encode(obj, "\n") + "\n"


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(o: float) -> str:
    r = float.__repr__(o)
    return _NONFINITE.get(r, r)


_LEAF = {
    str: _string,
    int: int.__repr__,
    float: _float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
_INT = {int}


def _encode(o: Any, newline: str) -> str:
    """`o` as json writes it with indent 2; `newline` is the line break and
    indent before `o`'s closing bracket. Exact dicts and lists take the
    fast paths; top-level scalars, tuples and subclasses such as numpy's
    float64 go through isinstance checks, as in json's encoder."""
    t = type(o)
    if t is dict:
        if not o:
            return "{}"
        inner = newline + "  "
        items = [_string(k) + ": " + (leaf(v) if (leaf := _LEAF.get(type(v))) else _encode(v, inner))
                 for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if t is list:
        if not o:
            return "[]"
        inner = newline + "  "
        if set(map(type, o)) == _INT:  # exact ints only: a bool must print as true/false
            return "[" + inner + repr(o)[1:-1].replace(", ", "," + inner) + newline + "]"
        items = [leaf(x) if (leaf := _LEAF.get(type(x))) else _encode(x, inner) for x in o]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    leaf = _LEAF.get(t)
    if leaf is not None:
        return leaf(o)
    for base, leaf in _LEAF.items():  # subclasses; bool and None have none
        if isinstance(o, base):
            return leaf(o)
    if isinstance(o, (list, tuple)):
        return _encode(list(o), newline)
    if isinstance(o, dict):
        return _encode(dict(o.items()), newline)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


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
