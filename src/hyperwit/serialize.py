"""Deterministic JSON encoding with exact rationals.

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

