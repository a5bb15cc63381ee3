"""`serialize.dumps` against its reference, the stdlib's
`json.dumps(obj, sort_keys=True, indent=2) + "\\n"`, byte for byte."""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperwit.serialize import dumps


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


TEXT = st.text(st.sampled_from('"\\/[]{},: \n\r\t\b\f\x00\x1f\x7fé \U0001f600') | st.characters())
INTS = st.integers() | st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64))
FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, -5e-324, float("nan"), float("inf"), float("-inf")])
LEAVES = st.none() | st.booleans() | INTS | FLOATS | FLOATS.map(np.float64) | TEXT


def _containers(children):
    return (
        st.lists(children, max_size=6)
        | st.lists(children, max_size=6).map(tuple)
        | st.dictionaries(TEXT, children, max_size=6)
        | st.lists(INTS, max_size=6)
        | st.lists(INTS | st.booleans(), max_size=6)
    )


DOCUMENTS = st.recursive(LEAVES, _containers, max_leaves=40)


@settings(max_examples=200)
@given(DOCUMENTS)
def test_dumps_matches_json_dumps(obj):
    assert dumps(obj) == reference(obj)


@pytest.mark.parametrize(
    "obj",
    [
        [1, True],
        [True, 1],
        [False],
        (1, 2),
        (),
        [],
        {},
        [[], {}, ()],
        {"a": [], "b": {}},
        [np.float64(0.1), np.float64("nan")],
        {"x": np.float64(-0.0)},
        [2**64 + 1, -(2**64)],
        [-0.0, 5e-324, float("nan"), float("inf"), float("-inf")],
        "\"\\\x00é[]{},:",
    ],
)
def test_dumps_matches_json_dumps_on_edge_cases(obj):
    assert dumps(obj) == reference(obj)


@pytest.mark.parametrize(
    "obj", [np.int64(1), [np.int64(1)], {1, 2}, {"a": set()}, Fraction(1, 3), [Fraction(1, 3)], np.bool_(True)]
)
def test_dumps_raises_type_error_where_json_does(obj):
    with pytest.raises(TypeError):
        reference(obj)
    with pytest.raises(TypeError):
        dumps(obj)


def test_dumps_refuses_keys_that_are_not_strings():
    with pytest.raises(TypeError):
        dumps({1: 0})
