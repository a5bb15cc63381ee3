import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import hypergraphs
from hyperwit import (
    Bipartition,
    Family,
    Hypergraph,
    build_family,
    canonicalize,
    crossing_edges,
    enumerate_bipartitions,
    format_hypergraph,
    is_connected,
    max_cardinality,
    parse_hypergraph,
    toggle_edges,
)


def test_canonicalize_sorts_and_cancels():
    h = canonicalize([[2, 1], [3, 2], [1, 2]], 3)
    assert h.edges == ((2, 3),)
    assert canonicalize([[1, 2], [1, 2]], 2).edges == ()


def test_canonicalize_rejects_out_of_range():
    with pytest.raises(ValueError):
        canonicalize([[1, 4]], 3)
    with pytest.raises(ValueError):
        canonicalize([[0, 1]], 2)
    with pytest.raises(ValueError):
        canonicalize([[]], 2)


@given(hypergraphs())
def test_canonicalize_idempotent(h):
    assert canonicalize(h.edges, h.n) == h


@given(hypergraphs())
def test_canonicalize_order_insensitive(h):
    assert canonicalize(list(reversed(h.edges)), h.n) == h


@given(hypergraphs(), hypergraphs())
def test_toggle_involution(h, extra):
    if extra.n != h.n:
        return
    once = toggle_edges(h, extra.edges)
    assert toggle_edges(once, extra.edges) == h


def test_build_family_edges():
    assert build_family(Family.SINGLE_MAX_EDGE, 3).edges == ((1, 2, 3),)
    assert build_family(Family.ALL_N_MINUS_1, 4).edges == (
        (1, 2, 3),
        (1, 2, 4),
        (1, 3, 4),
        (2, 3, 4),
    )
    assert build_family(Family.ALL_GE_N_MINUS_1, 3).edges == (
        (1, 2),
        (1, 2, 3),
        (1, 3),
        (2, 3),
    )


def test_family_cli_names():
    assert Family("single-max") is Family.SINGLE_MAX_EDGE
    assert Family.ALL_N_MINUS_1.value == "all-n-1"
    with pytest.raises(ValueError):
        Family("nope")


def test_is_connected():
    assert is_connected(canonicalize([[1, 2], [2, 3]], 3))
    assert not is_connected(canonicalize([[1, 2]], 3))
    assert not is_connected(canonicalize([[1, 2], [3, 4]], 4))
    # singleton edges do not connect anything
    assert not is_connected(canonicalize([[1, 2], [3]], 3))
    assert is_connected(canonicalize([[1]], 1))


def test_max_cardinality():
    assert max_cardinality(canonicalize([], 3)) == 0
    assert max_cardinality(canonicalize([[1], [2, 3]], 3)) == 2


def test_bipartition_normalizes_to_side_of_vertex_1():
    bp = Bipartition.of(4, [2, 4])
    assert bp.part_a == (1, 3)
    assert bp.part_b == (2, 4)
    with pytest.raises(ValueError):
        Bipartition.of(3, [1, 2, 3])
    with pytest.raises(ValueError):
        Bipartition.of(3, [])


@given(st.integers(2, 8))
def test_enumerate_bipartitions_count(n):
    bps = enumerate_bipartitions(n)
    assert len(bps) == (1 << (n - 1)) - 1
    assert len(set(bps)) == len(bps)
    assert all(bp.part_a[0] == 1 for bp in bps)


def test_crossing_edges():
    h = canonicalize([[1, 2], [3, 4], [2, 3, 4]], 4)
    bp = Bipartition.of(4, [1, 2])
    assert crossing_edges(h, bp) == ((2, 3, 4),)
    assert crossing_edges(h, [1, 3]) == ((1, 2), (2, 3, 4), (3, 4))


def test_permute_vertices():
    h = canonicalize([[1, 2], [2, 3]], 3)
    # perm maps old label -> new label, given as perm[old-1]
    assert oracles.permute_vertices(h.edges, [3, 2, 1]) == ((1, 2), (2, 3))
    assert oracles.permute_vertices(h.edges, [2, 3, 1]) == ((1, 3), (2, 3))


@given(hypergraphs())
def test_parse_format_round_trip(h):
    assert parse_hypergraph(format_hypergraph(h)) == h


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_hypergraph("edges=[[1,2]]")
    with pytest.raises(ValueError):
        parse_hypergraph("n=2; edges=[[1,3]]")


def test_hypergraph_equality_and_hash():
    a = canonicalize([[1, 2]], 3)
    b = canonicalize([[2, 1], [1, 2], [1, 2]], 3)
    assert a == b and hash(a) == hash(b)
    assert a != canonicalize([[1, 2]], 2)
    assert a != Hypergraph(3, ())
