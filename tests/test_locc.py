import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import nonempty_hypergraphs
from hyperwit import (
    Bipartition,
    Family,
    Hypergraph,
    LoccReductionError,
    LoccValidationError,
    StepKind,
    build_family,
    build_state,
    canonicalize,
    crossing_edges,
    pauli_x_toggle,
    pauli_z_toggle,
    reduce as locc_reduce,
    remove_non_crossing,
    toggle_edges,
    z_measure,
)
from hyperwit import locc

DRAWN = canonicalize([[1, 2], [3, 4], [3, 4, 5], [2, 3, 4, 5]], 5)
DRAWN_CUT = Bipartition.of(5, [1, 2, 3])


def test_z_measure_known_cases():
    g3 = build_family(Family.SINGLE_MAX_EDGE, 3)
    assert z_measure(g3, 3, 0).edges == ()
    assert z_measure(g3, 3, 1).edges == ((1, 2),)
    path = canonicalize([[1, 2], [2, 3]], 3)
    assert z_measure(path, 2, 0).edges == ()
    assert z_measure(path, 2, 1).edges == ((1,), (2,))
    # residual of {1,2,3} cancels the surviving edge {1,2}
    twin = canonicalize([[1, 2], [1, 2, 3]], 3)
    assert z_measure(twin, 3, 1).edges == ()
    assert z_measure(twin, 3, 0).edges == ((1, 2),)


@given(nonempty_hypergraphs(max_n=5), st.integers(1, 5), st.integers(0, 1))
def test_z_measure_matches_projection_oracle(h, vertex, outcome):
    if vertex > h.n or h.n < 2:
        return
    child = z_measure(h, vertex, outcome)
    assert child.n == h.n - 1
    got = oracles.dense_state(child.n, child.edges)
    ref = oracles.dense_projected(oracles.dense_state(h.n, h.edges), h.n, vertex, outcome)
    assert oracles.proportional(got, ref)


def test_z_measure_rejects_bad_arguments():
    h = canonicalize([[1, 2]], 2)
    with pytest.raises(ValueError):
        z_measure(h, 3, 0)
    with pytest.raises(ValueError):
        z_measure(h, 1, 2)
    with pytest.raises(ValueError):
        z_measure(canonicalize([[1]], 1), 1, 0)


def test_pauli_x_toggle_known_case():
    g2 = build_family(Family.SINGLE_MAX_EDGE, 2)
    moved, sign = pauli_x_toggle(g2, 1)
    assert moved.edges == ((1, 2), (2,)) and sign == 1


@given(nonempty_hypergraphs(max_n=5), st.integers(1, 5))
def test_pauli_x_toggle_matches_oracle(h, vertex):
    if vertex > h.n:
        return
    moved, sign = pauli_x_toggle(h, vertex)
    got = sign * oracles.dense_state(moved.n, moved.edges)
    ref = oracles.x_matrix(h.n, vertex) @ oracles.dense_state(h.n, h.edges)
    assert np.array_equal(got, ref)


@given(nonempty_hypergraphs(max_n=5), st.integers(1, 5))
def test_pauli_z_toggle_matches_oracle(h, vertex):
    if vertex > h.n:
        return
    moved = pauli_z_toggle(h, vertex)
    got = oracles.dense_state(moved.n, moved.edges)
    ref = oracles.z_matrix(h.n, vertex) @ oracles.dense_state(h.n, h.edges)
    assert np.array_equal(got, ref)


def test_remove_non_crossing_keeps_target():
    h = canonicalize([[1, 2], [3, 4], [2, 3, 4], [1, 2, 3, 4]], 4)
    kept, removed = remove_non_crossing(h, [1, 2], keep=(2, 3, 4))
    assert removed == ((1, 2), (3, 4))
    assert kept.edges == ((1, 2, 3, 4), (2, 3, 4))


def test_reduce_drawn_instance_certifies_quarter():
    cert = locc_reduce(DRAWN, DRAWN_CUT)
    assert cert.kappa_prime_worst == 3
    assert cert.bound == Fraction(1, 4)
    assert cert.validated
    assert abs(cert.entanglement_ab - 0.3982991871689586) <= 1e-12
    assert len(cert.branches) == 6
    assert cert.steps_total == 26


def test_reduce_flat_two_edge_instance():
    cert = locc_reduce(canonicalize([[3, 4], [1, 2, 4, 5]], 5), DRAWN_CUT)
    assert cert.kappa_prime_worst == 4
    assert cert.bound == Fraction(1, 8)
    assert cert.validated


def test_reduce_branches_end_in_single_crossing_edge():
    cert = locc_reduce(DRAWN, DRAWN_CUT)
    for b in cert.branches:
        assert len(b.leaf.edges) == 1
        edge = b.leaf.edges[0]
        assert b.kappa_prime == len(edge)
        assert len(b.final_edge) == b.kappa_prime
        # final edge is reported in the original labels and crosses the cut
        assert any(v in DRAWN_CUT.part_a for v in b.final_edge)
        assert any(v in DRAWN_CUT.part_b for v in b.final_edge)
        assert b.steps[0].op is StepKind.SELECT


def test_reduce_single_max_edge_bound_is_tight():
    for n in range(2, 7):
        h = build_family(Family.SINGLE_MAX_EDGE, n)
        cert = locc_reduce(h, Bipartition.of(n, [1]))
        assert cert.kappa_prime_worst == n
        assert cert.bound == Fraction(1, 1 << (n - 1))
        assert abs(cert.entanglement_ab - float(cert.bound)) <= 1e-12
        assert cert.validated


def test_reduce_keep_branches_flag():
    cert = locc_reduce(DRAWN, DRAWN_CUT, keep_branches=False)
    assert cert.branches == ()
    assert cert.kappa_prime_worst == 3


def test_reduce_requires_connected_matching_cut():
    with pytest.raises(ValueError):
        locc_reduce(canonicalize([[1, 2]], 3), Bipartition.of(3, [1]))
    with pytest.raises(ValueError):
        locc_reduce(canonicalize([[1, 2]], 2), Bipartition.of(3, [1]))


def test_reduce_budget_cuts_off_runaway_exploration(monkeypatch):
    monkeypatch.setattr(locc, "BUDGET_FACTOR", 0)
    h = build_family(Family.ALL_GE_N_MINUS_1, 6)
    with pytest.raises(LoccReductionError):
        locc_reduce(h, Bipartition.of(6, [1]))


@given(nonempty_hypergraphs(min_n=2, max_n=6, min_edge=2), st.integers(0, 62))
def test_reduce_certificates_validate(h, pick):
    from hyperwit import enumerate_bipartitions, is_connected

    if not is_connected(h):
        return
    bps = enumerate_bipartitions(h.n)
    bp = bps[pick % len(bps)]
    if not crossing_edges(h, bp):
        return
    cert = locc_reduce(h, bp)
    assert cert.validated
    assert cert.bound == Fraction(1, 1 << (cert.kappa_prime_worst - 1))
    assert cert.entanglement_ab >= float(cert.bound) - 1e-9
    for b in cert.branches:
        assert len(b.leaf.edges) == 1


def test_reduce_above_oracle_limit_warns_once():
    h = canonicalize([[1, 2, 3], [3, 4], [4, 5, 6], [6, 7], [7, 8, 9], [9, 10, 11], [2, 10]], 11)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cert = locc_reduce(h, Bipartition.of(11, [1, 2, 3, 4, 5]))
    assert cert.steps_total > 100
    assert [w.category for w in caught] == [RuntimeWarning]
    assert caught[0].filename == __file__


# The rules build their output through the `Hypergraph` and `toggle_edges`
# names of the locc module; patching those there moves the output one edge
# off while the oracle, which builds sign tables in `states`, is untouched.
OFF_EDGE = (1,)


def _one_edge_off_hypergraph(monkeypatch):
    monkeypatch.setattr(locc, "Hypergraph", lambda n, edges: toggle_edges(Hypergraph(n, edges), [OFF_EDGE]))


def _one_edge_off_toggle(monkeypatch):
    monkeypatch.setattr(locc, "toggle_edges", lambda base, extra: toggle_edges(base, [*extra, OFF_EDGE]))


@pytest.mark.parametrize("outcome", [0, 1])
def test_oracle_catches_wrong_z_measure_rule(monkeypatch, outcome):
    _one_edge_off_hypergraph(monkeypatch)
    with pytest.raises(LoccValidationError, match="z_measure"):
        z_measure(DRAWN, 3, outcome)


def test_oracle_catches_wrong_pauli_x_rule(monkeypatch):
    _one_edge_off_hypergraph(monkeypatch)
    with pytest.raises(LoccValidationError, match="pauli_x_toggle"):
        pauli_x_toggle(DRAWN, 3)


def test_oracle_catches_wrong_pauli_z_rule(monkeypatch):
    _one_edge_off_toggle(monkeypatch)
    with pytest.raises(LoccValidationError, match="pauli_z_toggle"):
        pauli_z_toggle(DRAWN, 2)


def test_oracle_catches_wrong_remove_non_crossing_rule(monkeypatch):
    _one_edge_off_toggle(monkeypatch)
    h = canonicalize([[1, 2], [3, 4], [2, 3, 4], [1, 2, 3, 4]], 4)
    with pytest.raises(LoccValidationError, match="remove_non_crossing"):
        remove_non_crossing(h, [1, 2], keep=(2, 3, 4))


class _VertexOneMatchingTwo(int):
    """Vertex 1 that also compares equal to 2. The X rule then counts both
    single-vertex edges as lying on it, so their sign flips cancel, while the
    oracle's X still acts on qubit 1 alone and leaves a global -1."""

    def __eq__(self, other):
        return other == 1 or other == 2

    __hash__ = int.__hash__


def test_oracle_catches_wrong_pauli_x_sign():
    h = canonicalize([[1], [2]], 2)
    with pytest.raises(LoccValidationError, match="pauli_x_toggle"):
        pauli_x_toggle(h, _VertexOneMatchingTwo(1))
