import json
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import hypergraphs, nonempty_hypergraphs
from hyperwit import (
    Family,
    Hypergraph,
    SignState,
    apply_controlled_z,
    apply_stabilizer,
    apply_x,
    apply_z,
    basis_state,
    build_family,
    build_state,
    canonicalize,
    extract_hypergraph,
    is_permutation_invariant,
    overlap,
    projector_identity_check,
)
from hyperwit import states
from hyperwit.campaign import random_connected_hypergraph
from hyperwit.cli import main
from hyperwit.states import (
    _bit_pattern,
    label_bit,
    label_of_vertices,
    superset_mask,
    vertices_of_label,
)


def test_label_conventions():
    # vertex 1 owns the most significant bit
    assert label_bit(3, 1) == 2
    assert label_bit(3, 3) == 0
    assert label_of_vertices(3, [1, 3]) == 0b101
    assert vertices_of_label(3, 0b101) == (1, 3)


def test_superset_mask_small():
    # n=2, edge {1}: labels 10 and 11
    assert superset_mask(2, (1,)) == 0b1100
    assert superset_mask(2, (1, 2)) == 0b1000
    assert superset_mask(2, ()) == 0b1111


def test_bit_pattern_matches_brute_force():
    # covers the sub-byte tables (n < 3) and the sub-byte periods (pos < 3)
    for n in range(1, 11):
        for pos in range(n):
            assert _bit_pattern(n, pos) == sum(1 << x for x in range(1 << n) if x >> pos & 1), (n, pos)


def test_plus_state_has_no_signs():
    st5 = SignState(5, 0)
    assert st5.neg == 0
    assert st5.sign(17) == 1


@given(hypergraphs(max_n=6))
def test_build_state_matches_dense_oracle(h):
    amps = build_state(h).amplitudes()
    ref = oracles.dense_state(h.n, h.edges)
    assert np.array_equal(amps, ref)


def test_build_state_single_max_edge_flips_one_label():
    for n in range(2, 8):
        s = build_state(build_family(Family.SINGLE_MAX_EDGE, n))
        # exactly the all-ones label is negative
        assert s.neg == 1 << ((1 << n) - 1)
        assert s.sign((1 << n) - 1) == -1


@given(nonempty_hypergraphs(max_n=6))
def test_controlled_z_involution(h):
    s = build_state(h)
    e = h.edges[0]
    assert apply_controlled_z(apply_controlled_z(s, e), e) == s


@given(hypergraphs(max_n=6))
def test_controlled_z_matches_dense(h):
    s = SignState(h.n, 0)
    for e in h.edges:
        s = apply_controlled_z(s, e)
    assert np.array_equal(s.amplitudes(), oracles.dense_state(h.n, h.edges))


@given(hypergraphs(max_n=5), st.integers(1, 5))
def test_apply_x_matches_dense(h, vertex):
    if vertex > h.n:
        return
    s = build_state(h)
    moved = apply_x(s, vertex).amplitudes()
    ref = oracles.x_matrix(h.n, vertex) @ s.amplitudes()
    assert np.array_equal(moved, ref)


@given(hypergraphs(max_n=5), st.integers(1, 5))
def test_apply_z_matches_dense(h, vertex):
    if vertex > h.n:
        return
    s = build_state(h)
    moved = apply_z(s, vertex).amplitudes()
    ref = oracles.z_matrix(h.n, vertex) @ s.amplitudes()
    assert np.array_equal(moved, ref)


@given(hypergraphs(max_n=6))
def test_stabilizers_fix_state(h):
    s = build_state(h)
    for i in range(1, h.n + 1):
        assert apply_stabilizer(s, h, i) == s


@given(hypergraphs(max_n=5), st.integers(1, 5))
def test_apply_stabilizer_matches_dense(h, vertex):
    if vertex > h.n:
        return
    s = SignState(h.n, 0)
    for e in h.edges:
        s = apply_controlled_z(s, e)
    s = apply_z(s, 1)  # any diagonal state, not just eigenvectors
    moved = apply_stabilizer(s, h, vertex).amplitudes()
    ref = oracles.stabilizer_matrix(h.n, h.edges, vertex) @ s.amplitudes()
    assert np.array_equal(moved, ref)


def _link_diagonal(h, vertex):
    # +-1 diagonal of the vertex stabilizer's controlled-Z part
    return SignState(h.n, states._link_masks(h)[vertex - 1]).signs().astype(np.int64)


def _dense_stabilizer(h, vertex):
    # K_v sends |x> to d(x) |x ^ bit>, d the vertex's controlled-Z diagonal
    xs = np.arange(1 << h.n)
    k = np.zeros((1 << h.n, 1 << h.n), dtype=np.int64)
    k[xs ^ (1 << label_bit(h.n, vertex)), xs] = _link_diagonal(h, vertex)
    return k


def test_dense_stabilizer_matches_oracle():
    h = canonicalize([[1], [1, 2], [2, 3, 4]], 4)
    for i in range(1, 5):
        assert np.array_equal(
            _dense_stabilizer(h, i), oracles.stabilizer_matrix(h.n, h.edges, i)
        )


def test_stabilizer_diagonal_products_commute():
    h = canonicalize([[1, 2], [2, 3], [1, 2, 3]], 3)
    # K_1 K_2 applied in either order gives the same operator
    m1 = _dense_stabilizer(h, 1) @ _dense_stabilizer(h, 2)
    m2 = _dense_stabilizer(h, 2) @ _dense_stabilizer(h, 1)
    assert np.array_equal(m1, m2)
    # and matches X_1 X_2 times the diagonal d_2(x) * d_1(x ^ bit 2)
    n = h.n
    xs = np.arange(1 << n)
    d12 = _link_diagonal(h, 2) * _link_diagonal(h, 1)[xs ^ (1 << label_bit(n, 2))]
    tmask = (1 << label_bit(n, 1)) | (1 << label_bit(n, 2))
    recon = np.zeros((1 << n, 1 << n), dtype=np.int64)
    recon[xs ^ tmask, xs] = d12
    assert np.array_equal(recon, m1)


def test_stabilizer_diagonal_single_vertex_edge():
    h = canonicalize([[2]], 2)
    # residual of edge {2} under K_2 is a global sign flip
    assert np.array_equal(_link_diagonal(h, 2), -np.ones(4, dtype=np.int64))


def _reference_link_mask(h, vertex):
    # one superset_mask per residual edge, each its own AND chain
    mask = 0
    for e in h.edges:
        if vertex in e:
            mask ^= superset_mask(h.n, tuple(v for v in e if v != vertex))
    return mask


@given(hypergraphs(max_n=8))
def test_link_masks_match_one_chain_per_residual(h):
    assert states._link_masks(h) == tuple(_reference_link_mask(h, v) for v in h.vertices())


@pytest.mark.parametrize("n", range(12, 17))
def test_link_masks_match_one_chain_per_residual_on_random_instances(n):
    h = random_connected_hypergraph(n, random.Random(f"link-masks:{n}"))
    assert states._link_masks(h) == tuple(_reference_link_mask(h, v) for v in h.vertices())


def test_verify_stabilizers_keeps_no_residual_masks(capsys):
    # n = 18 masks are 32 KiB each: the 18 link masks take 576 KiB, while one
    # cached mask per residual edge takes up to 7.7 MiB on this instance (245 residuals)
    h = random_connected_hypergraph(18, random.Random("stabilizer-memory:18:0"))
    states.superset_mask.cache_clear()
    states._link_masks.cache_clear()
    argv = ["verify", "stabilizers", "--edges", json.dumps([list(e) for e in h.edges]), "--n", "18"]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(capsys.readouterr().out)["ok"] is True
    assert peak < 6 << 20, peak


def test_superset_mask_cache_stays_bounded_across_instances():
    # n = 22 masks are 512 KiB each: the 64 cached take 32 MiB, while one per
    # edge of these six instances (about 180) would take about 90 MiB
    instances = [random_connected_hypergraph(22, random.Random(f"mask-cache:22:{i}")) for i in range(6)]
    build_state(Hypergraph(22, (tuple(range(1, 23)),)))  # the per-bit patterns, outside the trace
    states.superset_mask.cache_clear()
    tracemalloc.start()
    try:
        for h in instances:
            build_state(h)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        for cache in (states._full_mask, states._bit_pattern, states.superset_mask):
            cache.cache_clear()
    assert kept < 40 << 20, kept


@given(hypergraphs(max_n=8))
def test_link_masks_give_commuting_involutions(h):
    # m_v free of x_v makes K_v an involution; the symmetric XOR makes K_u, K_v commute
    masks = states._link_masks(h)

    def flip(mask, v):
        return apply_x(SignState(h.n, mask), v).neg

    for v, m in zip(h.vertices(), masks):
        assert flip(m, v) == m
    for (u, mu), (v, mv) in combinations(zip(h.vertices(), masks), 2):
        assert mu ^ flip(mu, v) == mv ^ flip(mv, u)


@given(hypergraphs(max_n=6))
def test_projector_identity_exact(h):
    outer, prod, group_sum = oracles.projector_forms(h.n, h.edges)
    assert np.array_equal(prod, group_sum)
    assert projector_identity_check(h) == 0.0
    assert np.array_equal(outer, prod)


def test_projector_identity_check_catches_a_corrupted_stabilizer(monkeypatch, capsys):
    link_masks = states._link_masks
    # flip one label of vertex 1's edge-built stabilizer; the sign table stays
    # right, and K_1 now moves exactly one label of it
    monkeypatch.setattr(states, "_link_masks", lambda h: (link_masks(h)[0] ^ (1 << 3), *link_masks(h)[1:]))
    assert projector_identity_check(build_family(Family.ALL_N_MINUS_1, 4)) == 0.0625
    assert projector_identity_check(canonicalize([[1, 2], [2, 3, 4], [5]], 5)) == 0.03125
    code = main(["verify", "projector", "--family", "all-n-1", "--n", "4"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


@pytest.mark.parametrize("n", [9, 24])
def test_verify_projector_answers_at_every_size(capsys, n):
    try:
        code = main(["verify", "projector", "--family", "all-n-1", "--n", str(n)])
    finally:  # the n = 24 masks are 2 MiB each; keep none for later tests
        for cache in (states._full_mask, states._bit_pattern, states.superset_mask, states._link_masks):
            cache.cache_clear()
    doc = json.loads(capsys.readouterr().out)
    assert (code, doc["ok"], doc["deviation"]) == (0, True, 0.0)


def test_basis_orthonormal_small():
    for h in (
        build_family(Family.SINGLE_MAX_EDGE, 3),
        build_family(Family.ALL_GE_N_MINUS_1, 4),
        canonicalize([[1, 2], [2, 3], [1, 3, 4]], 4),
    ):
        s = build_state(h)
        for u in range(1 << h.n):
            want = Fraction(1) if u == 0 else Fraction(0)
            assert overlap(s, basis_state(h, u)) == want


def test_basis_state_rejects_labels_out_of_range():
    h = build_family(Family.SINGLE_MAX_EDGE, 3)
    for label in (-1, 8):
        with pytest.raises(ValueError):
            basis_state(h, label)


def test_overlap_exact_values():
    a = build_state(build_family(Family.SINGLE_MAX_EDGE, 2))
    b = SignState(2, 0)
    assert overlap(a, b) == Fraction(1, 2)
    assert overlap(a, a) == 1
    with pytest.raises(ValueError):
        overlap(a, SignState(3, 0))


@given(hypergraphs(max_n=6))
def test_extract_round_trip(h):
    g, phase = extract_hypergraph(build_state(h))
    assert g == h
    assert phase == 1


@given(hypergraphs(max_n=5))
def test_extract_recovers_global_sign(h):
    s = build_state(h)
    flipped = SignState(s.n, s.neg ^ ((1 << s.dim) - 1))
    g, phase = extract_hypergraph(flipped)
    assert g == h
    assert phase == -1


def test_permutation_invariance():
    assert is_permutation_invariant(build_state(build_family(Family.ALL_N_MINUS_1, 4)))
    assert is_permutation_invariant(build_state(build_family(Family.SINGLE_MAX_EDGE, 5)))
    line = build_state(canonicalize([[1, 2], [2, 3]], 3))
    assert not is_permutation_invariant(line)


@given(hypergraphs(max_n=5))
def test_permutation_invariance_matches_every_relabeling(h):
    state = build_state(h)
    relabelled = (Hypergraph(h.n, oracles.permute_vertices(h.edges, p)) for p in permutations(h.vertices()))
    want = all(build_state(g) == state for g in relabelled)
    assert is_permutation_invariant(state) == want


def test_permutation_invariance_of_complete_layers():
    # invariant exactly when the edge set is a union of complete k-uniform
    # layers; one toggled edge of size 1..n-1 breaks the layer it sits in
    rng = random.Random(7)
    for n in range(2, 11):
        for _ in range(5):
            layers = [k for k in range(1, n + 1) if rng.random() < 0.5]
            edges = [list(e) for k in layers for e in combinations(range(1, n + 1), k)]
            h = canonicalize(edges, n)
            assert is_permutation_invariant(build_state(h)), (n, layers)
            extra = sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
            assert not is_permutation_invariant(build_state(canonicalize(edges + [extra], n))), (n, layers, extra)


def test_build_state_refuses_too_many_qubits_before_allocating():
    # one 2**25-bit mask alone would take 4 MiB
    h = build_family(Family.ALL_N_MINUS_1, 25)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^qubit count must lie in 1\.\.24$"):
            build_state(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_hex_round_trip():
    s = build_state(canonicalize([[1, 2], [1, 3]], 3))
    assert SignState.from_hex(3, s.to_hex()) == s


def test_sign_state_validation():
    with pytest.raises(ValueError):
        SignState(2, 1 << 4)  # sign bit outside the 2^n window
    assert SignState(2, (1 << 4) - 1).signs().tolist() == [-1] * 4  # the largest valid table
    with pytest.raises(ValueError):
        SignState(2, -1)
    with pytest.raises(ValueError):
        SignState(0, 0)
    with pytest.raises(ValueError):
        SignState(30, 0)  # beyond the supported width
