import json
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import hypergraphs
from hyperwit import (
    Bipartition,
    Family,
    Hypergraph,
    SignState,
    alpha_bipartite,
    alpha_multipartite,
    build_family,
    build_state,
    canonicalize,
    closed_form_E,
    closed_form_alpha,
    enumerate_bipartitions,
    is_permutation_invariant,
    lower_bound_check,
    predicted_gram,
    procedure_alpha,
    reduced_density_matrix,
    reduced_structure_check,
    schmidt,
)
from hyperwit import entanglement
from hyperwit.cli import main
from hyperwit.entanglement import _symmetric_layers, _weight_gram, _weight_infinity_norm

GOLDEN_RATIO_ALPHA = (3 + math.sqrt(5)) / 8


def test_single_max_edge_alpha_series():
    for n in range(2, 9):
        rep = alpha_multipartite(build_state(build_family(Family.SINGLE_MAX_EDGE, n)))
        want = Fraction((1 << (n - 1)) - 1, 1 << (n - 1))
        assert abs(rep.alpha - float(want)) <= 1e-12
        assert abs(rep.E - (1 - float(want))) <= 1e-12


@given(hypergraphs(max_n=5))
def test_brute_alpha_matches_dense_oracle(h):
    if h.n < 2:
        return
    rep = alpha_multipartite(build_state(h))
    ref = oracles.dense_alpha(oracles.dense_state(h.n, h.edges), h.n)
    assert abs(rep.alpha - ref) <= 1e-9


@given(hypergraphs(max_n=6), st.integers(0, 30))
def test_schmidt_normalized_and_sorted(h, pick):
    from hyperwit import enumerate_bipartitions

    bps = enumerate_bipartitions(h.n)
    bp = bps[pick % len(bps)]
    spec = schmidt(build_state(h), bp)
    sq = [c * c for c in spec.coefficients]
    assert abs(sum(sq) - 1.0) <= 1e-9
    assert all(a >= b - 1e-12 for a, b in zip(sq, sq[1:]))
    assert spec.rank == sum(1 for c in spec.coefficients if c > 1e-12)
    assert abs(spec.alpha - sq[0]) <= 1e-12


@given(hypergraphs(max_n=6), st.integers(0, 30))
def test_svd_and_gram_paths_agree(h, pick):
    from hyperwit import enumerate_bipartitions

    bps = enumerate_bipartitions(h.n)
    bp = bps[pick % len(bps)]
    s = build_state(h)
    assert abs(schmidt(s, bp).alpha - alpha_bipartite(s, bp)) <= 1e-9


@given(hypergraphs(min_n=2, max_n=5), st.permutations([1, 2, 3, 4, 5]))
def test_entanglement_invariant_under_permutation(h, perm):
    perm = [p for p in perm if p <= h.n]
    a = alpha_multipartite(build_state(h)).alpha
    b = alpha_multipartite(build_state(Hypergraph(h.n, oracles.permute_vertices(h.edges, perm)))).alpha
    assert abs(a - b) <= 1e-9


def test_reduced_density_matrix_matches_oracle():
    h = canonicalize([[1, 2, 3], [2, 4]], 4)
    s = build_state(h)
    for kept in ([1], [1, 3], [2, 4], [1, 2, 4]):
        got = reduced_density_matrix(s, kept).entries
        ref = oracles.reduced_density(s.amplitudes(), h.n, kept)
        assert np.allclose(got, ref, atol=1e-12)
        assert abs(np.trace(got) - 1.0) <= 1e-12


def test_argmax_tie_break_is_lexicographic():
    rep = alpha_multipartite(build_state(build_family(Family.SINGLE_MAX_EDGE, 3)))
    assert rep.argmax_bipartition.part_a == (1,)
    line = alpha_multipartite(build_state(canonicalize([[1, 2], [2, 3]], 3)))
    assert line.argmax_bipartition.part_a == (1,)
    assert abs(line.alpha - 0.5) <= 1e-12


def _assert_sweep_matches_per_cut(h):
    state = build_state(h)
    signs = state.signs()
    rep = alpha_multipartite(state, sweep_limit=h.n)
    assert [bp for bp, _ in rep.alpha_per_bipartition] == enumerate_bipartitions(h.n)
    for bp, a in rep.alpha_per_bipartition:
        assert a == oracles.per_cut_alpha(signs, h.n, bp.part_a), (h, bp.part_a)
    assert rep.alpha == max(a for _, a in rep.alpha_per_bipartition)


@given(hypergraphs(min_n=2, max_n=8), st.data())
def test_sweep_equals_per_cut_reference_random(h, data):
    _assert_sweep_matches_per_cut(h)
    bp = data.draw(st.sampled_from(enumerate_bipartitions(h.n)))
    assert alpha_bipartite(build_state(h), bp) == oracles.per_cut_alpha(build_state(h).signs(), h.n, bp.part_a)


def test_sweep_equals_per_cut_reference_families():
    # permutation-invariant states: one cut per size is evaluated and shared
    for fam in Family:
        for n in range(3, 11):
            _assert_sweep_matches_per_cut(build_family(fam, n))


def test_sweep_tie_break_on_symmetric_states(capsys):
    # Every cut of one size ties on a symmetric state, so the first maximum
    # by part_a must win. The two asymmetric states tie on cuts whose first
    # by part_a is not the first in enumeration order.
    states = [build_family(fam, n) for fam in Family for n in range(4, 10)]
    states += [canonicalize([[1, 4]], 6), canonicalize([[1], [1, 2, 3, 4, 5], [1, 2, 4, 5], [1, 3, 5], [2, 3, 4]], 5)]
    for h in states:
        rep = alpha_multipartite(build_state(h))
        ties = sorted(bp.part_a for bp, a in rep.alpha_per_bipartition if a == rep.alpha)
        assert len(ties) > 1, h
        assert rep.argmax_bipartition.part_a == ties[0], h
    assert main(["entanglement", "--mode", "brute", "--family", "all-n-1", "--n", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    ties = sorted(r["part_a"] for r in doc["per_bipartition"] if r["alpha"] == doc["alpha"])
    assert len(ties) > 1 and doc["argmax_part_a"] == ties[0]


def test_sweep_at_n12_gathers_in_small_batches():
    # A batch of 2**18 sign entries peaks near 7 MiB here, one of 2**14
    # near 1.6 MiB.
    rng = random.Random(12)
    first, second = (
        build_state(canonicalize([rng.sample(range(1, 13), rng.randint(2, 12)) for _ in range(24)], 12))
        for _ in range(2)
    )
    alpha_multipartite(first)  # builds the cached plan for n = 12
    tracemalloc.start()
    try:
        rep = alpha_multipartite(second)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.alpha_per_bipartition) == 2047
    assert peak < 4 << 20, peak


def test_procedure_unpacks_the_sign_table_only_for_a_fallback(monkeypatch):
    calls = []
    unpack = SignState.signs

    def counted(self):
        calls.append(self.n)
        return unpack(self)

    monkeypatch.setattr(SignState, "signs", counted)
    assert procedure_alpha(build_family(Family.ALL_N_MINUS_1, 12)).success
    assert calls == []
    # n = 4 fails its one norm row and takes the dense eigensolve
    assert not procedure_alpha(build_family(Family.ALL_N_MINUS_1, 4)).success
    assert calls == [4]
    # two fallback rows share one unpacked table
    calls.clear()
    rep = procedure_alpha(Hypergraph(8, tuple(combinations(range(1, 9), 5))))
    assert sum(row.lambda_max is not None for row in rep.rows) == 2
    assert calls == [8]


def test_procedure_fallback_is_the_top_eigenvalue_of_the_leading_gram():
    # The fallback row k takes the Gram of vertices 1..n-k; its top
    # eigenvalue must equal, bit for bit, that of the exact int64 Gram.
    rows = 0
    for n in range(2, 9):
        for _, h in _layer_unions(n):
            for row in procedure_alpha(h).rows:
                if row.lambda_max is None:
                    continue
                s = build_state(h).signs().astype(np.int64).reshape(1 << (n - row.k), -1)
                assert row.lambda_max == float(np.linalg.eigvalsh((s @ s.T).astype(np.float64))[-1]) / (1 << n), (n, h)
                rows += 1
    assert rows


def test_procedure_exception_case_even_4():
    rep = procedure_alpha(build_family(Family.ALL_N_MINUS_1, 4))
    assert rep.smax_squared_exact == Fraction(1, 2)
    assert not rep.success
    assert rep.rows[0].infinity_norm == Fraction(3, 4)
    assert not rep.rows[0].within_bound
    assert rep.rows[0].lambda_max is not None
    assert abs(rep.alpha - GOLDEN_RATIO_ALPHA) <= 1e-12
    assert rep.alpha_exact is None


def test_procedure_exception_case_n3():
    rep = procedure_alpha(build_family(Family.ALL_GE_N_MINUS_1, 3))
    assert rep.success
    assert rep.alpha_exact == Fraction(3, 4)


def test_procedure_matches_closed_forms():
    for fam in (Family.ALL_N_MINUS_1, Family.ALL_GE_N_MINUS_1):
        for n in range(3, 10):
            rep = procedure_alpha(build_family(fam, n))
            want = closed_form_alpha(fam, n)
            assert abs(rep.alpha - float(want)) <= 1e-9, (fam, n)


def test_procedure_single_max_edge():
    for n in range(2, 9):
        rep = procedure_alpha(build_family(Family.SINGLE_MAX_EDGE, n))
        assert rep.alpha_exact == Fraction((1 << (n - 1)) - 1, 1 << (n - 1))
        assert rep.success


def test_procedure_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        procedure_alpha(canonicalize([[1, 2], [2, 3]], 3))


def _layer_unions(n):
    for mask in range(1 << n):
        layers = tuple(k for k in range(1, n + 1) if mask >> (k - 1) & 1)
        yield layers, Hypergraph(n, tuple(sorted(e for k in layers for e in combinations(range(1, n + 1), k))))


@given(hypergraphs(min_n=1, max_n=6))
def test_symmetric_layers_match_permutation_invariance_random(h):
    assert (_symmetric_layers(h) is not None) == is_permutation_invariant(build_state(h))


def test_symmetric_layers_match_permutation_invariance_layer_unions():
    for n in range(2, 8):
        for layers, h in _layer_unions(n):
            assert _symmetric_layers(h) == layers
            assert is_permutation_invariant(build_state(h))
            for extra in ([1], list(range(1, n))):  # breaks a layer unless n == 2
                broken = canonicalize(list(h.edges) + [extra], n)
                assert (_symmetric_layers(broken) is not None) == is_permutation_invariant(build_state(broken)), (n, layers)


def test_weight_gram_equals_dense_gram_on_every_layer_union():
    # Label 2**w - 1 has weight w, so those labels index the weight Gram
    # inside the dense one (at kept = 1 all of the single-qubit split); the
    # norm then checks the weight multiplicities.
    for n in range(2, 11):
        for layers, h in _layer_unions(n):
            signs = build_state(h).signs().astype(np.int64)
            for kept in range(1, n):
                s = signs.reshape(1 << kept, -1)
                dense = s @ s.T
                reps = [(1 << w) - 1 for w in range(kept + 1)]
                assert dense[np.ix_(reps, reps)].tolist() == _weight_gram(n, layers, kept), (n, layers, kept)
                norm = Fraction(int(np.abs(dense).sum(axis=1).max()), 1 << n)
                assert _weight_infinity_norm(n, layers, kept) == norm, (n, layers, kept)
            # the single-qubit split (kept = 1) has both diagonal entries 2**(n-1)
            assert _weight_gram(n, layers, 1)[0][0] == 1 << (n - 1)


def test_procedure_at_n16_stays_small():
    # the full int64 Gram at k = 2 alone would take 2 GiB
    for fam in Family:
        tracemalloc.start()
        try:
            rep = procedure_alpha(build_family(fam, 16), sweep_limit=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.success
        assert abs(rep.alpha - float(closed_form_alpha(fam, 16))) <= 1e-12
        assert peak < 64 << 20, (fam, peak)


def test_closed_form_values():
    assert closed_form_alpha(Family.SINGLE_MAX_EDGE, 2) == Fraction(1, 2)
    assert closed_form_alpha(Family.SINGLE_MAX_EDGE, 5) == Fraction(15, 16)
    a4 = closed_form_alpha(Family.ALL_N_MINUS_1, 4)
    assert isinstance(a4, float) and abs(a4 - GOLDEN_RATIO_ALPHA) <= 1e-15
    assert closed_form_alpha(Family.ALL_N_MINUS_1, 3) == Fraction(2, 4)
    assert closed_form_alpha(Family.ALL_N_MINUS_1, 6) == Fraction(26, 32)
    assert closed_form_alpha(Family.ALL_N_MINUS_1, 7) == Fraction(58, 64)
    assert closed_form_alpha(Family.ALL_GE_N_MINUS_1, 3) == Fraction(3, 4)
    assert closed_form_alpha(Family.ALL_GE_N_MINUS_1, 4) == Fraction(5, 8)
    assert closed_form_alpha(Family.ALL_GE_N_MINUS_1, 5) == Fraction(11, 16)
    assert closed_form_alpha(Family.ALL_GE_N_MINUS_1, 6) == Fraction(27, 32)


def test_closed_form_E_complements_alpha():
    for fam in Family:
        for n in range(3, 8):
            a = closed_form_alpha(fam, n)
            e = closed_form_E(fam, n)
            if isinstance(a, Fraction):
                assert a + e == 1
            else:
                assert abs(a + e - 1.0) <= 1e-15


def test_closed_form_range_checks():
    with pytest.raises(ValueError):
        closed_form_alpha(Family.ALL_N_MINUS_1, 2)
    with pytest.raises(ValueError):
        closed_form_alpha(Family.SINGLE_MAX_EDGE, 1)


def test_lower_bound_known_instances():
    rep = lower_bound_check(build_family(Family.SINGLE_MAX_EDGE, 3))
    assert rep.k_max == 3 and rep.bound == Fraction(1, 4) and rep.holds
    assert abs(rep.entanglement - 0.25) <= 1e-12

    drawn = lower_bound_check(canonicalize([[1, 2], [3, 4], [3, 4, 5], [2, 3, 4, 5]], 5))
    assert drawn.k_max == 4 and drawn.bound == Fraction(1, 8) and drawn.holds
    assert abs(drawn.entanglement - 0.125) <= 1e-9


def test_lower_bound_requires_connected():
    with pytest.raises(ValueError):
        lower_bound_check(canonicalize([[1, 2]], 3))


def test_reduced_structure_known_values():
    rep = reduced_structure_check(Family.ALL_N_MINUS_1, 7, 3)
    assert rep.deviation == 0
    assert rep.infinity_norm == Fraction(7, 8)
    assert rep.values == (0, 2, 6, 8)

    rep = reduced_structure_check(Family.SINGLE_MAX_EDGE, 6, 2)
    assert rep.deviation == 0
    assert rep.values == (2, 4)

    rep = reduced_structure_check(Family.ALL_N_MINUS_1, 6, 2)
    assert rep.deviation == 0
    assert -2 in rep.values


def test_reduced_structure_rejects_bad_split():
    with pytest.raises(ValueError):
        reduced_structure_check(Family.SINGLE_MAX_EDGE, 4, 0)
    with pytest.raises(ValueError):
        reduced_structure_check(Family.SINGLE_MAX_EDGE, 4, 3)


def test_reduced_structure_matches_the_dense_gram():
    # the dense oracle: the int64 sign table with one row per label of
    # vertices 1..n-k, and its Gram M @ M.T
    for fam in Family:
        for n in range(3, 12):
            signs = build_state(build_family(fam, n)).signs().astype(np.int64)
            for k in range(1, n - 1):
                m = signs.reshape(1 << (n - k), -1)
                gram = m @ m.T
                rep = reduced_structure_check(fam, n, k)
                assert rep.deviation == int(np.abs(gram - predicted_gram(fam, n, k)).max()), (fam, n, k)
                assert rep.values == tuple(np.unique(gram).tolist()), (fam, n, k)
                assert rep.infinity_norm == Fraction(int(np.abs(gram).sum(axis=1).max()), 1 << n), (fam, n, k)


def _residual_table_prediction(fam, n, k):
    # a constant block, k (or 1) times the outer square of the single full
    # edge on the m kept qubits, and the outer square of the residual state:
    # every (m-1)-subset, plus the full edge when the traced-out parity is odd
    m = n - k
    j = np.ones((1 << m, 1 << m), dtype=np.int64)
    g = build_state(Hypergraph(m, (tuple(range(1, m + 1)),))).signs().astype(np.int64)
    if fam is Family.SINGLE_MAX_EDGE:
        return ((1 << k) - 1) * j + np.outer(g, g)
    edges = [[v for v in range(1, m + 1) if v != drop] for drop in range(1, m + 1)]
    if (k if fam is Family.ALL_N_MINUS_1 else k + 1) % 2:
        edges.append(list(range(1, m + 1)))
    r = build_state(canonicalize(edges, m)).signs().astype(np.int64)
    return ((1 << k) - k - 1) * j + k * np.outer(g, g) + np.outer(r, r)


def test_predicted_gram_equals_the_residual_sign_tables():
    for fam in Family:
        least = 1 if fam is Family.SINGLE_MAX_EDGE else 2
        for n in range(1, 11):
            for k in range(-1, n + 2):
                if k < 0 or n - k < least:
                    with pytest.raises(ValueError, match=f"needs k >= 0 and n - k >= {least}"):
                        predicted_gram(fam, n, k)
                    continue
                got = predicted_gram(fam, n, k)
                assert got.dtype == np.int64, (fam, n, k)
                assert np.array_equal(got, _residual_table_prediction(fam, n, k)), (fam, n, k)


def test_predicted_gram_refuses_oversized_requests_before_allocating(monkeypatch):
    # (all-n-1, 18, 1) would be a 2**17-square int64 matrix, 128 GiB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^predicted Gram would be 131072-square; capped at n - k <= 12 "):
            predicted_gram(Family.ALL_N_MINUS_1, 18, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    with pytest.raises(ValueError, match=r"qubit count must lie in 1\.\.24"):
        predicted_gram(Family.SINGLE_MAX_EDGE, 25, 20)
    # the cap is the sweep's: n - k at the cap is built, one above it refused
    monkeypatch.setattr(entanglement, "DEFAULT_SWEEP_LIMIT", 3)
    assert predicted_gram(Family.ALL_N_MINUS_1, 5, 2).shape == (8, 8)
    with pytest.raises(ValueError, match=r"^predicted Gram would be 16-square; capped at n - k <= 3 \(8-square\)$"):
        predicted_gram(Family.ALL_N_MINUS_1, 5, 1)


def test_reduced_structure_at_n24_builds_no_table():
    # at k = 1 a dense Gram of the kept qubits would be 2**23-square
    tracemalloc.start()
    try:
        reports = [reduced_structure_check(fam, 24, k) for fam in Family for k in range(1, 23)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(rep.deviation == 0 for rep in reports)
    assert peak < 2 << 20, peak
    with pytest.raises(ValueError, match=r"qubit count must lie in 1\.\.24"):
        reduced_structure_check(Family.ALL_N_MINUS_1, 25, 1)
