import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import nonempty_hypergraphs
from hyperwit import (
    Family,
    PauliString,
    SettingMode,
    WitnessKind,
    build_family,
    canonicalize,
    decompose_stabilizer_product,
    projector_witness,
    stabilizer_witness,
    witness_settings,
)
from hyperwit import measurement, states
from hyperwit.campaign import random_connected_hypergraph
from hyperwit.measurement import _exact_sum, _keys
from hyperwit.states import SignState, build_state, vertices_of_label


def test_two_qubit_decompositions():
    g2 = build_family(Family.SINGLE_MAX_EDGE, 2)
    k1 = decompose_stabilizer_product(g2, (1,))
    assert [(s.letters, s.coefficient) for s in k1] == [("XZ", Fraction(1))]
    k12 = decompose_stabilizer_product(g2, (1, 2))
    assert [(s.letters, s.coefficient) for s in k12] == [("YY", Fraction(1))]


def test_three_qubit_single_stabilizer():
    g3 = build_family(Family.SINGLE_MAX_EDGE, 3)
    strs = decompose_stabilizer_product(g3, (1,))
    table = {s.letters: s.coefficient for s in strs}
    assert table == {
        "XII": Fraction(1, 2),
        "XIZ": Fraction(1, 2),
        "XZI": Fraction(1, 2),
        "XZZ": Fraction(-1, 2),
    }


@given(nonempty_hypergraphs(min_n=2, max_n=5), st.data())
def test_decomposition_reconstructs_dense_product(h, data):
    subset = data.draw(
        st.sets(st.integers(1, h.n), min_size=1, max_size=h.n).map(lambda s: tuple(sorted(s)))
    )
    strs = decompose_stabilizer_product(h, subset)
    recon = np.zeros((1 << h.n, 1 << h.n), dtype=complex)
    for s in strs:
        recon += float(s.coefficient) * oracles.pauli_matrix(s.letters)
    ref = np.eye(1 << h.n, dtype=complex)
    for i in sorted(subset, reverse=True):
        ref = oracles.stabilizer_matrix(h.n, h.edges, i).astype(complex) @ ref
    assert np.allclose(recon, ref, atol=1e-12)


@given(nonempty_hypergraphs(min_n=2, max_n=5), st.data())
def test_every_emitted_string_has_even_y_count(h, data):
    subset = data.draw(
        st.sets(st.integers(1, h.n), min_size=1, max_size=h.n).map(lambda s: tuple(sorted(s)))
    )
    for s in decompose_stabilizer_product(h, subset):
        assert s.y_count % 2 == 0
        assert s.coefficient != 0


def test_pauli_string_setting_completion():
    s = PauliString("IXZI", Fraction(1, 2))
    assert s.y_count == 0


def test_greedy_falls_back_to_canonical_when_first_fit_loses():
    patterns = ("IX", "XI", "XZ", "ZX")
    assert _reference_settings(patterns, SettingMode.CANONICAL) == ("XZ", "ZX")
    assert _first_fit(patterns) == ("XZ", "ZX")
    assert oracles.exact_min_settings(patterns) == ("XZ", "ZX")


def test_greedy_can_merge_below_canonical():
    # per-string completion keeps XI and IZ apart; first-fit shares one setting
    patterns = ("XI", "IZ")
    assert _reference_settings(patterns, SettingMode.CANONICAL) == ("XZ", "ZZ")
    assert _first_fit(patterns) == ("XZ",)


@given(nonempty_hypergraphs(min_n=2, max_n=6, min_edge=2))
@settings(max_examples=40)
def test_greedy_never_exceeds_canonical(h):
    spec = projector_witness(h)
    c = len(witness_settings(spec, SettingMode.CANONICAL))
    g = len(witness_settings(spec, SettingMode.GREEDY))
    assert g <= c


def test_exact_min_is_a_lower_bound_on_tiny_inputs():
    g2 = build_family(Family.SINGLE_MAX_EDGE, 2)
    exact = oracles.exact_min_settings(s.letters for s in _witness_strings(projector_witness(g2)))
    assert len(exact) == 3
    assert set(exact) == {"XZ", "YY", "ZX"}
    assert len(exact) <= len(witness_settings(projector_witness(g2), SettingMode.GREEDY))


def test_projector_witness_counts():
    # truth diverges from the coarser closed form at n=2: YY measures the
    # full two-qubit product in one setting, not two
    assert len(witness_settings(projector_witness(build_family(Family.SINGLE_MAX_EDGE, 2)))) == 3
    for n in range(3, 7):
        spec = projector_witness(build_family(Family.SINGLE_MAX_EDGE, n))
        assert len(witness_settings(spec)) == (3**n - 1) // 2


def test_stabilizer_witness_settings_are_one_per_qubit():
    for n in range(2, 7):
        h = build_family(Family.SINGLE_MAX_EDGE, n)
        spec = stabilizer_witness(h)
        got = witness_settings(spec, SettingMode.CANONICAL)
        want = tuple(sorted("Z" * (i - 1) + "X" + "Z" * (n - i) for i in range(1, n + 1)))
        assert got == want
        assert len(_stabilizer_strings(h)) == (n * (1 << (n - 1)) if n >= 3 else 2)


def test_settings_per_product_match_block_sizes():
    for n in (3, 4, 5):
        h = build_family(Family.SINGLE_MAX_EDGE, n)
        for k in range(1, n + 1):
            for sub in combinations(range(1, n + 1), k):
                assert len(_canonical(decompose_stabilizer_product(h, sub))) == 1 << (k - 1)
    # the two-qubit exception again
    assert len(_canonical(decompose_stabilizer_product(build_family(Family.SINGLE_MAX_EDGE, 2), (1, 2)))) == 1


def test_symbolic_cap_enforced():
    h = build_family(Family.SINGLE_MAX_EDGE, 5)
    spec = projector_witness(h)
    with pytest.raises(ValueError):
        witness_settings(spec, SettingMode.CANONICAL, symbolic_limit=4)
    with pytest.raises(ValueError, match="stabilizer decomposition capped at n <= 4, got n=5"):
        witness_settings(stabilizer_witness(h), SettingMode.GREEDY, symbolic_limit=4)
    # canonical stabilizer settings come from n alone and are not capped
    assert len(witness_settings(stabilizer_witness(h), SettingMode.CANONICAL, symbolic_limit=4)) == 5


def _masks(letters):
    """X-part and Z-part bitmasks of letter strings, qubit 1 most significant."""
    n = len(letters[0])
    x = np.array([sum(1 << (n - 1 - q) for q, c in enumerate(p) if c in "XY") for p in letters])
    z = np.array([sum(1 << (n - 1 - q) for q, c in enumerate(p) if c in "YZ") for p in letters])
    return x, z, n


def _exact_matrix(letters, numerators):
    """The exact builder's one block for the given strings, as complex."""
    x, z, n = _masks(letters)
    rows = np.zeros(len(letters), dtype=np.int64)
    built = _exact_sum(n, rows, _keys(x, z, n), np.asarray(numerators, dtype=np.int64), 1)[0]
    return built[..., 0] + 1j * built[..., 1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scatter_builder_matches_kron_for_every_string(n):
    for letters in map("".join, product("IXYZ", repeat=n)):
        built = _exact_matrix([letters], [1])
        assert np.array_equal(built, oracles.pauli_matrix(letters)), letters


def test_scatter_builder_sums_with_coefficients():
    letters = ("XZY", "IIZ", "YYI")
    numerators = [2, -1, 8]
    want = sum(c * oracles.pauli_matrix(p) for c, p in zip(numerators, letters))
    assert np.array_equal(_exact_matrix(letters, numerators), want)


def test_scatter_builder_keeps_blocks_apart():
    x, z, n = _masks(("XY", "ZI", "YY"))
    built = _exact_sum(n, np.array([0, 1, 1]), _keys(x, z, n), np.array([3, -2, 5]), 2)
    as_complex = built[..., 0] + 1j * built[..., 1]
    assert np.array_equal(as_complex[0], 3 * oracles.pauli_matrix("XY"))
    assert np.array_equal(as_complex[1], -2 * oracles.pauli_matrix("ZI") + 5 * oracles.pauli_matrix("YY"))


def _corrupt_one_weight(walsh_hadamard, change):
    """The transform with the middle nonzero weight of the stacked output changed."""

    def corrupted(values):
        out = walsh_hadamard(values)
        flat = out.reshape(-1)
        nonzero = np.flatnonzero(flat)
        flat[nonzero[len(nonzero) // 2]] = change(flat[nonzero[len(nonzero) // 2]])
        return out

    return corrupted


def _all_witness_settings(h):
    for spec in (projector_witness(h), stabilizer_witness(h)):
        for mode in SettingMode:
            yield lambda spec=spec, mode=mode: witness_settings(spec, mode)


def _dense_check_catches(monkeypatch, change):
    h = build_family(Family.ALL_N_MINUS_1, 5)
    monkeypatch.setattr(measurement, "_walsh_hadamard", _corrupt_one_weight(measurement._walsh_hadamard, change))
    with pytest.raises(ValueError, match="dense product"):
        decompose_stabilizer_product(h, (1, 3, 4))
    for run in _all_witness_settings(h):
        with pytest.raises(ValueError, match="dense product"):
            run()


def test_dense_check_catches_a_negated_weight(monkeypatch):
    _dense_check_catches(monkeypatch, lambda w: -w)


def test_dense_check_catches_a_numerator_shifted_by_one(monkeypatch):
    # the smallest change an integer numerator can take
    _dense_check_catches(monkeypatch, lambda w: w + 1)


def test_dense_check_compares_imaginary_parts():
    # K = X on one qubit: 2**1 * K is 2 X; adding 2 Y leaves every real part unchanged
    labels, diagonals = np.array([1]), np.array([[1, 1]], dtype=np.int8)
    measurement._check_dense(1, labels, diagonals, np.array([0]), np.array([1]), np.array([0]), np.array([2]))
    with pytest.raises(ValueError, match="dense product"):
        measurement._check_dense(
            1, labels, diagonals, np.array([0, 0]), np.array([1, 1]), np.array([0, 1]), np.array([2, 2])
        )


def test_odd_y_rule_is_asserted(monkeypatch):
    h = build_family(Family.SINGLE_MAX_EDGE, 3)
    original = measurement._walsh_hadamard

    def odd_weight(values):
        out = original(values)
        out[..., 0b100] = 8  # in the row of T = {1}, the mask with Y on vertex 1 alone
        return out

    monkeypatch.setattr(measurement, "_walsh_hadamard", odd_weight)
    with pytest.raises(ValueError, match="odd Y count"):
        decompose_stabilizer_product(h, (1,))
    for run in _all_witness_settings(h):
        with pytest.raises(ValueError, match="odd Y count"):
            run()


def _letter_first_fit(patterns):
    """First-fit over letter strings, one character at a time."""
    groups = []
    for p in patterns:
        for g in groups:
            if all(c == "I" or g[i] is None or g[i] == c for i, c in enumerate(p)):
                for i, c in enumerate(p):
                    if c != "I":
                        g[i] = c
                break
        else:
            groups.append([c if c != "I" else None for c in p])
    merged = sorted({"".join(c or "Z" for c in g) for g in groups})
    canonical = sorted({p.replace("I", "Z") for p in patterns})
    return tuple(merged if len(merged) <= len(canonical) else canonical)


def test_greedy_matches_letter_first_fit():
    for h in (build_family(Family.ALL_N_MINUS_1, 5), canonicalize([[1, 2, 3], [3, 4], [2, 4, 5], [1, 5]], 5)):
        for spec in (projector_witness(h), stabilizer_witness(h)):
            patterns = sorted({s.letters for s in _witness_strings(spec)})
            assert witness_settings(spec, SettingMode.GREEDY) == _letter_first_fit(patterns)
            assert witness_settings(spec, SettingMode.CANONICAL) == _reference_settings(patterns, SettingMode.CANONICAL)


def _projector_strings(h):
    """Expansion of every nonempty subset product, one block each, by subset
    size, then lexicographic."""
    return [decompose_stabilizer_product(h, vs) for k in range(1, h.n + 1) for vs in combinations(h.vertices(), k)]


def _stabilizer_strings(h):
    """Strings of the n single stabilizers, concatenated in vertex order."""
    return tuple(s for v in h.vertices() for s in decompose_stabilizer_product(h, (v,)))


def _witness_strings(spec):
    if spec.kind is WitnessKind.PROJECTOR:
        return [s for block in _projector_strings(spec.hypergraph) for s in block]
    return list(_stabilizer_strings(spec.hypergraph))


def _canonical(strings):
    return _reference_settings([s.letters for s in strings], SettingMode.CANONICAL)


def _first_fit(patterns):
    """measurement._first_fit on the sorted distinct keys of letter strings."""
    keys = sorted({int("".join(str("IXYZ".index(c)) for c in p), 4) for p in patterns})
    return measurement._first_fit(np.array(keys, dtype=np.int64), len(patterns[0]))


def _connected(n, seed):
    return random_connected_hypergraph(n, random.Random(f"measurement:{n}:{seed}"))


def _reference_settings(patterns, mode):
    """Today's settings from letter strings: identity-to-Z completion, or letter first-fit."""
    if mode is SettingMode.CANONICAL:
        return tuple(sorted({p.replace("I", "Z") for p in patterns}))
    return _letter_first_fit(sorted(set(patterns)))


@pytest.mark.parametrize("n", range(2, 9))
def test_stacked_engine_matches_one_subset_batches(n):
    for seed in range(2 if n <= 6 else 1):
        h = _connected(n, seed)
        for spec in (projector_witness(h), stabilizer_witness(h)):
            patterns = [s.letters for s in _witness_strings(spec)]
            canonical = _reference_settings(patterns, SettingMode.CANONICAL)
            assert witness_settings(spec, SettingMode.CANONICAL) == canonical
            # the letter-by-letter first-fit takes tens of seconds on the projector strings at n = 8
            greedy = witness_settings(spec, SettingMode.GREEDY)
            if len(patterns) <= 2000:
                assert greedy == _reference_settings(patterns, SettingMode.GREEDY), (h, spec.kind)
            else:
                assert greedy == _first_fit(patterns), (h, spec.kind)


@pytest.mark.parametrize("entries", [1, 1 << 9, 1 << 12])
def test_chunking_does_not_change_the_expansion(monkeypatch, entries):
    # small budgets split the subsets into many chunks, down to one subset each
    hs = [_connected(n, 0) for n in (3, 5, 7)]
    specs = [spec for h in hs for spec in (projector_witness(h), stabilizer_witness(h))]
    want = [witness_settings(spec, mode) for spec in specs for mode in SettingMode]
    monkeypatch.setattr(measurement, "_CHUNK_ENTRIES", entries)
    assert [witness_settings(spec, mode) for spec in specs for mode in SettingMode] == want


@pytest.mark.parametrize("validate", [False, True])
def test_subset_chunks_hold_every_product_diagonal(monkeypatch, validate):
    monkeypatch.setattr(measurement, "_CHUNK_ENTRIES", 1 << 6)
    if not validate:
        monkeypatch.setattr(measurement, "DENSE_VALIDATE_LIMIT", 0)
    chunks = []
    transform = measurement._walsh_hadamard

    def recording(diagonals):
        chunks.append(diagonals)
        return transform(diagonals)

    monkeypatch.setattr(measurement, "_walsh_hadamard", recording)
    # the edge {2} gives K_2 a global -1
    hs = [_connected(n, 1) for n in range(2, 9)] + [canonicalize([[2], [1, 2, 3], [3, 4]], 4)]
    for h in hs:
        n = h.n
        chunks.clear()
        witness_settings(projector_witness(h))
        rows = max(1, measurement._CHUNK_ENTRIES >> (2 * n if n <= measurement.DENSE_VALIDATE_LIMIT else n))
        assert len(chunks) == -(-((1 << n) - 1) // rows)
        diagonals = np.concatenate(chunks)
        assert len(diagonals) == (1 << n) - 1
        for label, diagonal in zip(range(1, 1 << n), diagonals):
            vs = vertices_of_label(n, label)
            assert np.array_equal(diagonal, oracles.product_diagonal(n, h.edges, vs)), (h, vs)


class _OracleCalled(Exception):
    pass


@pytest.mark.parametrize("oracle", ["_check_dense", "stabilizer_defect"])
def test_settings_oracles_run_exactly_up_to_the_dense_limit(monkeypatch, oracle):
    """Both routes run the dense check and the stabilizer tie-in at n = 6
    and neither at n = 7."""

    def raising(*args):
        raise _OracleCalled

    monkeypatch.setattr(measurement, oracle, raising)
    for n in (6, 7):
        h = _connected(n, 0)
        routes = [lambda: witness_settings(projector_witness(h), SettingMode.CANONICAL),
                  lambda: decompose_stabilizer_product(h, h.vertices())]
        for route in routes:
            if n <= measurement.DENSE_VALIDATE_LIMIT:
                with pytest.raises(_OracleCalled):
                    route()
            else:
                route()


@pytest.mark.parametrize("mode", list(SettingMode))
@pytest.mark.parametrize("witness", [projector_witness, stabilizer_witness])
def test_singleton_check_catches_a_corrupted_sign_table(monkeypatch, witness, mode):
    h = _connected(5, 0)
    neg = build_state(h).neg ^ (1 << 11)
    monkeypatch.setattr(measurement, "build_state", lambda g: SignState(g.n, neg))
    with pytest.raises(ValueError, match="sign table disagrees"):
        witness_settings(witness(h), mode)


@pytest.mark.parametrize("mode", list(SettingMode))
@pytest.mark.parametrize("witness", [projector_witness, stabilizer_witness])
def test_singleton_check_catches_a_corrupted_edge_side(monkeypatch, witness, mode):
    spec = witness(_connected(5, 0))
    link_masks = states._link_masks
    # flip one label of vertex 1's edge-built stabilizer; the table stays right
    monkeypatch.setattr(states, "_link_masks", lambda h: (link_masks(h)[0] ^ (1 << 11), *link_masks(h)[1:]))
    with pytest.raises(ValueError, match="sign table disagrees"):
        witness_settings(spec, mode)


def test_keys_follow_letter_order_beyond_one_byte():
    rng = random.Random(5)
    for n in (3, 8, 9, 13):
        letters = sorted({"".join(rng.choice("IXYZ") for _ in range(n)) for _ in range(200)})
        x, z, _ = _masks(letters)
        keys = _keys(x, z, n)
        assert keys.tolist() == [int("".join(str("IXYZ".index(c)) for c in p), 4) for p in letters]
        completed = _keys(x, z, n, complete=True)
        assert completed.tolist() == [int("".join(str("IXYZ".index(c)) for c in p.replace("I", "Z")), 4)
                                      for p in letters]


@pytest.mark.parametrize("n", range(2, 10))
def test_canonical_stabilizer_settings_from_n_alone(n):
    for seed in range(3):
        h = _connected(n, seed)
        want = _canonical(_stabilizer_strings(h))
        assert measurement._stabilizer_settings(n) == want
        assert witness_settings(stabilizer_witness(h)) == want


def test_canonical_stabilizer_settings_need_no_expansion():
    h = build_family(Family.ALL_N_MINUS_1, 22)
    tracemalloc.start()
    try:
        settings_ = witness_settings(stabilizer_witness(h))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert settings_[0] == "X" + "Z" * 21 and settings_[-1] == "Z" * 21 + "X"
    assert len(settings_) == 22
    assert peak < 1 << 20, peak  # one 2**22-entry diagonal alone is 32 MiB


def test_projector_settings_stay_in_bounded_memory():
    spec = projector_witness(build_family(Family.ALL_N_MINUS_1, 10))
    tracemalloc.start()
    try:
        count = len(witness_settings(spec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == (3**10 - 1) // 2
    # the 29524 setting strings take about 2 MiB; the whole (subsets, 2**n) table would add 8 MiB
    assert peak < 4 << 20, peak


def test_key_table_and_sorted_merge_agree(monkeypatch):
    hs = [_connected(n, 2) for n in (3, 5, 7)]
    specs = [spec for h in hs for spec in (projector_witness(h), stabilizer_witness(h))]
    want = [witness_settings(spec, mode) for spec in specs for mode in SettingMode]
    monkeypatch.setattr(measurement, "_KEY_TABLE", 1)
    monkeypatch.setattr(measurement, "_CHUNK_ENTRIES", 1 << 8)
    assert [witness_settings(spec, mode) for spec in specs for mode in SettingMode] == want
