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
    canonical_settings,
    canonicalize,
    decompose_stabilizer_product,
    exact_min_settings,
    family_projector_count,
    greedy_min_settings,
    product_setting_count,
    projector_strings,
    projector_witness,
    stabilizer_strings,
    stabilizer_witness,
    witness_setting_count,
    witness_settings,
)
from hyperwit import measurement
from hyperwit.measurement import _CODE_OF_BYTE, _pauli_sum, dense_pauli
from hyperwit.states import dense_stabilizer


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
    assert s.setting() == "ZXZZ"
    assert s.y_count == 0


def test_canonical_settings_sorted_and_deduped():
    strs = [PauliString(p, Fraction(1)) for p in ("XI", "IX", "XX", "IZ")]
    assert canonical_settings(strs) == ("XX", "XZ", "ZX", "ZZ")
    with pytest.raises(ValueError):
        canonical_settings([PauliString("II", Fraction(1))])


def test_greedy_falls_back_to_canonical_when_first_fit_loses():
    strs = [PauliString(p, Fraction(1)) for p in ("IX", "XI", "XZ", "ZX")]
    assert canonical_settings(strs) == ("XZ", "ZX")
    assert greedy_min_settings(strs) == ("XZ", "ZX")
    assert exact_min_settings(strs) == ("XZ", "ZX")


def test_greedy_can_merge_below_canonical():
    # per-string completion keeps XI and IZ apart; first-fit shares one setting
    strs = [PauliString(p, Fraction(1)) for p in ("XI", "IZ")]
    assert canonical_settings(strs) == ("XZ", "ZZ")
    assert greedy_min_settings(strs) == ("XZ",)


@given(nonempty_hypergraphs(min_n=2, max_n=6, min_edge=2))
@settings(max_examples=40)
def test_greedy_never_exceeds_canonical(h):
    spec = projector_witness(h)
    c = witness_setting_count(spec, SettingMode.CANONICAL)
    g = witness_setting_count(spec, SettingMode.GREEDY)
    assert g <= c


def test_exact_min_is_a_lower_bound_on_tiny_inputs():
    g2 = build_family(Family.SINGLE_MAX_EDGE, 2)
    strs = [s for block in projector_strings(g2) for s in block]
    exact = exact_min_settings(strs)
    assert len(exact) == 3
    assert set(exact) == {"XZ", "YY", "ZX"}
    assert len(exact) <= len(greedy_min_settings(strs))


def test_projector_witness_counts():
    # truth diverges from the coarser closed form at n=2: YY measures the
    # full two-qubit product in one setting, not two
    assert witness_setting_count(projector_witness(build_family(Family.SINGLE_MAX_EDGE, 2))) == 3
    for n in range(3, 7):
        spec = projector_witness(build_family(Family.SINGLE_MAX_EDGE, n))
        assert witness_setting_count(spec) == family_projector_count(n)
    assert [family_projector_count(n) for n in range(2, 7)] == [4, 13, 40, 121, 364]


def test_stabilizer_witness_settings_are_one_per_qubit():
    for n in range(2, 7):
        h = build_family(Family.SINGLE_MAX_EDGE, n)
        spec = stabilizer_witness(h)
        got = witness_settings(spec, SettingMode.CANONICAL)
        want = tuple(sorted("Z" * (i - 1) + "X" + "Z" * (n - i) for i in range(1, n + 1)))
        assert got == want
        assert len(stabilizer_strings(h)) == (n * (1 << (n - 1)) if n >= 3 else 2)


def test_settings_per_product_match_block_sizes():
    for n in (3, 4, 5):
        h = build_family(Family.SINGLE_MAX_EDGE, n)
        for k in range(1, n + 1):
            for sub in combinations(range(1, n + 1), k):
                assert product_setting_count(h, sub) == 1 << (k - 1)
    # the two-qubit exception again
    assert product_setting_count(build_family(Family.SINGLE_MAX_EDGE, 2), (1, 2)) == 1


def test_projector_strings_stream_all_subsets():
    h = canonicalize([[1, 2], [2, 3]], 3)
    blocks = list(projector_strings(h))
    assert len(blocks) == (1 << h.n) - 1


def test_symbolic_cap_enforced():
    h = build_family(Family.SINGLE_MAX_EDGE, 5)
    spec = projector_witness(h)
    with pytest.raises(ValueError):
        witness_settings(spec, SettingMode.CANONICAL, symbolic_limit=4)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scatter_builder_matches_kron_for_every_string(n):
    for letters in map("".join, product("IXYZ", repeat=n)):
        codes = _CODE_OF_BYTE[np.frombuffer(letters.encode(), dtype=np.uint8)].reshape(1, n)
        built = _pauli_sum(codes, np.ones(1))
        assert np.array_equal(built, dense_pauli(letters)), letters
        assert np.array_equal(built, oracles.pauli_matrix(letters)), letters


def test_scatter_builder_sums_with_coefficients():
    letters = ("XZY", "IIZ", "YYI")
    coefficients = np.array([0.5, -0.25, 2.0])
    codes = _CODE_OF_BYTE[np.frombuffer("".join(letters).encode(), dtype=np.uint8)].reshape(3, 3)
    want = sum(c * oracles.pauli_matrix(p) for c, p in zip(coefficients, letters))
    assert np.allclose(_pauli_sum(codes, coefficients), want, atol=1e-15)


def _negate_one_weight(walsh_hadamard):
    def corrupted(values):
        out = walsh_hadamard(values)
        nonzero = np.flatnonzero(out)
        out[nonzero[len(nonzero) // 2]] *= -1
        return out

    return corrupted


def test_dense_check_catches_a_negated_weight(monkeypatch):
    h = build_family(Family.ALL_N_MINUS_1, 5)
    monkeypatch.setattr(measurement, "_walsh_hadamard", _negate_one_weight(measurement._walsh_hadamard))
    with pytest.raises(ValueError, match="dense product"):
        decompose_stabilizer_product(h, (1, 3, 4))
    for spec in (projector_witness(h), stabilizer_witness(h)):
        for mode in SettingMode:
            with pytest.raises(ValueError, match="dense product"):
                witness_settings(spec, mode)


def test_odd_y_rule_is_asserted(monkeypatch):
    h = build_family(Family.SINGLE_MAX_EDGE, 3)
    original = measurement._walsh_hadamard

    def odd_weight(values):
        out = original(values)
        out[0b100] = 8  # the mask with Y on vertex 1 alone, for T = {1}
        return out

    monkeypatch.setattr(measurement, "_walsh_hadamard", odd_weight)
    with pytest.raises(ValueError, match="odd Y count"):
        decompose_stabilizer_product(h, (1,))


def test_greedy_matches_letter_first_fit():
    # reference: first-fit over letter strings, one character at a time
    def letter_first_fit(patterns):
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

    for h in (build_family(Family.ALL_N_MINUS_1, 5), canonicalize([[1, 2, 3], [3, 4], [2, 4, 5], [1, 5]], 5)):
        for spec in (projector_witness(h), stabilizer_witness(h)):
            patterns = sorted({s.letters for s in _witness_strings(spec)})
            assert witness_settings(spec, SettingMode.GREEDY) == letter_first_fit(patterns)
            assert witness_settings(spec, SettingMode.CANONICAL) == canonical_settings(_witness_strings(spec))


def _witness_strings(spec):
    if spec.kind is WitnessKind.PROJECTOR:
        return [s for block in projector_strings(spec.hypergraph) for s in block]
    return list(stabilizer_strings(spec.hypergraph))
