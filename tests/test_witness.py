from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import nonempty_hypergraphs
from hyperwit import (
    Family,
    NoisyState,
    WitnessKind,
    WitnessSpec,
    build_family,
    canonicalize,
    closed_form_alpha,
    default_alpha,
    expectation,
    feasibility_check,
    max_cardinality,
    optimal_beta,
    projector_witness,
    robustness_table,
    stabilizer_witness,
)


def test_default_alpha_from_max_cardinality():
    assert default_alpha(canonicalize([[1, 2]], 2)) == Fraction(1, 2)
    assert default_alpha(canonicalize([[1, 2], [2, 3, 4]], 4)) == Fraction(3, 4)
    with pytest.raises(ValueError):
        default_alpha(canonicalize([[1], [2]], 2))


def test_optimal_beta():
    assert optimal_beta(4, Fraction(7, 8), 2) == Fraction(15, 4)
    assert optimal_beta(4, Fraction(7, 8), 1) == Fraction(31, 8)
    assert optimal_beta(5, 0.5, 2) == 4.0


def test_projector_robustness_series():
    # thresholds 2/(2^n - 1) for the single-max-edge family
    want = [Fraction(2, 3), Fraction(2, 7), Fraction(2, 15), Fraction(2, 31),
            Fraction(2, 63), Fraction(2, 127), Fraction(2, 255)]
    for n, thr in zip(range(2, 9), want):
        spec = projector_witness(build_family(Family.SINGLE_MAX_EDGE, n))
        assert spec.robustness == thr


def test_stabilizer_robustness_series():
    # thresholds 2/(n * 2^(n-1)) for the single-max-edge family
    want = [Fraction(1, 2), Fraction(1, 6), Fraction(1, 16), Fraction(1, 40),
            Fraction(1, 96), Fraction(1, 224), Fraction(1, 512)]
    for n, thr in zip(range(2, 9), want):
        spec = stabilizer_witness(build_family(Family.SINGLE_MAX_EDGE, n))
        assert spec.robustness == thr


def test_robustness_table_matches_individual_builds():
    rows = robustness_table(Family.SINGLE_MAX_EDGE, range(2, 9))
    assert [r.n for r in rows] == list(range(2, 9))
    for r in rows:
        h = build_family(Family.SINGLE_MAX_EDGE, r.n)
        assert r.projector == projector_witness(h).robustness
        assert r.stabilizer == stabilizer_witness(h).robustness


def test_feasibility_boundary():
    h = build_family(Family.SINGLE_MAX_EDGE, 4)
    alpha = Fraction(7, 8)
    beta = optimal_beta(4, alpha, 2)
    assert feasibility_check(h, alpha, beta, 2)
    assert not feasibility_check(h, alpha, beta - Fraction(1, 10**6), 2)
    # same beta with a weaker constant violates the zero-weight constraint
    assert not feasibility_check(h, alpha, beta, 1)
    assert feasibility_check(h, alpha, optimal_beta(4, alpha, 1), 1)
    # beta must stay below n
    assert not feasibility_check(h, alpha, Fraction(4), 2)


@given(st.integers(2, 7))
def test_expectation_sign_change_at_threshold(n):
    h = build_family(Family.SINGLE_MAX_EDGE, n)
    eps = Fraction(1, 10**9)
    for spec in (projector_witness(h), stabilizer_witness(h)):
        thr = spec.robustness
        assert expectation(spec, NoisyState(h, thr)) == 0
        assert expectation(spec, NoisyState(h, thr - eps)) < 0
        assert expectation(spec, NoisyState(h, thr + eps)) > 0


def test_expectation_crosses_zero_at_closed_form_thresholds():
    # Witnesses built with the closed-form alpha that robustness_table uses.
    # all-n-1 at n = 4 has the irrational alpha (3 + sqrt 5)/8 and no exact
    # threshold to cross.
    eps = Fraction(1, 10**9)
    skipped = []
    for fam in Family:
        for row in robustness_table(fam, range(3, 9)):
            alpha = closed_form_alpha(fam, row.n)
            if not isinstance(alpha, Fraction):
                skipped.append((fam, row.n))
                continue
            h = build_family(fam, row.n)
            for spec, thr in ((projector_witness(h, alpha), row.projector), (stabilizer_witness(h, alpha), row.stabilizer)):
                assert spec.robustness == thr
                assert expectation(spec, NoisyState(h, thr)) == 0, (fam, row.n, spec.kind)
                assert expectation(spec, NoisyState(h, thr - eps)) < 0, (fam, row.n, spec.kind)
                assert expectation(spec, NoisyState(h, thr + eps)) > 0, (fam, row.n, spec.kind)
    assert skipped == [(Family.ALL_N_MINUS_1, 4)]


def test_expectation_on_mismatched_state():
    # witness for one hypergraph evaluated on a different pure state
    g3 = build_family(Family.SINGLE_MAX_EDGE, 3)
    other = canonicalize([[1, 2]], 3)
    spec = projector_witness(g3)
    val = expectation(spec, NoisyState(other, Fraction(0)))
    # overlap between the two states is 3/4, so alpha - (3/4)^2
    assert val == Fraction(3, 4) - Fraction(9, 16)
    assert val > 0


@given(nonempty_hypergraphs(min_n=2, max_n=5, min_edge=2), st.fractions(0, 1))
def test_dense_expectation_agrees(h, p):
    for builder in (projector_witness, stabilizer_witness):
        spec = builder(h)
        noisy = NoisyState(h, p)
        assert abs(float(expectation(spec, noisy)) - oracles.dense_expectation(spec, noisy)) <= 1e-9


def test_witness_spec_validation():
    h = build_family(Family.SINGLE_MAX_EDGE, 3)
    with pytest.raises(ValueError):
        WitnessSpec(WitnessKind.PROJECTOR, h, Fraction(0), None, None, Fraction(1, 2))
    with pytest.raises(ValueError):
        WitnessSpec(WitnessKind.STABILIZER, h, Fraction(3, 4), Fraction(4), 2, Fraction(1, 2))
    with pytest.raises(ValueError):
        NoisyState(h, Fraction(3, 2))


def test_stabilizer_witness_requires_room_for_beta():
    # k_max = n edge: alpha = 1 - 2^{1-n}, beta = n - 2^{2-n} stays below n
    for n in range(2, 6):
        spec = stabilizer_witness(build_family(Family.SINGLE_MAX_EDGE, n))
        assert spec.beta == n - Fraction(1, 1 << (n - 2))
        assert spec.kind is WitnessKind.STABILIZER
        assert max_cardinality(spec.hypergraph) == n
