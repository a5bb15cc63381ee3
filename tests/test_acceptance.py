"""End-to-end acceptance checks.

One test per criterion, each printing a single PASS line on success (pytest
shows the FAIL itself otherwise). Tolerances and ranges are stated inline;
everything slower than a second is timed against its stated budget.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations, product

import numpy as np

import oracles
import hyperwit as hw
from hyperwit.cli import main as cli_main

TOL = 1e-9


def _random_hypergraph(rng: random.Random, n: int) -> hw.Hypergraph:
    edges = []
    for _ in range(rng.randint(0, 2 * n)):
        size = rng.randint(1, n)
        edges.append(rng.sample(range(1, n + 1), size))
    return hw.canonicalize(edges, n)


def test_criterion_01_closed_form_vs_brute_single_max():
    t0 = time.monotonic()
    for n in range(2, 13):
        state = hw.build_state(hw.build_family(hw.Family.SINGLE_MAX_EDGE, n))
        got = hw.alpha_multipartite(state).alpha
        want = ((1 << (n - 1)) - 1) / (1 << (n - 1))
        assert abs(got - want) <= TOL, (n, got, want)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 01: PASS (n=2..12 within {TOL}, {elapsed:.1f}s)")


def test_criterion_02_all_n_minus_1_values_with_exception():
    # the n=4 exception
    want4 = (3 + math.sqrt(5)) / 8
    for got in (
        hw.procedure_alpha(hw.build_family(hw.Family.ALL_N_MINUS_1, 4)).alpha,
        hw.alpha_multipartite(hw.build_state(hw.build_family(hw.Family.ALL_N_MINUS_1, 4))).alpha,
    ):
        assert abs(got - want4) <= TOL
    for n in (6, 8, 10):
        want = ((1 << (n - 1)) - n) / (1 << (n - 1))
        assert abs(hw.procedure_alpha(hw.build_family(hw.Family.ALL_N_MINUS_1, n)).alpha - want) <= TOL
        brute = hw.alpha_multipartite(hw.build_state(hw.build_family(hw.Family.ALL_N_MINUS_1, n))).alpha
        assert abs(brute - want) <= TOL
    for n in (3, 5, 7, 9, 11):
        want = ((1 << (n - 1)) - n + 1) / (1 << (n - 1))
        assert abs(hw.procedure_alpha(hw.build_family(hw.Family.ALL_N_MINUS_1, n)).alpha - want) <= TOL
        brute = hw.alpha_multipartite(hw.build_state(hw.build_family(hw.Family.ALL_N_MINUS_1, n))).alpha
        assert abs(brute - want) <= TOL
    print("criterion 02: PASS (exception 0.654508 at n=4; even 6..10, odd 3..11)")


def test_criterion_03_all_ge_n_minus_1_values_with_exception():
    got3 = hw.procedure_alpha(hw.build_family(hw.Family.ALL_GE_N_MINUS_1, 3))
    assert got3.alpha_exact == Fraction(3, 4)
    for n in (4, 6, 8, 10):
        want = ((1 << (n - 1)) - n + 1) / (1 << (n - 1))
        assert abs(hw.procedure_alpha(hw.build_family(hw.Family.ALL_GE_N_MINUS_1, n)).alpha - want) <= TOL
        brute = hw.alpha_multipartite(hw.build_state(hw.build_family(hw.Family.ALL_GE_N_MINUS_1, n))).alpha
        assert abs(brute - want) <= TOL
    for n in (5, 7, 9, 11):
        want = ((1 << (n - 1)) - n) / (1 << (n - 1))
        assert abs(hw.procedure_alpha(hw.build_family(hw.Family.ALL_GE_N_MINUS_1, n)).alpha - want) <= TOL
        brute = hw.alpha_multipartite(hw.build_state(hw.build_family(hw.Family.ALL_GE_N_MINUS_1, n))).alpha
        assert abs(brute - want) <= TOL
    print("criterion 03: PASS (exception 3/4 at n=3; even 4..10, odd 5..11)")


def test_criterion_04_stabilizer_formalism_exact():
    cases = [hw.build_family(hw.Family.SINGLE_MAX_EDGE, n) for n in range(2, 7)]
    cases += [hw.build_family(hw.Family.ALL_N_MINUS_1, n) for n in range(3, 7)]
    cases += [hw.build_family(hw.Family.ALL_GE_N_MINUS_1, n) for n in range(3, 7)]
    rng = random.Random(4)
    cases += [_random_hypergraph(rng, rng.randint(2, 6)) for _ in range(100)]
    for h in cases:
        state = hw.build_state(h)
        for i in range(1, h.n + 1):
            assert hw.apply_stabilizer(state, h, i) == state
        for u in range(1 << h.n):
            want = Fraction(1) if u == 0 else Fraction(0)
            assert hw.overlap(state, hw.basis_state(h, u)) == want
        assert hw.projector_identity_check(h) == 0.0
    print(f"criterion 04: PASS ({len(cases)} hypergraphs, all checks exact)")


def test_criterion_05_lower_bound_audit():
    t0 = time.monotonic()
    campaign = hw.lower_bound_campaign(200, 8, 2024)
    assert campaign.count == 200
    for row in campaign.rows:
        assert row.entanglement >= float(row.bound) - TOL, row
    assert campaign.all_hold

    audit = hw.reduction_audit(100, 7, 2024)
    assert audit.all_validated
    for row in audit.rows:
        assert row.certificates  # every bipartition produced a certificate
        assert row.min_margin >= -TOL

    drawn = hw.canonicalize([[1, 2], [3, 4], [3, 4, 5], [2, 3, 4, 5]], 5)
    cert = hw.reduce(drawn, hw.Bipartition.of(5, [1, 2, 3]))
    assert cert.bound == Fraction(1, 4)
    assert cert.validated
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    print(
        "criterion 05: PASS (200 instances hold, 100 audited on all cuts, "
        f"drawn instance certifies 1/4, {elapsed:.1f}s)"
    )


def test_criterion_06_robustness_series_exact():
    proj = [Fraction(2, 3), Fraction(2, 7), Fraction(2, 15), Fraction(2, 31),
            Fraction(2, 63), Fraction(2, 127), Fraction(2, 255)]
    stab = [Fraction(1, 2), Fraction(1, 6), Fraction(1, 16), Fraction(1, 40),
            Fraction(1, 96), Fraction(1, 224), Fraction(1, 512)]
    eps = Fraction(1, 10**12)
    for n, p_l, pt_l in zip(range(2, 9), proj, stab):
        h = hw.build_family(hw.Family.SINGLE_MAX_EDGE, n)
        w = hw.projector_witness(h)
        wt = hw.stabilizer_witness(h)
        assert w.robustness == p_l
        assert wt.robustness == pt_l
        for spec, thr in ((w, p_l), (wt, pt_l)):
            assert hw.expectation(spec, hw.NoisyState(h, thr)) == 0
            assert hw.expectation(spec, hw.NoisyState(h, thr - eps)) < 0
            assert hw.expectation(spec, hw.NoisyState(h, thr + eps)) > 0
    print("criterion 06: PASS (both series exact for n=2..8, sign flips at thresholds)")


def test_criterion_07_feasibility_and_dense_cross_check():
    for fam in hw.Family:
        for n in range(3, 11):
            h = hw.build_family(fam, n)
            alpha = hw.closed_form_alpha(fam, n)
            beta = hw.optimal_beta(n, alpha, 2)
            assert hw.feasibility_check(h, alpha, beta, 2), (fam, n)
            shade = beta - (Fraction(1, 10**6) if isinstance(beta, Fraction) else 1e-6)
            assert not hw.feasibility_check(h, alpha, shade, 2), (fam, n)
    for fam in hw.Family:
        for n in range(3, 9):
            h = hw.build_family(fam, n)
            for spec in (hw.projector_witness(h), hw.stabilizer_witness(h)):
                for p in (Fraction(0), Fraction(1, 3), spec.robustness):
                    noisy = hw.NoisyState(h, p)
                    exact = float(hw.expectation(spec, noisy))
                    dense = oracles.dense_expectation(spec, noisy)
                    assert abs(exact - dense) <= TOL, (fam, n, spec.kind, p)
    print("criterion 07: PASS (boundary feasibility n=3..10, dense trace agrees n<=8)")


def _two_qubit_exact_counts() -> tuple[int, int]:
    """Projector and {1,2}-block setting counts at n = 2, from dense matrices.

    For the edge {1,2}, K1 = XZ and K2 = ZX, so K1 K2 = (XZ)(ZX) = (-iY)(iY)
    = YY: the two-qubit product is one string and needs one setting, not the
    2^(2-1) = 2 of the closed form. |H><H| = (II + XZ + ZX + YY)/4, and every
    two of XZ, ZX, YY clash on some qubit, so no setting measures two of
    them and exactly 3 settings are needed, not (3^2 - 1)/2 = 4.
    """
    edges = [[1, 2]]
    k1 = oracles.stabilizer_matrix(2, edges, 1)
    k2 = oracles.stabilizer_matrix(2, edges, 2)
    assert np.allclose(k1, oracles.pauli_matrix("XZ"))
    assert np.allclose(k2, oracles.pauli_matrix("ZX"))
    assert np.allclose(k1 @ k2, oracles.pauli_matrix("YY"))
    block = 1  # K1 K2 is the single string YY

    amps = oracles.dense_state(2, edges)
    rho = np.outer(amps, amps)
    support = []
    for letters in ("".join(p) for p in product("IXYZ", repeat=2)):
        weight = np.trace(oracles.pauli_matrix(letters) @ rho).real / 4
        if abs(weight) > TOL and letters != "II":
            support.append(letters)
    assert sorted(support) == ["XZ", "YY", "ZX"], support
    for a, b in combinations(support, 2):
        assert any(x != "I" and y != "I" and x != y for x, y in zip(a, b)), (a, b)
    projector = len(support)  # pairwise clashing: one setting per string
    assert len(oracles.exact_min_settings(support)) == projector
    return projector, block


def test_criterion_08_setting_counts_as_stated():
    # The closed forms (3^n - 1)/2 per projector and 2^(k-1) per k-fold
    # product start at n = 3. At n = 2 the product K1 K2 collapses to the
    # single string YY, so the exact counts there are 3 and 1;
    # _two_qubit_exact_counts derives both from the dense oracle, not from
    # the counting code under test.
    projector2, block2 = _two_qubit_exact_counts()
    assert (projector2, block2) == (3, 1)
    failures = []
    for n in range(2, 7):
        h = hw.build_family(hw.Family.SINGLE_MAX_EDGE, n)
        got = len(hw.witness_settings(hw.projector_witness(h)))
        want, source = (projector2, "exact") if n == 2 else ((3**n - 1) // 2, "formula")
        if got != want:
            failures.append(f"projector count n={n}: got {got}, {source} {want}")
        if len(hw.witness_settings(hw.stabilizer_witness(h))) != n:
            failures.append(f"stabilizer count n={n}")
    for n in range(2, 9):
        h = hw.build_family(hw.Family.SINGLE_MAX_EDGE, n)
        for k in range(1, n + 1):
            want, source = (block2, "exact") if (n, k) == (2, 2) else (1 << (k - 1), "formula")
            for sub in combinations(range(1, n + 1), k):
                got = len(hw.canonical_settings(hw.decompose_stabilizer_product(h, sub)))
                if got != want:
                    failures.append(f"k-fold block n={n} T={sub}: got {got}, {source} {want}")
    for n in range(2, 7):
        h = hw.build_family(hw.Family.SINGLE_MAX_EDGE, n)
        for block in hw.projector_strings(h):
            for s in block:
                if s.y_count % 2:
                    failures.append(f"odd-Y string {s.letters}")
    if failures:
        print("criterion 08: FAIL:", "; ".join(failures))
    else:
        print(
            "criterion 08: PASS (closed forms from n=3, stabilizer counts, even-Y filter; "
            f"n=2 exact: projector {projector2} settings, K1K2 = YY in {block2} setting)"
        )
    assert not failures, failures


def test_criterion_09_reduced_state_structure():
    for fam in hw.Family:
        for n in range(4, 9):
            for k in range(2, n // 2 + 1):
                rep = hw.reduced_structure_check(fam, n, k)
                assert rep.deviation == 0, (fam, n, k)
                allowed = {1 << k, (1 << k) - 2, (1 << k) - 2 * k, (1 << k) - 2 * k - 2}
                assert set(rep.values) <= allowed, (fam, n, k, rep.values)
    for fam in (hw.Family.ALL_N_MINUS_1, hw.Family.ALL_GE_N_MINUS_1):
        for n in (6, 7):  # one even and one odd case each
            rep = hw.reduced_structure_check(fam, n, 2)
            assert -2 in rep.values, (fam, n)
    print("criterion 09: PASS (entrywise match n=4..8, k=2..n/2; -2 present at k=2)")


def test_criterion_10_deterministic_artifacts(tmp_path):
    jobs = [
        ("campaign.json", ["campaign", "lower-bound", "--count", "12", "--max-n", "6", "--seed", "2024"]),
        ("table.csv", ["witness", "table", "--family", "single-max", "--n-range", "2..8", "--format", "csv"]),
        ("reduce.json", ["reduce", "--edges", "[[1,2],[3,4],[3,4,5],[2,3,4,5]]", "--n", "5", "--partA", "1,2,3"]),
        ("ent.json", ["entanglement", "--family", "all-n-1", "--n", "6", "--mode", "procedure", "--cross-check"]),
    ]
    for name, argv in jobs:
        a = tmp_path / f"a_{name}"
        b = tmp_path / f"b_{name}"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), name
    doc = json.loads((tmp_path / "a_campaign.json").read_text())
    assert doc["all_hold"] is True
    print("criterion 10: PASS (4 artifact types byte-identical across reruns)")
