"""Exhaustive census: every connected hypergraph on n = 2..4 qubits with
edges of cardinality >= 2, the 3- and 4-qubit space classified by Guehne
et al., J. Phys. A 47, 335303 (2014). Each instance goes through the
reduction on every cut, the setting engine for both witnesses in both
modes, all inside the runtime oracles' reach, and the projector identity
against its dense oracle."""

from itertools import combinations

import numpy as np

import oracles
from hyperwit import (
    SettingMode,
    canonicalize,
    enumerate_bipartitions,
    is_connected,
    projector_identity_check,
    projector_witness,
    reduce as locc_reduce,
    stabilizer_witness,
    witness_settings,
)
from hyperwit import measurement
from hyperwit.locc import ORACLE_LIMIT


def _census():
    out = []
    for n in range(2, 5):
        edges = [e for k in range(2, n + 1) for e in combinations(range(1, n + 1), k)]
        for mask in range(1, 1 << len(edges)):
            h = canonicalize([e for i, e in enumerate(edges) if mask >> i & 1], n)
            if is_connected(h):
                out.append(h)
    return out


CENSUS = _census()


def test_census_size():
    assert [sum(h.n == n for h in CENSUS) for n in range(2, 5)] == [1, 12, 1990]


def test_census_reductions_validate_on_every_cut():
    assert max(h.n for h in CENSUS) <= ORACLE_LIMIT
    certs = 0
    for h in CENSUS:
        for bp in enumerate_bipartitions(h.n):
            cert = locc_reduce(h, bp)
            certs += 1
            assert cert.validated, (h, bp)
            assert any(set(b.final_edge) & set(bp.part_a) and set(b.final_edge) & set(bp.part_b)
                       for b in cert.branches), (h, bp)
    assert certs == 13967


def test_census_settings_run_through_the_dense_check(monkeypatch):
    assert max(h.n for h in CENSUS) <= measurement.DENSE_VALIDATE_LIMIT
    checks = []
    check = measurement._check_dense

    def counting(*args):
        checks.append(None)
        check(*args)

    monkeypatch.setattr(measurement, "_check_dense", counting)
    calls = 0
    for h in CENSUS:
        for witness in (projector_witness, stabilizer_witness):
            spec = witness(h)
            counts = {}
            for mode in SettingMode:
                checks.clear()
                counts[mode] = len(witness_settings(spec, mode))
                calls += 1
                assert checks, (h, spec.kind, mode)
            assert 0 < counts[SettingMode.GREEDY] <= counts[SettingMode.CANONICAL], (h, spec.kind)
        assert counts[SettingMode.CANONICAL] == h.n  # the stabilizer witness: X on vertex i, Z elsewhere
    assert calls == 8012


def test_census_projector_identity_matches_the_dense_oracle():
    for h in CENSUS:
        outer, prod, group_sum = oracles.projector_forms(h.n, h.edges)
        assert np.array_equal(prod, group_sum), h
        assert projector_identity_check(h) == 0.0 and np.array_equal(outer, prod), h
