import random

import pytest

import hyperwit.campaign as campaign
from hyperwit import (
    is_connected,
    lower_bound_campaign,
    random_connected_hypergraph,
    reduction_audit,
)
from hyperwit.locc import ORACLE_LIMIT


def test_random_connected_hypergraph_properties():
    rng = random.Random(13)
    for _ in range(50):
        h = random_connected_hypergraph(rng.randint(2, 6), rng)
        assert h.edges
        assert is_connected(h)


def test_random_generation_deterministic():
    a = [random_connected_hypergraph(5, random.Random(3)) for _ in range(5)]
    b = [random_connected_hypergraph(5, random.Random(3)) for _ in range(5)]
    assert a == b


def test_lower_bound_campaign_report():
    rep = lower_bound_campaign(10, 6, 17)
    assert rep.count == 10 and rep.seed == 17 and rep.max_n == 6
    assert len(rep.rows) == 10
    assert rep.all_hold
    for row in rep.rows:
        assert row.holds
        assert row.bound.denominator == 1 << (row.k_max - 1)
        assert 2 <= row.hypergraph.n <= 6


def test_reduction_audit_report():
    rep = reduction_audit(8, 5, 23)
    assert len(rep.rows) == 8
    assert rep.all_validated
    for row in rep.rows:
        assert row.all_validated
        assert row.certificates
        assert row.min_margin >= -1e-9


@pytest.mark.parametrize("audit", [lower_bound_campaign, reduction_audit])
@pytest.mark.parametrize("count,max_n,message", [(0, 5, "count"), (3, 1, "max_n")])
def test_campaign_sizes_refused(audit, count, max_n, message):
    with pytest.raises(ValueError, match=f"^{message} must be at least"):
        audit(count, max_n, 1)


def test_campaign_max_n_above_its_cap_refused(monkeypatch):
    # refused before the first draw
    monkeypatch.setattr(campaign, "random_connected_hypergraph", None)
    with pytest.raises(ValueError, match="^max_n 13 exceeds the sweep cap 12$"):
        lower_bound_campaign(12, 13, 2)
    with pytest.raises(ValueError, match="^max_n 9 exceeds the sweep cap 8$"):
        lower_bound_campaign(3, 9, 1, sweep_limit=8)
    with pytest.raises(ValueError, match=f"^max_n {ORACLE_LIMIT + 1} exceeds the rewrite-oracle limit {ORACLE_LIMIT}$"):
        reduction_audit(1, ORACLE_LIMIT + 1, 5)
