"""Seeded randomized audits of the lower bound and the reduction calculus."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .entanglement import DEFAULT_SWEEP_LIMIT, lower_bound_check
from .hypergraph import Hypergraph, canonicalize, enumerate_bipartitions, is_connected
from .locc import ORACLE_LIMIT, reduce as locc_reduce

# Draws per random_connected_hypergraph call before it gives up.
MAX_TRIES = 500


@dataclass(frozen=True)
class CampaignRow:
    index: int
    hypergraph: Hypergraph
    k_max: int
    bound: Fraction
    entanglement: float
    holds: bool


@dataclass(frozen=True)
class CampaignReport:
    seed: int
    count: int
    max_n: int
    rows: tuple[CampaignRow, ...]
    all_hold: bool


@dataclass(frozen=True)
class ReductionAuditRow:
    index: int
    hypergraph: Hypergraph
    certificates: int
    all_validated: bool
    min_margin: float


@dataclass(frozen=True)
class ReductionAuditReport:
    seed: int
    count: int
    max_n: int
    rows: tuple[ReductionAuditRow, ...]
    all_validated: bool


def random_connected_hypergraph(n: int, rng: random.Random) -> Hypergraph:
    """Sample edge lists until the XOR-canonical form is connected.

    Cardinalities run from 2 to n, so cancellation can empty the edge set;
    those draws are rejected along with disconnected ones.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    for _ in range(MAX_TRIES):
        raw = []
        for _ in range(rng.randint(max(1, n - 1), 2 * n)):
            k = rng.randint(2, n)
            raw.append(rng.sample(range(1, n + 1), k))
        h = canonicalize(raw, n)
        if h.edges and is_connected(h):
            return h
    raise RuntimeError(f"no connected sample found in {MAX_TRIES} tries at n={n}")


def _check_sizes(count: int, max_n: int, cap: int, cap_name: str) -> None:
    """Refuse a campaign before drawing anything if some draw would fail
    or run past the cap its rows are checked under."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if max_n < 2:
        raise ValueError(f"max_n must be at least 2, got {max_n}")
    if max_n > cap:
        raise ValueError(f"max_n {max_n} exceeds the {cap_name} {cap}")


def lower_bound_campaign(
    count: int = 200, max_n: int = 8, seed: int = 2024, *, sweep_limit: int = DEFAULT_SWEEP_LIMIT
) -> CampaignReport:
    """Check E >= 1/2**(k_max-1) on seeded random connected hypergraphs."""
    _check_sizes(count, max_n, sweep_limit, "sweep cap")
    rng = random.Random(seed)
    rows = []
    for index in range(count):
        h = random_connected_hypergraph(rng.randint(2, max_n), rng)
        r = lower_bound_check(h, sweep_limit=sweep_limit)
        rows.append(CampaignRow(index, h, r.k_max, r.bound, r.entanglement, r.holds))
    return CampaignReport(seed, count, max_n, tuple(rows), all(r.holds for r in rows))


def reduction_audit(count: int = 100, max_n: int = 7, seed: int = 2024) -> ReductionAuditReport:
    """Run the full reduction on every bipartition of random instances.

    Every rewrite of each certificate is oracle-validated, so max_n may not
    exceed the oracle limit; the row records the smallest margin
    entanglement - bound seen across cuts.
    """
    _check_sizes(count, max_n, ORACLE_LIMIT, "rewrite-oracle limit")
    rng = random.Random(seed)
    rows = []
    for index in range(count):
        h = random_connected_hypergraph(rng.randint(2, max_n), rng)
        ok = True
        margin = float("inf")
        certs = 0
        for bp in enumerate_bipartitions(h.n):
            cert = locc_reduce(h, bp)
            certs += 1
            ok = ok and cert.validated
            margin = min(margin, cert.entanglement_ab - float(cert.bound))
        rows.append(ReductionAuditRow(index, h, certs, ok, margin))
    return ReductionAuditReport(seed, count, max_n, tuple(rows), all(r.all_validated for r in rows))
