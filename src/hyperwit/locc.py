"""Local rewrite calculus on hypergraphs and the reduction certificate.

Every rewrite rule is stated combinatorially and, unless called with
validate=False, re-derived at runtime from the exact sign-state it is
supposed to model: apply the physical operation to the input's sign table
and compare the result with the sign table of the rule's output hypergraph,
complemented when the rule reports a global -1. A mismatch raises instead
of propagating a bad rule. `reduce` alone decides the oracle's reach, from
the input's n against ORACLE_LIMIT.

The reduction procedure repeatedly measures away qubits outside a chosen
maximum-cardinality crossing edge, strips lower-cardinality debris with
local Pauli and controlled-Z moves, and recurses until every measurement
branch holds a single crossing edge. The worst surviving cardinality
certifies a lower bound on the bipartite entanglement of the input.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

import numpy as np

from .entanglement import SPECTRAL_TOL, alpha_bipartite
from .hypergraph import Bipartition, Edge, Hypergraph, crossing_edges, is_connected, toggle_edges
from .states import (
    SignState,
    apply_controlled_z,
    apply_x,
    apply_z,
    build_state,
    extract_hypergraph,
    label_bit,
)

ORACLE_LIMIT = 10
BUDGET_FACTOR = 10


class LoccValidationError(RuntimeError):
    """A rewrite rule disagreed with the sign-state it models."""


class LoccReductionError(RuntimeError):
    """The reduction left a branch without a crossing edge or ran over budget."""


class StepKind(str, Enum):
    SELECT = "select"
    Z_MEASURE = "Mz"
    PAULI_X = "X"
    PAULI_Z = "Z"
    REMOVE = "remove"


@dataclass(frozen=True)
class ReductionStep:
    """One audited move; vertex and edge fields use the input's labels."""

    op: StepKind
    qubit: int | None
    outcome: int | None
    edge: Edge | None


@dataclass(frozen=True)
class BranchRecord:
    steps: tuple[ReductionStep, ...]
    outcomes: tuple[tuple[int, int], ...]
    final_edge: Edge
    kappa_prime: int


@dataclass(frozen=True)
class ReductionCertificate:
    hypergraph: Hypergraph
    bipartition: Bipartition
    branches: tuple[BranchRecord, ...]
    kappa_prime_worst: int
    bound: Fraction
    entanglement_ab: float
    validated: bool
    steps_total: int


def _projected_state(state: SignState, vertex: int, outcome: int) -> SignState:
    """Post-measurement state on n-1 qubits after a Z outcome on `vertex`."""
    sub = state.signs().reshape(-1, 2, 1 << label_bit(state.n, vertex))[:, outcome]
    packed = np.packbits(sub < 0, bitorder="little")
    return SignState(state.n - 1, int.from_bytes(packed.tobytes(), "little"))


def _check_rewrite(state: SignState, result: Hypergraph, signs: tuple[int, ...], rule: str) -> None:
    """Raise unless `state` equals s * build_state(result) for some s in `signs`.

    build_state maps edge sets one-to-one onto tables with bit 0 clear, and a
    global -1 complements the table, so this is the same test as inverting
    `state` to edges and a phase and comparing those; the inversion runs only
    to word the error.
    """
    diff = state.neg ^ build_state(result).neg
    if diff not in [0 if s == 1 else (1 << state.dim) - 1 for s in signs]:
        expected, phase = extract_hypergraph(state)
        raise LoccValidationError(
            f"{rule} rule produced {result.edges} with sign {' or '.join(map(str, signs))}, "
            f"state says {expected.edges} with sign {phase}"
        )


def z_measure(h: Hypergraph, vertex: int, outcome: int, *, validate: bool = True) -> Hypergraph:
    """Computational-basis measurement of one qubit, as an edge rewrite.

    Outcome 0 deletes every edge through the vertex; outcome 1 replaces each
    by its residual, XOR-merging with whatever is already present (an empty
    residual is a dropped global sign). Vertices above the measured one
    shift down. Both outcomes occur with probability exactly 1/2.
    """
    if h.n < 2:
        raise ValueError("cannot measure down to zero qubits")
    if not 1 <= vertex <= h.n:
        raise ValueError(f"vertex {vertex} outside 1..{h.n}")
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    kept = {e for e in h.edges if vertex not in e}
    if outcome == 1:
        for e in h.edges:
            if vertex in e and len(e) > 1:
                kept ^= {tuple(v for v in e if v != vertex)}
    relabeled = tuple(sorted(tuple(v - 1 if v > vertex else v for v in e) for e in kept))
    result = Hypergraph(h.n - 1, relabeled)
    if validate:
        projected = _projected_state(build_state(h), vertex, outcome)
        _check_rewrite(projected, result, (1, -1), f"z_measure({vertex}, {outcome})")
    return result


def pauli_x_toggle(h: Hypergraph, vertex: int, *, validate: bool = True) -> tuple[Hypergraph, int]:
    """Conjugation effect of X on a qubit: toggle the residual of every edge
    through it. A single-vertex edge survives and flips the global sign."""
    if not 1 <= vertex <= h.n:
        raise ValueError(f"vertex {vertex} outside 1..{h.n}")
    edges = set(h.edges)
    sign = 1
    for e in h.edges:
        if vertex not in e:
            continue
        if len(e) == 1:
            sign = -sign
        else:
            edges ^= {tuple(v for v in e if v != vertex)}
    result = Hypergraph(h.n, tuple(sorted(edges)))
    if validate:
        _check_rewrite(apply_x(build_state(h), vertex), result, (sign,), f"pauli_x_toggle({vertex})")
    return result, sign


def pauli_z_toggle(h: Hypergraph, vertex: int, *, validate: bool = True) -> Hypergraph:
    """Toggle the single-vertex edge (Z is the cardinality-1 controlled gate)."""
    if not 1 <= vertex <= h.n:
        raise ValueError(f"vertex {vertex} outside 1..{h.n}")
    result = toggle_edges(h, ((vertex,),))
    if validate:
        _check_rewrite(apply_z(build_state(h), vertex), result, (1,), f"pauli_z_toggle({vertex})")
    return result


def remove_non_crossing(
    h: Hypergraph,
    part_a: Iterable[int],
    *,
    keep: Edge | None = None,
    validate: bool = True,
) -> tuple[Hypergraph, tuple[Edge, ...]]:
    """Delete every edge lying fully on one side of the cut, except `keep`.

    Each deletion is a controlled-Z gate local to its side, so the move is
    free across the cut.
    """
    crossing = set(crossing_edges(h, part_a))
    removed = tuple(e for e in h.edges if e != keep and e not in crossing)
    result = toggle_edges(h, removed)
    if validate and removed:
        st = build_state(h)
        for e in removed:
            st = apply_controlled_z(st, e)
        _check_rewrite(st, result, (1,), "remove_non_crossing")
    return result, removed


def reduce(h: Hypergraph, bp: Bipartition) -> ReductionCertificate:
    """Run the full reduction for one cut and certify a lower bound.

    Every measurement branch ends in a single crossing edge of some
    cardinality; the largest such cardinality over branches gives the
    weakest leaf and the certified bound 1/2**(worst-1). The certificate
    cross-checks the bound against the directly computed entanglement.
    The oracle checks every rewrite, and the branches are recorded, exactly
    when the input has n <= ORACLE_LIMIT; a larger input warns once, runs
    unvalidated and records no branch.
    """
    if h.n != bp.n:
        raise ValueError("hypergraph and bipartition disagree on qubit count")
    if not is_connected(h):
        raise ValueError("reduction requires a connected hypergraph")
    part_a_orig = set(bp.part_a)
    if not crossing_edges(h, part_a_orig):
        raise LoccReductionError("no crossing edge to reduce")
    validate = h.n <= ORACLE_LIMIT
    if not validate:
        warnings.warn(
            f"n={h.n} exceeds the oracle limit {ORACLE_LIMIT}; rewrite output unvalidated",
            RuntimeWarning,
            stacklevel=2,
        )
    budget = BUDGET_FACTOR * h.n * (1 << h.n)
    counter = 0
    branches: list[BranchRecord] = []
    worst = 0

    def charge() -> None:
        nonlocal counter
        counter += 1
        if counter > budget:
            raise LoccReductionError(f"step budget {budget} exceeded; rewrite chain suspect")

    def explore(
        work: Hypergraph,
        alive: tuple[int, ...],
        steps: tuple[ReductionStep, ...],
        outcomes: tuple[tuple[int, int], ...],
    ) -> None:
        nonlocal worst
        part = {v for v in range(1, work.n + 1) if alive[v - 1] in part_a_orig}

        def orig(e: Edge) -> Edge:
            return tuple(alive[v - 1] for v in e)

        crossing = crossing_edges(work, part)
        if not crossing:
            raise LoccReductionError("branch lost all crossing edges; rewrite chain suspect")
        kappa = max(len(e) for e in crossing)
        target = min(e for e in crossing if len(e) == kappa)
        charge()
        steps += (ReductionStep(StepKind.SELECT, None, None, orig(target)),)

        outside = [v for v in range(1, work.n + 1) if v not in target]
        if outside:
            i = outside[0]
        else:
            # Only the target's qubits remain; target is the full vertex set.
            if kappa >= 3:
                while True:
                    big = sorted(e for e in work.edges if len(e) == kappa - 1)
                    if not big:
                        break
                    i = next(iter(set(target) - set(big[0])))
                    work, _ = pauli_x_toggle(work, i, validate=validate)
                    charge()
                    steps += (ReductionStep(StepKind.PAULI_X, alive[i - 1], None, None),)
            for e in [e for e in work.edges if len(e) == 1]:
                work = pauli_z_toggle(work, e[0], validate=validate)
                charge()
                steps += (ReductionStep(StepKind.PAULI_Z, alive[e[0] - 1], None, None),)
            work, removed = remove_non_crossing(work, part, keep=target, validate=validate)
            for e in removed:
                charge()
                steps += (ReductionStep(StepKind.REMOVE, None, None, orig(e)),)
            if work.edges == (target,):
                worst = max(worst, kappa)
                if validate:
                    branches.append(BranchRecord(steps, outcomes, orig(target), kappa))
                return
            lower = [e for e in work.edges if e != target]
            kt = max(len(e) for e in lower)
            ke = min(e for e in lower if len(e) == kt)
            i = min(v for v in target if v not in ke)

        label = alive[i - 1]
        rest = alive[: i - 1] + alive[i:]
        for outcome in (0, 1):
            child = z_measure(work, i, outcome, validate=validate)
            charge()
            st = ReductionStep(StepKind.Z_MEASURE, label, outcome, None)
            explore(child, rest, steps + (st,), outcomes + ((label, outcome),))

    explore(h, tuple(range(1, h.n + 1)), (), ())
    bound = Fraction(1, 1 << (worst - 1))
    e_ab = 1.0 - alpha_bipartite(build_state(h), bp)
    validated = e_ab >= float(bound) - SPECTRAL_TOL
    return ReductionCertificate(
        h, bp, tuple(branches), worst, bound, e_ab, validated, counter
    )
