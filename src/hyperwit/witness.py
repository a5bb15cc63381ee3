"""Entanglement witnesses for sign states and their noise robustness.

Two families: the projector witness alpha*I - |H><H| and the stabilizer
witness beta*I - sum K_i. Both detect the target state mixed with white
noise up to an exact rational threshold (irrational alphas excepted).
Feasibility of (beta, C) pairs is decided on the exact joint spectrum:
both operators are diagonal in the common eigenbasis, where the stabilizer
sum has eigenvalue n - 2w on the weight-w class and the projector hits
only the weight-0 member.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .entanglement import closed_form_alpha
from .hypergraph import Family, Hypergraph, build_family, max_cardinality
from .serialize import Number
from .states import apply_stabilizer, build_state, overlap

FLOAT_SLACK = 1e-12
TABLE_LIMIT = 256  # largest n of a robustness-table row; each row costs O(n^2)


class WitnessKind(Enum):
    PROJECTOR = "projector"
    STABILIZER = "stabilizer"


@dataclass(frozen=True)
class WitnessSpec:
    kind: WitnessKind
    hypergraph: Hypergraph
    alpha: Number
    beta: Number | None
    c: Number | None
    robustness: Number

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.kind is WitnessKind.STABILIZER:
            if self.beta is None or not 0 < self.beta < self.hypergraph.n:
                raise ValueError("beta must lie strictly between 0 and n")
            if self.c is None or self.c <= 0:
                raise ValueError("C must be positive")
        if not 0 < self.robustness <= 1:
            raise ValueError("robustness must lie in (0, 1]")


@dataclass(frozen=True)
class NoisyState:
    """White-noise mixture: p parts maximally mixed, 1-p parts the state."""

    hypergraph: Hypergraph
    p: Number

    def __post_init__(self) -> None:
        if not 0 <= self.p <= 1:
            raise ValueError("noise fraction must lie in [0, 1]")


@dataclass(frozen=True)
class RobustnessRow:
    n: int
    projector: Number
    stabilizer: Number


def default_alpha(h: Hypergraph) -> Fraction:
    """Overlap bound from the largest edge alone; valid for any connected H."""
    k = max_cardinality(h)
    if k < 2:
        raise ValueError("need an edge of cardinality >= 2")
    half = 1 << (k - 1)
    return Fraction(half - 1, half)


def optimal_beta(n: int, alpha: Number, c: Number = 2) -> Number:
    """Smallest beta for which beta*I - sum K_i dominates C times the
    projector witness (equality on the weight-0 class)."""
    return n - c * (1 - alpha)


def projector_witness(h: Hypergraph, alpha: Number | None = None) -> WitnessSpec:
    a = default_alpha(h) if alpha is None else alpha
    robustness = (1 - a) * Fraction(1 << h.n, (1 << h.n) - 1)
    return WitnessSpec(WitnessKind.PROJECTOR, h, a, None, None, robustness)


def stabilizer_witness(h: Hypergraph, alpha: Number | None = None) -> WitnessSpec:
    a = default_alpha(h) if alpha is None else alpha
    beta = optimal_beta(h.n, a, 2)
    robustness = (h.n - beta) * Fraction(1, h.n)
    return WitnessSpec(WitnessKind.STABILIZER, h, a, beta, 2, robustness)


def feasibility_check(h: Hypergraph, alpha: Number, beta: Number, c: Number) -> bool:
    """Decide beta*I - sum K_i >= C * (alpha*I - |H><H|) on the joint spectrum.

    Also requires beta < n, without which the stabilizer witness never
    reports a negative value. Exact when all parameters are rational.
    """
    n = h.n
    if not beta < n:
        return False
    slack = 0 if all(isinstance(v, (int, Fraction)) for v in (alpha, beta, c)) else FLOAT_SLACK
    for w in range(n + 1):
        value = (beta - (n - 2 * w)) - c * (alpha - (1 if w == 0 else 0))
        if value < -slack:
            return False
    return True


def expectation(spec: WitnessSpec, noisy: NoisyState) -> Number:
    """Closed-form witness expectation on the noisy state, exact where the
    inputs are. The noisy state's hypergraph may differ from the witness's;
    overlaps are then computed exactly on the sign tables."""
    if noisy.hypergraph.n != spec.hypergraph.n:
        raise ValueError("witness and state disagree on qubit count")
    p = noisy.p
    if spec.kind is WitnessKind.PROJECTOR:
        ov = overlap(build_state(spec.hypergraph), build_state(noisy.hypergraph))
        return spec.alpha - (p * Fraction(1, 1 << spec.hypergraph.n) + (1 - p) * ov * ov)
    state = build_state(noisy.hypergraph)
    acc: Number = 0
    for i in range(1, spec.hypergraph.n + 1):
        acc = acc + overlap(state, apply_stabilizer(state, spec.hypergraph, i))
    assert spec.beta is not None
    return spec.beta - (1 - p) * acc


def robustness_table(family: Family, ns: range | list[int]) -> tuple[RobustnessRow, ...]:
    if any(n > TABLE_LIMIT for n in ns):
        raise ValueError(f"robustness table capped at n <= {TABLE_LIMIT}")
    rows = []
    for n in ns:
        h = build_family(family, n)
        a = closed_form_alpha(family, n)
        rows.append(RobustnessRow(n, projector_witness(h, a).robustness, stabilizer_witness(h, a).robustness))
    return tuple(rows)

