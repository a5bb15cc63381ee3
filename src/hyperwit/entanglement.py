"""Geometric entanglement of sign states.

The bipartite figure of merit across a cut is the largest squared Schmidt
coefficient alpha_AB; the multipartite alpha maximizes it over all cuts and
E = 1 - alpha. Closed forms cover the three built-in families. The
certification procedure works on the edge list of a permutation-invariant
state, whose reduced Grams depend only on the label weights: it compares
the always-rational single-qubit split with the exact infinity norm of every
deeper reduced density matrix, and builds the sign table only for a dense
eigensolve where that bound is inconclusive.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .hypergraph import (
    Bipartition,
    Family,
    Hypergraph,
    build_family,
    enumerate_bipartitions,
    is_connected,
    max_cardinality,
)
from .states import SignState, build_state, check_qubit_count, is_permutation_invariant

SPECTRAL_TOL = 1e-9
DEFAULT_SWEEP_LIMIT = 12


@dataclass(frozen=True)
class SchmidtSpectrum:
    bipartition: Bipartition
    coefficients: tuple[float, ...]
    rank: int

    @property
    def alpha(self) -> float:
        return self.coefficients[0] ** 2


@dataclass(frozen=True, eq=False)
class ReducedDensityMatrix:
    kept_qubits: tuple[int, ...]
    entries: np.ndarray


@dataclass(frozen=True)
class EntanglementReport:
    """Result of the exhaustive bipartition sweep. E == 1 - alpha as stored."""

    alpha_per_bipartition: tuple[tuple[Bipartition, float], ...]
    alpha: float
    E: float
    argmax_bipartition: Bipartition


@dataclass(frozen=True)
class ProcedureRow:
    k: int
    infinity_norm: Fraction
    within_bound: bool
    lambda_max: float | None


@dataclass(frozen=True)
class ProcedureReport:
    """Certificate of the infinity-norm procedure.

    `success` records whether the norm test alone settled every cut size.
    `alpha` is correct either way: rows whose norm test failed are settled
    by the exact eigenvalue fallback, which can exceed the single-qubit
    split (the n=4 behaviour of the second family).
    """

    n: int
    smax_squared: float
    smax_squared_exact: Fraction
    rows: tuple[ProcedureRow, ...]
    success: bool
    alpha: float
    alpha_exact: Fraction | None


@dataclass(frozen=True)
class LowerBoundReport:
    k_max: int
    bound: Fraction
    entanglement: float
    holds: bool


@dataclass(frozen=True)
class StructureReport:
    """Comparison of an exact reduced Gram matrix with its predicted form.

    `gram` entries are 2**n times the reduced density matrix, so every
    field is an exact integer or rational. `deviation` is the largest
    entrywise difference from the prediction; 0 means exact agreement.
    """

    family: Family
    n: int
    k: int
    deviation: int
    values: tuple[int, ...]
    infinity_norm: Fraction


@lru_cache(maxsize=None)
def _label_bits(n: int) -> np.ndarray:
    """Bits of 0..2**n-1 as an (n, 2**n) float32 array, most significant first."""
    return ((np.arange(1 << n) >> np.arange(n - 1, -1, -1)[:, None]) & 1).astype(np.float32)


def _cut_order(n: int, side: Sequence[int]) -> tuple[int, ...]:
    """The side's vertices, then the rest, each in increasing order."""
    inside = set(side)
    return tuple(side) + tuple(v for v in range(1, n + 1) if v not in inside)


def _cut_labels(n: int, orders: np.ndarray) -> np.ndarray:
    """Basis labels of each row of a (cuts, n) array of vertex orders.

    Entry j of a row is the label whose bits, read in that vertex order,
    spell j; so the row reshaped to (2**k, 2**(n-k)) indexes the cut matrix
    of the first k vertices. The first n // 2 vertices and the rest are
    labelled apart and combined, so no bit table has more than 2**(n - n//2)
    columns. Labels are sums of distinct powers of two below 2**24, so the
    float32 products and sums are exact.
    """
    weights = np.ldexp(np.float32(1), n - orders)
    h = n // 2
    high = weights[:, :h] @ _label_bits(h)
    low = weights[:, h:] @ _label_bits(n - h)
    return (high[:, :, None] + low[:, None, :]).reshape(len(orders), -1).astype(np.intp)


# Cut matrices are gathered in batches of at most this many sign entries
# (one cut when a single cut is larger).
_BATCH_ENTRIES = 1 << 14


def _cut_grams(signs: np.ndarray, n: int, k: int, orders: np.ndarray):
    """Per batch of the cuts in `orders`, the stacked Grams of each order's
    first k vertices: 2**n times their rdms, in that vertex order.

    `signs` is the float32 sign table. Each batch gathers its cut matrices
    with one index and forms their Grams with one stacked matmul. Gram
    entries are integers of magnitude at most 2**n <= 2**24, so the float32
    products and sums are exact and each float64 Gram is the exact integer
    one.
    """
    step = max(1, _BATCH_ENTRIES >> n)
    for start in range(0, len(orders), step):
        batch = orders[start : start + step]
        m = signs[_cut_labels(n, batch)].reshape(len(batch), 1 << k, 1 << (n - k))
        yield np.matmul(m, m.transpose(0, 2, 1)).astype(np.float64)


def _cut_gram(signs: np.ndarray, n: int, side: Sequence[int]) -> np.ndarray:
    """The exact Gram of one cut's side, in the side's vertex order."""
    return next(_cut_grams(signs, n, len(side), np.array([_cut_order(n, side)])))[0]


def _cut_alphas(signs: np.ndarray, n: int, k: int, orders: np.ndarray) -> np.ndarray:
    """alpha of each cut in `orders`, by one stacked eigvalsh per batch of
    Grams over each order's first k vertices."""
    tops = [np.linalg.eigvalsh(gram)[:, -1] for gram in _cut_grams(signs, n, k, orders)]
    return np.concatenate(tops) / (1 << n)


def _smaller_side(bp: Bipartition) -> tuple[int, ...]:
    """The side whose Gram is taken: part_a when the sides are equal."""
    return bp.part_a if len(bp.part_a) <= bp.n // 2 else bp.part_b


@dataclass(frozen=True, eq=False)
class _SweepPlan:
    """The canonical bipartitions of n, the order that sorts them by part_a,
    and per smaller-side size k their positions and cut orders."""

    bipartitions: tuple[Bipartition, ...]
    lex_order: np.ndarray
    groups: tuple[tuple[int, np.ndarray, np.ndarray], ...]


@lru_cache(maxsize=None)
def _sweep_plan(n: int) -> _SweepPlan:
    bps = tuple(enumerate_bipartitions(n))
    sides = [_smaller_side(bp) for bp in bps]
    groups = []
    for k in range(1, n // 2 + 1):
        positions = [i for i, side in enumerate(sides) if len(side) == k]
        orders = np.array([_cut_order(n, sides[i]) for i in positions], dtype=np.int8)
        groups.append((k, np.array(positions), orders))
    lex_order = np.array(sorted(range(len(bps)), key=lambda i: bps[i].part_a))
    return _SweepPlan(bps, lex_order, tuple(groups))


def schmidt(state: SignState, bp: Bipartition) -> SchmidtSpectrum:
    """Schmidt coefficients across the cut, descending, via SVD."""
    if bp.n != state.n:
        raise ValueError("bipartition and state disagree on qubit count")
    labels = _cut_labels(state.n, np.array([_cut_order(state.n, bp.part_a)]))
    m = state.signs().astype(np.float64)[labels].reshape(1 << len(bp.part_a), -1) / math.sqrt(state.dim)
    sv = np.linalg.svd(m, compute_uv=False)
    rank = int(np.count_nonzero(sv > SPECTRAL_TOL))
    return SchmidtSpectrum(bp, tuple(float(s) for s in sv), rank)


def reduced_density_matrix(state: SignState, kept_qubits: Sequence[int]) -> ReducedDensityMatrix:
    kept = tuple(sorted(set(kept_qubits)))
    if not kept or len(kept) == state.n:
        raise ValueError("kept set must be a proper nonempty subset")
    return ReducedDensityMatrix(kept, _cut_gram(state.signs().astype(np.float32), state.n, kept) / state.dim)


def alpha_bipartite(state: SignState, bp: Bipartition) -> float:
    """Largest squared Schmidt coefficient, via the smaller side's Gram."""
    if bp.n != state.n:
        raise ValueError("bipartition and state disagree on qubit count")
    side = _smaller_side(bp)
    orders = np.array([_cut_order(state.n, side)])
    return float(_cut_alphas(state.signs().astype(np.float32), state.n, len(side), orders)[0])


def alpha_multipartite(state: SignState, *, sweep_limit: int = DEFAULT_SWEEP_LIMIT) -> EntanglementReport:
    """Exhaustive sweep over all canonical bipartitions; E = 1 - alpha.

    Cuts are evaluated in batches per smaller-side size. Every cut of one
    size has the same cut matrix when the state is permutation-invariant,
    so then one cut per size is evaluated and its value shared. Ties go to
    the first bipartition by part_a.
    """
    n = state.n
    if n < 2:
        raise ValueError("need at least 2 qubits to bipartition")
    if n > sweep_limit:
        raise ValueError(f"qubit count {n} exceeds the sweep cap {sweep_limit}")
    plan = _sweep_plan(n)
    signs = state.signs().astype(np.float32)
    shared = is_permutation_invariant(state)
    alphas = np.empty(len(plan.bipartitions))
    for k, positions, orders in plan.groups:
        alphas[positions] = _cut_alphas(signs, n, k, orders[:1] if shared else orders)
    best = int(plan.lex_order[np.argmax(alphas[plan.lex_order])])
    values = alphas.tolist()
    rows = tuple(zip(plan.bipartitions, values))
    return EntanglementReport(rows, values[best], 1.0 - values[best], plan.bipartitions[best])


def _symmetric_layers(h: Hypergraph) -> tuple[int, ...] | None:
    """Edge cardinalities of h if its edge set, and so its state, is
    invariant under relabeling: a union of complete k-uniform layers, each
    holding C(n, k) distinct edges. None otherwise."""
    counts = Counter(len(e) for e in h.edges)
    if any(count != math.comb(h.n, k) for k, count in counts.items()):
        return None
    return tuple(sorted(counts))


def _weight_signs(n: int, layers: Sequence[int]) -> list[int]:
    """Sign f(w) = (-1)**(sum of C(w, k) over the layers) of a weight-w label, w = 0..n."""
    return [-1 if sum(math.comb(w, k) for k in layers) % 2 else 1 for w in range(n + 1)]


def _weight_gram(n: int, layers: Sequence[int], kept: int) -> list[list[int]]:
    """Entry [a][b] is 2**n times the rdm entry of the first `kept` qubits
    between any labels of weights a and b, an exact integer. The t = n - kept
    traced qubits hold C(t, j) labels of weight j."""
    f = _weight_signs(n, layers)
    traced = [math.comb(n - kept, j) for j in range(n - kept + 1)]
    return [
        [sum(c * f[a + j] * f[b + j] for j, c in enumerate(traced)) for b in range(kept + 1)]
        for a in range(kept + 1)
    ]


def _weight_infinity_norm(n: int, layers: Sequence[int], kept: int) -> Fraction:
    """Exact infinity norm of the first `kept` qubits' rdm of a symmetric
    state: C(kept, b) labels share each weight-b column."""
    gram = _weight_gram(n, layers, kept)
    return Fraction(max(sum(math.comb(kept, b) * abs(v) for b, v in enumerate(row)) for row in gram), 1 << n)


def procedure_alpha(h: Hypergraph, *, sweep_limit: int = DEFAULT_SWEEP_LIMIT) -> ProcedureReport:
    """Certify alpha for a permutation-invariant state from its edge list.

    The single-qubit split's Gram is [[2**(n-1), b], [b, 2**(n-1)]], so its
    alpha (2**(n-1) + |b|) / 2**n is rational. For each deeper cut size k
    the exact infinity norm of the rdm, taken by label weight, must not
    exceed it. Only a failed norm test builds the sign table: the top
    eigenvalue of that cut's dense Gram then competes for alpha directly.
    """
    n = h.n
    if n < 2:
        raise ValueError("need at least 2 qubits")
    if n > sweep_limit:
        raise ValueError(f"qubit count {n} exceeds the sweep cap {sweep_limit}")
    check_qubit_count(n)
    layers = _symmetric_layers(h)
    if layers is None:
        raise ValueError("state is not permutation-invariant; the single-split comparison would be unjustified")
    dim = 1 << n
    smax_exact = Fraction(dim // 2 + abs(_weight_gram(n, layers, 1)[0][1]), dim)
    smax_sq = float(smax_exact)
    rows: list[ProcedureRow] = []
    success = True
    alpha, alpha_exact = smax_sq, smax_exact
    signs = None
    for k in range(2, n // 2 + 1):
        inf = _weight_infinity_norm(n, layers, n - k)
        ok = inf <= smax_exact
        lam = None
        if not ok:
            success = False
            signs = build_state(h).signs().astype(np.float32) if signs is None else signs
            lam = float(np.linalg.eigvalsh(_cut_gram(signs, n, range(1, n - k + 1)))[-1]) / dim
            if lam > alpha:
                alpha, alpha_exact = lam, None
        rows.append(ProcedureRow(k, inf, ok, lam))
    return ProcedureReport(n, smax_sq, smax_exact, tuple(rows), success, alpha, alpha_exact)


def closed_form_alpha(family: Family, n: int) -> Fraction | float:
    """Piecewise-exact alpha for the built-in families.

    Rational throughout except the second family at n=4, whose value
    (3 + sqrt 5)/8 is irrational and returned as a float.
    """
    if family is Family.SINGLE_MAX_EDGE:
        if n < 2:
            raise ValueError("single-max family needs n >= 2")
        half = 1 << (n - 1)
        return Fraction(half - 1, half)
    if n < 3:
        raise ValueError(f"{family.value} family needs n >= 3")
    half = 1 << (n - 1)
    if family is Family.ALL_N_MINUS_1:
        if n == 4:
            return (3.0 + math.sqrt(5.0)) / 8.0
        return Fraction(half - n, half) if n % 2 == 0 else Fraction(half - n + 1, half)
    if family is Family.ALL_GE_N_MINUS_1:
        if n == 3:
            return Fraction(3, 4)
        return Fraction(half - n + 1, half) if n % 2 == 0 else Fraction(half - n, half)
    raise ValueError(f"unknown family {family!r}")


def closed_form_E(family: Family, n: int) -> Fraction | float:
    a = closed_form_alpha(family, n)
    return 1 - a if isinstance(a, Fraction) else 1.0 - a


def lower_bound_check(h: Hypergraph, *, sweep_limit: int = DEFAULT_SWEEP_LIMIT) -> LowerBoundReport:
    """Check E >= 1/2**(k_max - 1) for a connected hypergraph."""
    if h.n < 2:
        raise ValueError("need at least 2 qubits")
    if not is_connected(h):
        raise ValueError("lower bound requires a connected hypergraph")
    k_max = max_cardinality(h)
    bound = Fraction(1, 1 << (k_max - 1))
    report = alpha_multipartite(build_state(h), sweep_limit=sweep_limit)
    return LowerBoundReport(k_max, bound, report.E, report.E >= float(bound) - SPECTRAL_TOL)


def _predicted_weight_gram(family: Family, n: int, k: int) -> list[list[int]]:
    """predicted_gram by label weight, c + mult g(a) g(b) + r(a) r(b): g is
    the sign of the full edge on the m = n - k kept qubits, r that of every
    (m-1)-subset plus, for odd traced-out parity, the full edge (none for
    single-max)."""
    m, least = n - k, 1 if family is Family.SINGLE_MAX_EDGE else 2
    if k < 0 or m < least:
        raise ValueError(f"{family.value} prediction needs k >= 0 and n - k >= {least}")
    g = _weight_signs(m, (m,))
    if family is Family.SINGLE_MAX_EDGE:
        c, mult, r = (1 << k) - 1, 1, [0] * (m + 1)
    else:
        parity = k if family is Family.ALL_N_MINUS_1 else k + 1
        c, mult, r = (1 << k) - k - 1, k, _weight_signs(m, (m - 1, m) if parity % 2 else (m - 1,))
    return [[c + mult * g[a] * g[b] + r[a] * r[b] for b in range(m + 1)] for a in range(m + 1)]


def predicted_gram(family: Family, n: int, k: int) -> np.ndarray:
    """Predicted 2**n rho over the first n-k qubits, exact integers.

    All three families reduce to a rank-three pattern: a constant block,
    a multiple of the single-max-edge outer square, and one residual outer
    square whose edge family depends on the traced-out parity. Refused
    before allocating above DEFAULT_SWEEP_LIMIT kept qubits.
    """
    check_qubit_count(n)
    table = np.array(_predicted_weight_gram(family, n, k), dtype=np.int64)
    if n - k > DEFAULT_SWEEP_LIMIT:
        raise ValueError(
            f"predicted Gram would be {1 << (n - k)}-square; capped at n - k <= {DEFAULT_SWEEP_LIMIT} "
            f"({1 << DEFAULT_SWEEP_LIMIT}-square)"
        )
    weights = np.bitwise_count(np.arange(1 << (n - k)))
    return table[weights[:, None], weights]


def reduced_structure_check(family: Family, n: int, k: int) -> StructureReport:
    """Compare the exact reduced Gram with predicted_gram, both by label weight."""
    if k < 1 or n - k < 2:
        raise ValueError("need k >= 1 and at least 2 kept qubits")
    check_qubit_count(n)
    layers = _symmetric_layers(build_family(family, n))
    gram, predicted = _weight_gram(n, layers, n - k), _predicted_weight_gram(family, n, k)
    deviation = max(abs(v - p) for row, want in zip(gram, predicted) for v, p in zip(row, want))
    values = tuple(sorted({v for row in gram for v in row}))
    return StructureReport(family, n, k, deviation, values, _weight_infinity_norm(n, layers, n - k))
