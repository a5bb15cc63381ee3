"""Exact states with uniform-magnitude amplitudes signs[x] / sqrt(2**n).

Basis labels x run over [0, 2**n) with qubit 1 owning the most significant
bit, so a label printed as a bitstring reads q1..qn left to right. The sign
table is packed into one Python integer (bit x set means the amplitude of
|x> is negative), which keeps construction, gate application, and inversion
in exact integer arithmetic. Floating point appears only in the dense numpy
views used for verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from operator import and_
from typing import Iterable

import numpy as np

from .hypergraph import Hypergraph

MAX_QUBITS = 24


def label_bit(n: int, vertex: int) -> int:
    """Position of the label bit owned by a vertex (qubit 1 is the MSB)."""
    if not 1 <= vertex <= n:
        raise ValueError(f"vertex {vertex} outside 1..{n}")
    return n - vertex


def label_of_vertices(n: int, vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << label_bit(n, v)
    return mask


def vertices_of_label(n: int, x: int) -> tuple[int, ...]:
    return tuple(v for v in range(1, n + 1) if (x >> (n - v)) & 1)


def check_qubit_count(n: int) -> None:
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must lie in 1..{MAX_QUBITS}")


@lru_cache(maxsize=None)
def _full_mask(n: int) -> int:
    return (1 << (1 << n)) - 1


@lru_cache(maxsize=None)
def _bit_pattern(n: int, pos: int) -> int:
    # Packed indicator of {x : label bit `pos` of x is set}, assembled from its
    # little-endian bytes in linear time (bit x sits in byte x // 8). From
    # pos = 3 on, whole bytes alternate in runs of 2**(pos-3) clear and set;
    # below that every byte holds the same sub-byte pattern.
    nbytes = max(1, (1 << n) >> 3)
    if pos >= 3:
        run = 1 << (pos - 3)
        raw = (b"\x00" * run + b"\xff" * run) * (nbytes // (2 * run))
    else:
        raw = (b"\xaa", b"\xcc", b"\xf0")[pos] * nbytes
    pattern = int.from_bytes(raw, "little")
    return pattern & _full_mask(n) if n < 3 else pattern


@lru_cache(maxsize=4096)
def superset_mask(n: int, vertices: tuple[int, ...]) -> int:
    """Packed indicator of {x : every vertex bit is set in x}."""
    if not vertices:
        return _full_mask(n)
    return reduce(and_, [_bit_pattern(n, label_bit(n, v)) for v in vertices])


def _subset_xor_transform(n: int, bits: int) -> int:
    # Involutive transform g(s) = XOR of f(y) over y subset of s, done with
    # one shift-and-xor per label bit.
    for pos in range(n):
        v = 1 << pos
        clear = _full_mask(n) & ~_bit_pattern(n, pos)
        bits ^= (bits & clear) << v
    return bits


@dataclass(frozen=True)
class SignState:
    """A sign table over 2**n basis labels, packed into the integer `neg`.

    Bit x of `neg` is set exactly when the amplitude of |x> is -1/sqrt(2**n).
    A global factor of -1 is representable in the table itself (bit 0 set);
    :func:`extract_hypergraph` separates it back out.
    """

    n: int
    neg: int

    def __post_init__(self) -> None:
        check_qubit_count(self.n)
        if self.neg < 0 or self.neg.bit_length() > self.dim:
            raise ValueError("sign bitmap out of range for the label space")

    @property
    def dim(self) -> int:
        return 1 << self.n

    def sign(self, x: int) -> int:
        return -1 if (self.neg >> x) & 1 else 1

    def signs(self) -> np.ndarray:
        """Dense +-1 table as int8, indexed by basis label."""
        nbytes = max(1, self.dim // 8)
        raw = np.frombuffer(self.neg.to_bytes(nbytes, "little"), dtype=np.uint8)
        bits = np.unpackbits(raw, bitorder="little")[: self.dim]
        return (1 - 2 * bits.astype(np.int8)).astype(np.int8)

    def amplitudes(self) -> np.ndarray:
        return self.signs().astype(np.float64) / math.sqrt(self.dim)

    def to_hex(self) -> str:
        return format(self.neg, "x")

    @classmethod
    def from_hex(cls, n: int, text: str) -> "SignState":
        return cls(n, int(text, 16))


def build_state(h: Hypergraph) -> SignState:
    """State reached from |+..+> by applying one controlled-Z gate per edge."""
    check_qubit_count(h.n)
    neg = 0
    for e in h.edges:
        neg ^= superset_mask(h.n, e)
    return SignState(h.n, neg)


def apply_controlled_z(state: SignState, edge: Iterable[int]) -> SignState:
    """Flip the sign of every label whose support contains the edge."""
    e = tuple(sorted(set(edge)))
    if not e:
        raise ValueError("empty edge is not allowed")
    if e[0] < 1 or e[-1] > state.n:
        raise ValueError(f"edge {e!r} outside vertex range 1..{state.n}")
    return SignState(state.n, state.neg ^ superset_mask(state.n, e))


def apply_x(state: SignState, vertex: int) -> SignState:
    """Permute labels by x -> x XOR (vertex bit)."""
    pos = label_bit(state.n, vertex)
    v = 1 << pos
    set_mask = _bit_pattern(state.n, pos)
    clear_mask = _full_mask(state.n) ^ set_mask
    neg = ((state.neg & clear_mask) << v) | ((state.neg & set_mask) >> v)
    return SignState(state.n, neg)


def apply_z(state: SignState, vertex: int) -> SignState:
    """Flip the sign of every label with the vertex bit set."""
    return SignState(state.n, state.neg ^ _bit_pattern(state.n, label_bit(state.n, vertex)))


@lru_cache(maxsize=1)
def _link_masks(h: Hypergraph) -> tuple[int, ...]:
    """Packed sign flips of every vertex stabilizer's controlled-Z part, in
    vertex order: entry v - 1 is the XOR of superset_mask over the residuals
    e minus v of the edges e through v. An empty residual, from a
    single-vertex edge, flips every label.

    The residual of an edge's i-th vertex is the AND of the running prefix
    before it and the running suffix after it, so one edge costs 3(|e| - 2)
    mask ANDs for all its residuals together."""
    n = h.n
    masks = [0] * n
    for e in h.edges:
        if len(e) == 1:
            masks[e[0] - 1] ^= _full_mask(n)
            continue
        pats = [_bit_pattern(n, label_bit(n, v)) for v in e]
        prefix = list(accumulate(pats[:-1], and_))  # prefix[i]: AND of pats[: i + 1]
        suffix = pats[-1]  # AND of pats[i + 1 :] for the vertex i being done
        masks[e[-1] - 1] ^= prefix.pop()
        for i in range(len(e) - 2, 0, -1):
            masks[e[i] - 1] ^= prefix.pop() & suffix
            suffix &= pats[i]
        masks[e[0] - 1] ^= suffix
    return tuple(masks)


def apply_stabilizer(state: SignState, h: Hypergraph, vertex: int) -> SignState:
    """Apply the vertex's stabilizer: X on the vertex and, for every edge
    containing it, a controlled-Z on the residual edge.

    A single-vertex edge leaves an empty residual, which is a global -1. The
    X part and the residual gates act on disjoint qubits, so order is free.
    """
    if not 1 <= vertex <= h.n:
        raise ValueError(f"vertex {vertex} outside 1..{h.n}")
    if state.n != h.n:
        raise ValueError("state and hypergraph disagree on qubit count")
    return apply_x(SignState(h.n, state.neg ^ _link_masks(h)[vertex - 1]), vertex)


def basis_state(h: Hypergraph, s: int) -> SignState:
    """Member s of the orthonormal basis generated by local Z flips on the
    edge state: apply Z on every vertex whose bit of s is set."""
    if not 0 <= s < (1 << h.n):
        raise ValueError(f"label {s} outside [0, 2**{h.n})")
    state = build_state(h)
    neg = state.neg
    for v in vertices_of_label(h.n, s):
        neg ^= _bit_pattern(h.n, label_bit(h.n, v))
    return SignState(h.n, neg)


def overlap(a: SignState, b: SignState) -> Fraction:
    """Exact inner product sum(signs_a * signs_b) / 2**n."""
    if a.n != b.n:
        raise ValueError("states must share the qubit count")
    disagreements = (a.neg ^ b.neg).bit_count()
    return Fraction(a.dim - 2 * disagreements, a.dim)


def extract_hypergraph(state: SignState) -> tuple[Hypergraph, int]:
    """Invert build_state: recover the edge set and a global phase of +-1.

    The sign table is normalized so the all-zero label carries +1, then the
    subset-XOR transform (its own inverse) turns the flip function back into
    the edge indicator.
    """
    neg = state.neg
    phase = 1
    if neg & 1:
        neg ^= _full_mask(state.n)
        phase = -1
    g = _subset_xor_transform(state.n, neg)
    edges = []
    x = g
    while x:
        low = x & -x
        edges.append(vertices_of_label(state.n, low.bit_length() - 1))
        x ^= low
    return Hypergraph(state.n, tuple(sorted(edges))), phase


def is_permutation_invariant(state: SignState) -> bool:
    """Check invariance under all vertex relabelings via adjacent swaps.

    Axis i of the (2,)*n view of the sign table is vertex i + 1's bit, so
    swapping two adjacent axes relabels two adjacent vertices; those swaps
    generate every permutation.
    """
    t = state.signs().reshape((2,) * state.n)
    return all(np.array_equal(t, t.swapaxes(i, i + 1)) for i in range(state.n - 1))


def stabilizer_defect(state: SignState, h: Hypergraph) -> int:
    """The labels flipped by the first edge-built vertex stabilizer K_v that
    moves the table (`moved.neg ^ state.neg`), or 0 when every K_v fixes it."""
    for v in h.vertices():
        moved = apply_stabilizer(state, h, v)
        if moved != state:
            return moved.neg ^ state.neg
    return 0


def projector_identity_check(h: Hypergraph) -> float:
    """Check 2**n |H><H| = prod_v (I + K_v) = sum_T K_T on the packed table.

    Write f for the sign table and m_v for vertex v's controlled-Z mask, so
    K_v sends f to X_v(f ^ m_v). If every K_v fixes f, then m_v = f ^ X_v f:
    m_v does not depend on x_v, so K_v is an involution, and
    m_u ^ X_v m_u = f ^ X_u f ^ X_v f ^ X_u X_v f is symmetric in u and v,
    so the K_v commute. The products K_T over vertex subsets T then form a
    group of 2**n elements with distinct X parts, each fixing |H>, and each
    but I traceless. So sum_T K_T, which equals the product, is 2**n times
    a projector of trace 1 onto |H>: the identity holds exactly when every
    K_v fixes the table.

    Returns the share of labels that the first failing K_v moves, 0.0 when
    the identity holds.
    """
    return stabilizer_defect(build_state(h), h).bit_count() / (1 << h.n)
