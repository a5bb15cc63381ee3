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
from typing import Iterable

import numpy as np

from .hypergraph import Hypergraph

MAX_QUBITS = 24
DENSE_LIMIT = 8


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
    masks = [_bit_pattern(n, label_bit(n, v)) for v in vertices]
    return reduce(lambda a, b: a & b, masks, _full_mask(n))


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
        if not 0 <= self.neg < (1 << (1 << self.n)):
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


def _link_mask(h: Hypergraph, vertex: int) -> int:
    """Packed sign flips of the vertex stabilizer's controlled-Z part: the XOR
    of superset_mask over the residuals of the edges through the vertex. An
    empty residual, from a single-vertex edge, flips every label."""
    mask = 0
    for e in h.edges:
        if vertex in e:
            mask ^= superset_mask(h.n, tuple(v for v in e if v != vertex))
    return mask


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
    return apply_x(SignState(h.n, state.neg ^ _link_mask(h, vertex)), vertex)


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


def stabilizer_diagonal(h: Hypergraph, vertex: int) -> np.ndarray:
    """Dense +-1 diagonal of the vertex stabilizer's controlled-Z part."""
    if not 1 <= vertex <= h.n:
        raise ValueError(f"vertex {vertex} outside 1..{h.n}")
    return SignState(h.n, _link_mask(h, vertex)).signs().astype(np.int64)


def projector_identity_check(h: Hypergraph, *, dense_limit: int = DENSE_LIMIT) -> float:
    """Compare 2**n |H><H| against both product and group-average forms.

    Builds the outer product of the sign table, the telescoped product of
    (I + K_v), and the sum of all 2**n distinct stabilizer-subset products,
    all in exact integers. Returns the largest entrywise deviation divided
    by 2**n (0.0 when the identity holds exactly).
    """
    if h.n > dense_limit:
        raise ValueError(f"dense check limited to n <= {dense_limit}, got n={h.n}")
    dim = 1 << h.n
    xs = np.arange(dim)
    signs = build_state(h).signs().astype(np.int64)
    outer = np.outer(signs, signs)

    diagonals = [stabilizer_diagonal(h, v) for v in h.vertices()]

    # K_v maps column x to row x ^ bit with factor d(x), so K_v @ prod is the
    # rows of d[:, None] * prod permuted by x -> x ^ bit
    prod = np.eye(dim, dtype=np.int64)
    for v, d in zip(h.vertices(), diagonals):
        prod = prod + (d[:, None] * prod)[xs ^ (1 << label_bit(h.n, v))]

    # Row T of `products` is the diagonal d_T of K_v1 K_v2 ... K_vk over T's
    # vertices v1 < ... < vk, which maps column x to row x ^ T. Peeling v1,
    # the owner of T's highest label bit: d_T(x) = d_rest(x) * d_v1(x ^ rest).
    products = np.ones((dim, dim), dtype=np.int64)
    for t in range(1, dim):
        rest = t ^ (1 << (t.bit_length() - 1))
        products[t] = products[rest] * diagonals[h.n - t.bit_length()][xs ^ rest]
    group_sum = products[xs[:, None] ^ xs, xs]

    dev = max(np.abs(outer - prod).max(), np.abs(outer - group_sum).max())
    return float(dev) / dim
