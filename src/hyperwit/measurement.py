"""Exact Pauli decomposition of stabilizer products and setting counts.

Two public routes leave this module: `decompose_stabilizer_product` gives
the strings of one product, and `witness_settings` gives the settings of a
witness, from the n single stabilizers or all 2**n - 1 nonempty products.
Both run on the same stacked engine.

A product of stabilizers over a vertex subset T equals (X on every T
vertex) times a +-1 diagonal d_T, so its Pauli strings carry X-part exactly
T. The string weights come from the Walsh-Hadamard transform W of d_T, in
integers: the string with Y on U = m&T and Z on V = m&T^c has coefficient
(-1)^(|U|/2) * W[m] / 2**n. Odd-|U| masks always transform to zero, which
is hermiticity appearing on its own; it is asserted, not assumed.

The engine is stacked. Subsets are rows of a (subsets, 2**n) array, each
known by its label mask T, and one row-wise int64 transform covers a chunk
of them. Each K_v equals U X_v U with U = diag(s), s the state's sign
table, so every product is X_T times d_T(x) = s(x ^ T) * s(x), in any
order: a chunk of subsets, holding a bounded number of entries, is one
gather on s. One generator, `_strings(h, labels)`, yields each chunk's
strings as (x, z, numerators) arrays, and both public routes consume it.
It alone decides n <= DENSE_VALIDATE_LIMIT, once per call, and that one
decision turns on the stabilizer tie-in, sizes the chunks for the dense
check and runs the check. Under it every edge-built vertex stabilizer must
first fix the packed table, so each single-vertex row of the gather is the
edge-built vertex diagonal; every product follows.

A string is a pair of bitmasks, X-part x and Z-part z (the transform mask).
Its base-4 key spread(x ^ z) | spread(z) << 1, with spread moving bit i to
bit 2i, holds the letter codes I=0, X=1, Y=2, Z=3 with qubit 1 most
significant, so key order is letter-string order. The canonical completion
sets z |= ~x. For n <= DENSE_VALIDATE_LIMIT every chunk is summed back into
(subsets, 2**n, 2**n) Gaussian-integer matrices, numerator times a power of
i tracked mod 4 qubit by qubit from the codes, and compared for equality
with 2**n times the dense products. PauliString objects and letter strings
are built only for decompose_stabilizer_product and for the final settings.

A measurement setting assigns one of X, Y, Z per qubit; a string is
measurable in a setting that matches all its non-identity letters. The
canonical grouping completes identities to Z, which reproduces the counting
arguments for the built-in families. Every string of a vertex stabilizer
K_i is X on i and Z or I elsewhere, so the canonical settings of the
stabilizer witness are X on i and Z elsewhere, one per vertex, with no
expansion (cross-checked against the engine for n <= DENSE_VALIDATE_LIMIT).
The greedy cover is a first-fit over (x_mask, z_mask, support) bitmasks in
key order, qubit-wise-commuting grouping as in Verteletskyi, Yen & Izmaylov,
J. Chem. Phys. 152, 124114 (2020); it falls back to the canonical grouping
when first-fit does worse.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .hypergraph import Hypergraph
from .states import build_state, label_of_vertices, stabilizer_defect
from .witness import WitnessKind, WitnessSpec

DENSE_VALIDATE_LIMIT = 6
SYMBOLIC_LIMIT = 10

# Distinct keys are marked in a table of all 4**n keys up to this size, and
# sorted beyond it.
_KEY_TABLE = 1 << 20
# Subsets are expanded in chunks of at most this many entries (subsets times
# 2**n, or times 4**n under the dense check); one subset when a single one
# is larger.
_CHUNK_ENTRIES = 1 << 14

_LETTERS = "IXYZ"
_LETTER_BYTES = np.frombuffer(_LETTERS.encode(), dtype=np.uint8)
# Symplectic bits of each code (X-part x, Z-part z).
_X_BIT = np.array([0, 1, 1, 0])
_Z_BIT = np.array([0, 0, 1, 1])
# Each byte value with bit i moved to bit 2i.
_SPREAD_BYTE = np.array([sum(((b >> i) & 1) << (2 * i) for i in range(8)) for b in range(256)], dtype=np.int64)
# Power of i of a single-qubit Pauli's entry in column bit c (row bit c ^ x), by code.
_PHASE = np.array([[0, 0], [0, 0], [1, 3], [0, 2]], dtype=np.int8)


class SettingMode(Enum):
    CANONICAL = "canonical"
    GREEDY = "greedy"


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis with an exact scalar weight.

    Letters read q1..qn left to right; the coefficient is dyadic because
    every controlled-Z expands over ((I-Z)/2) factors.
    """

    letters: str
    coefficient: Fraction

    def __post_init__(self) -> None:
        if set(self.letters) - set("IXYZ"):
            raise ValueError(f"bad letters {self.letters!r}")

    @property
    def y_count(self) -> int:
        return self.letters.count("Y")


def _shifts(n: int) -> np.ndarray:
    """Label-bit position of each qubit, qubit 1 first."""
    return np.arange(n - 1, -1, -1)


def _codes(keys: np.ndarray, n: int) -> np.ndarray:
    """(keys, n) uint8 letter codes of base-4 keys, qubit 1 first."""
    # one column at a time: a (keys, n) int64 temporary is 8x the result
    out = np.empty((keys.size, n), dtype=np.uint8)
    for q, shift in enumerate(_shifts(n)):
        out[:, q] = (keys >> (2 * shift)) & 3
    return out


def _letters(keys: np.ndarray, n: int) -> tuple[str, ...]:
    """Letter strings of base-4 keys."""
    text = _LETTER_BYTES[_codes(keys, n)].tobytes().decode("ascii")
    return tuple(text[i : i + n] for i in range(0, len(text), n))


def _spread(values: np.ndarray, n: int) -> np.ndarray:
    """Bit i of each n-bit value moved to bit 2i."""
    out = _SPREAD_BYTE[values & 255]
    for low in range(8, n, 8):
        out |= _SPREAD_BYTE[(values >> low) & 255] << (2 * low)
    return out


def _keys(x: np.ndarray, z: np.ndarray, n: int, *, complete: bool = False) -> np.ndarray:
    """Base-4 keys of strings (x, z); complete=True measures Z on every identity."""
    if complete:
        z = z | (~x & ((1 << n) - 1))
    keys = _spread(z, n)
    keys <<= 1
    keys |= _spread(x ^ z, n)
    return keys


def _walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Row-wise Walsh-Hadamard transform of a (rows, 2**n) array, in int64."""
    out = values.astype(np.int64)
    spare = np.empty(out.size // 2, dtype=np.int64)
    h = 1
    while h < out.shape[-1]:
        pairs = out.reshape(-1, 2, h)
        top, bottom, total = pairs[:, 0, :], pairs[:, 1, :], spare.reshape(-1, h)
        np.add(top, bottom, out=total)
        np.subtract(top, bottom, out=bottom)
        top[...] = total
        h *= 2
    return out


def _exact_sum(n: int, rows: np.ndarray, keys: np.ndarray, numerators: np.ndarray, count: int) -> np.ndarray:
    """Per row r < count, the sum of numerator * string over the strings in r.

    A string's entry in column c sits in row c ^ x and is a power of i, the
    sum mod 4 of each qubit's _PHASE by code and column bit; i**p is real
    for even p and imaginary for odd p. Returns (count, 2**n, 2**n, 2)
    int64, real and imaginary parts last.
    """
    dim = 1 << n
    cols = np.arange(dim)
    x = np.zeros(keys.size, dtype=np.int64)
    phase = np.zeros((keys.size, dim), dtype=np.int8)
    for shift in range(n):
        code = (keys >> (2 * shift)) & 3
        x |= _X_BIT[code] << shift
        phase += _PHASE[code[:, None], (cols >> shift) & 1]
    cell = rows[:, None] * dim + (cols ^ x[:, None])
    cell *= dim
    cell += cols
    cell *= 2
    cell += phase & 1
    out = np.zeros((count, dim, dim, 2), dtype=np.int64)
    np.add.at(out.reshape(-1), cell, numerators[:, None] * (1 - (phase & 2)))
    return out


def _check_dense(n: int, labels: np.ndarray, diagonals: np.ndarray, rows: np.ndarray, x: np.ndarray,
                 z: np.ndarray, numerators: np.ndarray) -> None:
    """Exact equality of the expansion with 2**n times each dense product."""
    cols = np.arange(1 << n)
    excess = _exact_sum(n, rows, _keys(x, z, n), numerators, labels.size)
    excess[np.arange(labels.size)[:, None], cols ^ labels[:, None], cols, 0] -= diagonals.astype(np.int64) << n
    if excess.any():
        raise ValueError("Pauli expansion disagrees with the dense product")


def _strings(h: Hypergraph, labels: np.ndarray, *, signed: bool = False
             ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
    """(x, z, numerators over 2**n) of the nonzero weights of the given
    subsets, one chunk of rows at a time: row by row, by ascending z within
    a row. Numerators are None unless signed or validated.

    Row T is the gather s(x ^ T) * s(x) on the state's sign table s. For
    n <= DENSE_VALIDATE_LIMIT every edge-built vertex stabilizer must first
    fix the table, chunks are sized for the dense matrices and each one is
    checked against them.
    """
    n = h.n
    validate = n <= DENSE_VALIDATE_LIMIT
    state = build_state(h)
    if validate and stabilizer_defect(state, h):
        raise ValueError("sign table disagrees with the edge-built vertex stabilizers")
    signs = state.signs()
    xs = np.arange(1 << n)
    step = max(1, _CHUNK_ENTRIES >> (2 * n if validate else n))
    for start in range(0, labels.size, step):
        part = labels[start : start + step]
        diagonals = signs[part[:, None] ^ xs] * signs
        weights = _walsh_hadamard(diagonals)
        rows, z = np.nonzero(weights)
        x = part[rows]
        y_counts = np.bitwise_count(x & z)
        if (y_counts & 1).any():
            raise ValueError("odd Y count with nonzero weight; hermiticity violated")
        numerators = None
        if signed or validate:
            numerators = weights[rows, z]
            numerators[(y_counts & 2) != 0] *= -1
        if validate:
            _check_dense(n, part, diagonals, rows, x, z, numerators)
        yield x, z, numerators


def _sorted_keys(blocks: Iterable[np.ndarray], n: int) -> np.ndarray:
    """Distinct keys of the blocks, sorted.

    Keys below 4**n <= _KEY_TABLE are marked in a table of all keys, which
    needs no sort; in larger spaces each block is sorted and deduplicated,
    and the concatenation of those distinct keys is sorted once.
    """
    if 4**n <= _KEY_TABLE:
        seen = np.zeros(4**n, dtype=bool)
        for block in blocks:
            seen[block] = True
        return np.flatnonzero(seen)
    return np.unique(np.concatenate([np.unique(block) for block in blocks]))


def _first_fit(keys: np.ndarray, n: int) -> tuple[str, ...]:
    """First-fit of sorted pattern keys into settings, or the canonical
    grouping when first-fit needs more settings.

    A group is (x_mask, z_mask, support); a pattern joins the first group
    that agrees with it on their common support.
    """
    codes = _codes(keys, n)
    place = 1 << _shifts(n)
    xs, zs = _X_BIT[codes] @ place, _Z_BIT[codes] @ place
    groups: list[tuple[int, int, int]] = []
    for x, z in zip(xs.tolist(), zs.tolist()):
        s = x | z
        for i, (gx, gz, gs) in enumerate(groups):
            if not ((gx ^ x) | (gz ^ z)) & gs & s:
                groups[i] = (gx | x, gz | z, gs | s)
                break
        else:
            groups.append((x, z, s))
    masks = np.array(groups, dtype=np.int64).reshape(-1, 3)
    merged = _sorted_keys([_keys(masks[:, 0], masks[:, 1], n, complete=True)], n)
    canonical = _sorted_keys([_keys(xs, zs, n, complete=True)], n)
    return _letters(merged if merged.size <= canonical.size else canonical, n)


def _stabilizer_settings(n: int) -> tuple[str, ...]:
    """Canonical settings of the stabilizer witness: X on vertex i, Z elsewhere."""
    return tuple("Z" * (i - 1) + "X" + "Z" * (n - i) for i in range(1, n + 1))


def decompose_stabilizer_product(h: Hypergraph, subset: Iterable[int]) -> tuple[PauliString, ...]:
    """Exact Pauli expansion of the ordered stabilizer product over a subset."""
    vs = tuple(sorted(set(subset)))
    if not vs:
        raise ValueError("subset must be nonempty")
    if vs[0] < 1 or vs[-1] > h.n:
        raise ValueError(f"subset {vs} outside 1..{h.n}")
    ((x, z, numerators),) = _strings(h, np.array([label_of_vertices(h.n, vs)]), signed=True)
    letters = _letters(_keys(x, z, h.n), h.n)
    return tuple(PauliString(p, Fraction(w, 1 << h.n)) for p, w in zip(letters, numerators.tolist()))


def witness_settings(
    spec: WitnessSpec, mode: SettingMode = SettingMode.CANONICAL, *, symbolic_limit: int = SYMBOLIC_LIMIT
) -> tuple[str, ...]:
    """Settings needed to measure the witness, per its own decomposition."""
    h = spec.hypergraph
    stabilizer = spec.kind is WitnessKind.STABILIZER
    complete = mode is SettingMode.CANONICAL
    if not (stabilizer and complete) and h.n > symbolic_limit:
        raise ValueError(f"{spec.kind.value} decomposition capped at n <= {symbolic_limit}, got n={h.n}")
    if stabilizer and complete and h.n > DENSE_VALIDATE_LIMIT:
        return _stabilizer_settings(h.n)
    labels = 1 << _shifts(h.n) if stabilizer else np.arange(1, 1 << h.n)
    keys = _sorted_keys((_keys(x, z, h.n, complete=complete) for x, z, _ in _strings(h, labels)), h.n)
    if not complete:
        return _first_fit(keys, h.n)
    settings = _letters(keys, h.n)
    if stabilizer and settings != _stabilizer_settings(h.n):
        raise ValueError("stabilizer settings disagree with X on each vertex, Z elsewhere")
    return settings

