"""Exact Pauli decomposition of stabilizer products and setting counts.

A product of stabilizers over a vertex subset T equals (X on every T
vertex) times a +-1 diagonal, so its Pauli strings carry X-part exactly T.
The string weights come from one Walsh-Hadamard transform of that diagonal,
in integers: the string with Y on U = m&T and Z on V = m&T^c has
coefficient (-1)^(|U|/2) * W[m] / 2**n. Odd-|U| masks always transform to
zero, which is hermiticity appearing on its own; it is asserted, not
assumed.

The engine works on letter codes (I=0, X=1, Y=2, Z=3, qubit 1 first). The
n vertex diagonals are computed once per witness; each subset's surviving
masks become a (strings, n) uint8 code array and signed weight numerators
in numpy. For n <= DENSE_VALIDATE_LIMIT every block is summed back into a
dense matrix, entry by entry from the single-qubit Paulis, and compared
with the dense product. A code row packs to a base-4 integer key, whose
order is the order of the letter strings. PauliString objects and letter
strings are built only for the public API and for the final settings.

A measurement setting assigns one of X, Y, Z per qubit; a string is
measurable in a setting that matches all its non-identity letters. The
canonical grouping completes identities to Z, which reproduces the counting
arguments for the built-in families. The greedy cover is a first-fit over
(x_mask, z_mask, support) bitmasks in key order, qubit-wise-commuting
grouping as in Verteletskyi, Yen & Izmaylov, J. Chem. Phys. 152, 124114
(2020); it falls back to the canonical grouping when first-fit does worse.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from .hypergraph import Hypergraph
from .states import label_of_vertices, stabilizer_diagonal, stabilizer_product_diagonal
from .witness import WitnessKind, WitnessSpec

DENSE_VALIDATE_LIMIT = 6
SYMBOLIC_LIMIT = 10

_LETTERS = "IXYZ"
_LETTER_BYTES = np.frombuffer(_LETTERS.encode(), dtype=np.uint8)
_CODE_OF_BYTE = np.zeros(256, dtype=np.uint8)
_CODE_OF_BYTE[_LETTER_BYTES] = np.arange(4)
# Symplectic bits of each code (X-part x, Z-part z) and the code of (x, z) at 2x + z.
_X_BIT = np.array([0, 1, 1, 0])
_Z_BIT = np.array([0, 0, 1, 1])
_CODE_OF_XZ = np.array([0, 3, 1, 2], dtype=np.uint8)
_COMPLETED = np.array([3, 1, 2, 3], dtype=np.uint8)


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

    def setting(self) -> str:
        """Canonical completion: measure Z wherever the string is identity."""
        return self.letters.replace("I", "Z")


def _walsh_hadamard(values: np.ndarray) -> np.ndarray:
    out = values.astype(np.int64)
    h = 1
    while h < out.size:
        pairs = out.reshape(-1, 2, h)
        top = pairs[:, 0, :] + pairs[:, 1, :]
        pairs[:, 1, :] = pairs[:, 0, :] - pairs[:, 1, :]
        pairs[:, 0, :] = top
        h *= 2
    return out


_DENSE_PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}
# Entry (row bit r, column bit c) of the Pauli with code k sits at 4k + 2r + c.
_PAULI_ENTRIES = np.array([_DENSE_PAULI[c] for c in _LETTERS]).reshape(-1)


def dense_pauli(letters: str) -> np.ndarray:
    m = np.eye(1, dtype=np.complex128)
    for c in letters:
        m = np.kron(m, _DENSE_PAULI[c])
    return m


def _shifts(n: int) -> np.ndarray:
    """Label-bit position of each qubit, qubit 1 first."""
    return np.arange(n - 1, -1, -1)


def _bits(values: np.ndarray, n: int, width: int = 1) -> np.ndarray:
    """(values, n) uint8 digits of the given bit width, qubit 1 first."""
    # one column at a time: a (values, n) int64 temporary is 8x the result
    out = np.empty((values.size, n), dtype=np.uint8)
    for q, shift in enumerate(_shifts(n)):
        out[:, q] = (values >> (width * shift)) & ((1 << width) - 1)
    return out


def _pauli_sum(codes: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Dense sum of coefficient * string over the rows of a code array.

    Built by scatter: column x of a string has its one entry in row
    x ^ (X-part), the product over qubits of the single-qubit entry at
    (row bit, column bit). Work arrays stay (strings, 2**n).
    """
    n = codes.shape[1]
    dim = 1 << n
    cols = np.arange(dim)
    col_bits = _bits(cols, n)
    flips = _X_BIT[codes]
    rows = cols ^ (flips @ (1 << _shifts(n)))[:, None]
    values = np.repeat(coefficients.astype(np.complex128)[:, None], dim, axis=1)
    for q in range(n):
        row_bits = col_bits[:, q] ^ flips[:, q, None]
        values *= _PAULI_ENTRIES[4 * codes[:, q, None] + 2 * row_bits + col_bits[:, q]]
    flat = (rows * dim + cols).ravel()
    real = np.bincount(flat, values.real.ravel(), dim * dim)
    imag = np.bincount(flat, values.imag.ravel(), dim * dim)
    return (real + 1j * imag).reshape(dim, dim)


def _dense_product(n: int, tmask: int, diagonal: np.ndarray) -> np.ndarray:
    dim = 1 << n
    xs = np.arange(dim)
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[xs ^ tmask, xs] = diagonal
    return m


def _decompose(n: int, vs: tuple[int, ...], diagonal: np.ndarray, validate: bool) -> tuple[np.ndarray, np.ndarray]:
    """Letter codes and weight numerators (over 2**n) of one subset product.

    Mask m's string has X-part T and Z-part m.
    """
    tmask = label_of_vertices(n, vs)
    weights = _walsh_hadamard(diagonal)
    y_counts = np.bitwise_count(np.arange(weights.size) & tmask).astype(np.int64)
    if weights[(y_counts & 1) == 1].any():
        raise ValueError("odd Y count with nonzero weight; hermiticity violated")
    masks = np.flatnonzero(weights)
    numerators = weights[masks] * (1 - (y_counts[masks] & 2))
    codes = _CODE_OF_XZ[2 * ((tmask >> _shifts(n)) & 1) + _bits(masks, n)]
    if validate:
        rebuilt = _pauli_sum(codes, numerators / (1 << n))
        if float(np.abs(rebuilt - _dense_product(n, tmask, diagonal)).max()) > 1e-12:
            raise ValueError("Pauli expansion disagrees with the dense product")
    return codes, numerators


def _blocks(h: Hypergraph, subsets: Iterable[tuple[int, ...]]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Decompose each subset product, sharing the vertex diagonals."""
    diagonals = np.stack([stabilizer_diagonal(h, v) for v in h.vertices()])
    for vs in subsets:
        yield _decompose(h.n, vs, stabilizer_product_diagonal(h, vs, diagonals), h.n <= DENSE_VALIDATE_LIMIT)


def _all_subsets(n: int) -> Iterator[tuple[int, ...]]:
    for size in range(1, n + 1):
        yield from combinations(range(1, n + 1), size)


def _letters(codes: np.ndarray) -> list[str]:
    n = codes.shape[1]
    text = _LETTER_BYTES[codes].tobytes().decode("ascii")
    return [text[i : i + n] for i in range(0, len(text), n)]


def _pauli_strings(codes: np.ndarray, numerators: np.ndarray) -> tuple[PauliString, ...]:
    dim = 1 << codes.shape[1]
    return tuple(
        PauliString(letters, Fraction(w, dim)) for letters, w in zip(_letters(codes), numerators.tolist())
    )


def _string_codes(strings: Iterable[PauliString]) -> np.ndarray:
    """Code array of public strings; identity strings are rejected."""
    letters = [s.letters for s in strings]
    if not letters:
        return np.zeros((0, 1), dtype=np.uint8)
    n = len(letters[0])
    if any(len(p) != n for p in letters):
        raise ValueError("strings act on different qubit counts")
    codes = _CODE_OF_BYTE[np.frombuffer("".join(letters).encode(), dtype=np.uint8)].reshape(-1, n)
    if not codes.any(axis=1).all():
        raise ValueError("identity string carries no measurement setting")
    return codes


def _sorted_keys(blocks: Iterable[np.ndarray]) -> np.ndarray:
    """Distinct base-4 keys of the rows of code blocks, sorted.

    Key order is letter-string order. Each block is reduced to its keys as
    it arrives, so memory holds one block and the distinct keys.
    """
    keys: set[int] = set()
    for codes in blocks:
        keys.update((codes.astype(np.int64) @ (1 << (2 * _shifts(codes.shape[1])))).tolist())
    return np.array(sorted(keys), dtype=np.int64)


def _settings(keys: np.ndarray, n: int) -> tuple[str, ...]:
    """Letter strings of sorted keys."""
    return tuple(_letters(_bits(keys, n, 2)))


def _first_fit(keys: np.ndarray, n: int) -> tuple[str, ...]:
    """First-fit of sorted pattern keys into settings, or the canonical
    grouping when first-fit needs more settings.

    A group is (x_mask, z_mask, support); a pattern joins the first group
    that agrees with it on their common support.
    """
    codes = _bits(keys, n, 2)
    place = 1 << _shifts(n)
    groups: list[tuple[int, int, int]] = []
    for x, z in zip((_X_BIT[codes] @ place).tolist(), (_Z_BIT[codes] @ place).tolist()):
        s = x | z
        for i, (gx, gz, gs) in enumerate(groups):
            if not ((gx ^ x) | (gz ^ z)) & gs & s:
                groups[i] = (gx | x, gz | z, gs | s)
                break
        else:
            groups.append((x, z, s))
    masks = np.array(groups, dtype=np.int64).reshape(-1, 3)
    merged = _sorted_keys([_COMPLETED[_CODE_OF_XZ[2 * _bits(masks[:, 0], n) + _bits(masks[:, 1], n)]]])
    canonical = _sorted_keys([_COMPLETED[codes]])
    return _settings(merged if merged.size <= canonical.size else canonical, n)


def decompose_stabilizer_product(
    h: Hypergraph, subset: Iterable[int], *, validate: bool | None = None
) -> tuple[PauliString, ...]:
    """Exact Pauli expansion of the ordered stabilizer product over a subset."""
    vs = tuple(sorted(set(subset)))
    if not vs:
        raise ValueError("subset must be nonempty")
    if vs[0] < 1 or vs[-1] > h.n:
        raise ValueError(f"subset {vs} outside 1..{h.n}")
    check = bool(validate or (validate is None and h.n <= DENSE_VALIDATE_LIMIT))
    return _pauli_strings(*_decompose(h.n, vs, stabilizer_product_diagonal(h, vs), check))


def stabilizer_strings(h: Hypergraph) -> tuple[PauliString, ...]:
    """Strings of all n single stabilizers, concatenated in vertex order."""
    return tuple(s for block in _blocks(h, ((v,) for v in h.vertices())) for s in _pauli_strings(*block))


def projector_strings(h: Hypergraph) -> Iterator[tuple[PauliString, ...]]:
    """Stream the expansion of every nonempty stabilizer-subset product.

    Together with the identity these average to 2**n times the projector
    onto the state; the identity term carries no measurement cost and is
    not emitted.
    """
    for block in _blocks(h, _all_subsets(h.n)):
        yield _pauli_strings(*block)


def canonical_settings(strings: Iterable[PauliString]) -> tuple[str, ...]:
    """Distinct identity-to-Z completions, sorted."""
    codes = _string_codes(strings)
    return _settings(_sorted_keys([_COMPLETED[codes]]), codes.shape[1])


def greedy_min_settings(strings: Iterable[PauliString]) -> tuple[str, ...]:
    """First-fit merge of compatible strings into settings.

    Two strings are compatible when they agree wherever both are non-I.
    Falls back to the canonical grouping in the rare case first-fit
    fragments worse than it.
    """
    codes = _string_codes(strings)
    return _first_fit(_sorted_keys([codes]), codes.shape[1])


def exact_min_settings(strings: Iterable[PauliString], *, vertex_limit: int = 4) -> tuple[str, ...]:
    """Exhaustive minimum setting cover; exponential, capped by qubit count."""
    patterns = sorted({s.letters for s in strings})
    if not patterns:
        return ()
    n = len(patterns[0])
    if n > vertex_limit:
        raise ValueError(f"exact cover capped at {vertex_limit} qubits, got {n}")

    def candidates(p: str) -> list[str]:
        opts = [(c,) if c != "I" else ("X", "Y", "Z") for c in p]
        out = [""]
        for o in opts:
            out = [prefix + c for prefix in out for c in o]
        return out

    def covers(setting: str, p: str) -> bool:
        return all(c == "I" or c == setting[i] for i, c in enumerate(p))

    best: list[tuple[str, ...]] = [tuple(canonical_settings(PauliString(p, Fraction(1)) for p in patterns))]

    def search(uncovered: list[str], chosen: list[str]) -> None:
        if len(chosen) >= len(best[0]):
            return
        if not uncovered:
            best[0] = tuple(sorted(chosen))
            return
        pivot = min(uncovered, key=lambda p: len(candidates(p)))
        for setting in candidates(pivot):
            rest = [p for p in uncovered if not covers(setting, p)]
            search(rest, chosen + [setting])

    search(patterns, [])
    return best[0]


def witness_settings(
    spec: WitnessSpec, mode: SettingMode = SettingMode.CANONICAL, *, symbolic_limit: int = SYMBOLIC_LIMIT
) -> tuple[str, ...]:
    """Settings needed to measure the witness, per its own decomposition."""
    h = spec.hypergraph
    if spec.kind is WitnessKind.PROJECTOR:
        if h.n > symbolic_limit:
            raise ValueError(f"projector decomposition capped at n <= {symbolic_limit}, got n={h.n}")
        subsets: Iterable[tuple[int, ...]] = _all_subsets(h.n)
    else:
        subsets = ((v,) for v in h.vertices())
    if mode is SettingMode.CANONICAL:
        return _settings(_sorted_keys(_COMPLETED[codes] for codes, _ in _blocks(h, subsets)), h.n)
    return _first_fit(_sorted_keys(codes for codes, _ in _blocks(h, subsets)), h.n)


def witness_setting_count(
    spec: WitnessSpec, mode: SettingMode = SettingMode.CANONICAL, *, symbolic_limit: int = SYMBOLIC_LIMIT
) -> int:
    return len(witness_settings(spec, mode, symbolic_limit=symbolic_limit))


def family_projector_count(n: int) -> int:
    """Closed-form canonical count for the single-max-edge family, n >= 3."""
    return (3**n - 1) // 2


def product_setting_count(h: Hypergraph, subset: Iterable[int]) -> int:
    return len(canonical_settings(decompose_stabilizer_product(h, subset)))
