"""Dense reference implementations used to cross-check the fast paths.

Everything here favors clarity over speed: states are explicit vectors, gates
are explicit matrices, reductions go through reshape/transpose. Vertex v owns
bit n-v of the basis label, so vertex 1 is the most significant bit.
"""

from functools import lru_cache
from itertools import combinations

import numpy as np

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def edge_hits(n: int, edge, x: int) -> bool:
    return all((x >> (n - v)) & 1 for v in edge)


def dense_state(n: int, edges) -> np.ndarray:
    dim = 1 << n
    amps = np.ones(dim)
    for x in range(dim):
        for e in edges:
            if edge_hits(n, e, x):
                amps[x] = -amps[x]
    return amps / np.sqrt(dim)


def cz_matrix(n: int, edge) -> np.ndarray:
    d = np.ones(1 << n)
    for x in range(1 << n):
        if edge_hits(n, edge, x):
            d[x] = -1.0
    return np.diag(d)


def x_matrix(n: int, vertex: int) -> np.ndarray:
    dim = 1 << n
    m = np.zeros((dim, dim))
    bit = 1 << (n - vertex)
    for x in range(dim):
        m[x ^ bit, x] = 1.0
    return m


def z_matrix(n: int, vertex: int) -> np.ndarray:
    return cz_matrix(n, (vertex,))


def stabilizer_matrix(n: int, edges, vertex: int) -> np.ndarray:
    m = x_matrix(n, vertex)
    for e in edges:
        if vertex not in e:
            continue
        rest = tuple(v for v in e if v != vertex)
        if rest:
            m = cz_matrix(n, rest) @ m
        else:
            m = -m
    return m


@lru_cache(maxsize=16)
def _frozen_stabilizer_matrix(n: int, edges, vertex: int) -> np.ndarray:
    m = stabilizer_matrix(n, edges, vertex)
    m.flags.writeable = False
    return m


def product_diagonal(n: int, edges, vertices) -> np.ndarray:
    """Diagonal d_T of the ordered product K_v1 K_v2 ... over the vertices,
    read off the dense product, which maps column x to row x ^ T."""
    edges = tuple(map(tuple, edges))
    m = np.eye(1 << n)
    t = 0
    for v in vertices:
        m = m @ _frozen_stabilizer_matrix(n, edges, v)
        t |= 1 << (n - v)
    xs = np.arange(1 << n)
    return m[xs ^ t, xs].astype(np.int64)


def pauli_matrix(letters: str) -> np.ndarray:
    m = np.array([[1.0 + 0j]])
    for ch in letters:
        m = np.kron(m, PAULI[ch])
    return m


def cut_matrix(amps: np.ndarray, n: int, part_a) -> np.ndarray:
    tensor = amps.reshape((2,) * n)
    part_a = sorted(part_a)
    rest = [v for v in range(1, n + 1) if v not in part_a]
    order = [v - 1 for v in part_a + rest]
    return np.transpose(tensor, order).reshape(1 << len(part_a), -1)


def dense_alpha_cut(amps: np.ndarray, n: int, part_a) -> float:
    sv = np.linalg.svd(cut_matrix(amps, n, part_a), compute_uv=False)
    return float(sv[0] ** 2)


def per_cut_alpha(signs: np.ndarray, n: int, part_a) -> float:
    """alpha of one cut computed on its own: the float64 Gram of the smaller
    side's cut matrix (side A when both have n/2 vertices) and its top
    eigenvalue over 2**n."""
    side = sorted(part_a)
    if len(side) > n // 2:
        side = [v for v in range(1, n + 1) if v not in side]
    m = cut_matrix(signs.astype(np.float64), n, side)
    return float(np.linalg.eigvalsh(m @ m.T)[-1]) / 2**n


def dense_alpha(amps: np.ndarray, n: int) -> float:
    best = 0.0
    for size in range(0, n - 1):
        for extra in combinations(range(2, n + 1), size):
            best = max(best, dense_alpha_cut(amps, n, (1,) + extra))
    return best


def reduced_density(amps: np.ndarray, n: int, kept) -> np.ndarray:
    m = cut_matrix(amps, n, kept)
    return m @ m.conj().T


def dense_projected(amps: np.ndarray, n: int, vertex: int, outcome: int) -> np.ndarray:
    tensor = amps.reshape((2,) * n)
    return np.take(tensor, outcome, axis=vertex - 1).reshape(-1)


def proportional(u: np.ndarray, v: np.ndarray, tol: float = 1e-12) -> bool:
    """True when u = c*v for some nonzero scalar c."""
    i = int(np.argmax(np.abs(v)))
    if abs(v[i]) < tol:
        return bool(np.max(np.abs(u)) < tol)
    c = u[i] / v[i]
    return bool(abs(c) > tol and np.allclose(u, c * v, atol=tol))


def permute_vertices(edges, perm) -> tuple[tuple[int, ...], ...]:
    """Edges relabelled vertex v -> perm[v-1], sorted; perm is a permutation of 1..n."""
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise ValueError("perm must be a permutation of 1..n")
    return tuple(sorted(tuple(sorted(perm[v - 1] for v in e)) for e in edges))


def dense_expectation(spec, noisy) -> float:
    """Tr(W rho) of a witness on a white-noise mixture, from dense matrices.

    Reads only attributes: the witness's kind, hypergraph, alpha and beta,
    and the state's hypergraph and noise fraction p. The projector witness
    is alpha*I - |H><H|, the stabilizer witness beta*I - sum_v K_v.
    """
    n = spec.hypergraph.n
    dim = 1 << n
    amps = dense_state(n, noisy.hypergraph.edges)
    p = float(noisy.p)
    rho = p * np.eye(dim) / dim + (1.0 - p) * np.outer(amps, amps)
    if spec.kind.value == "projector":
        target = dense_state(n, spec.hypergraph.edges)
        w = float(spec.alpha) * np.eye(dim) - np.outer(target, target)
    else:
        ks = sum(stabilizer_matrix(n, spec.hypergraph.edges, v) for v in range(1, n + 1))
        w = float(spec.beta) * np.eye(dim) - ks
    return float(np.trace(w @ rho))


def exact_min_settings(patterns) -> tuple[str, ...]:
    """Minimum cover of Pauli letter strings by settings, by branch and bound
    from the identity-to-Z completions; exponential, so capped at 4 qubits."""
    patterns = sorted(set(patterns))
    if not patterns:
        return ()
    n = len(patterns[0])
    if n > 4:
        raise ValueError(f"exact cover capped at 4 qubits, got {n}")

    def candidates(p: str) -> list[str]:
        out = [""]
        for c in p:
            out = [prefix + o for prefix in out for o in ("XYZ" if c == "I" else c)]
        return out

    def covers(setting: str, p: str) -> bool:
        return all(c == "I" or c == s for c, s in zip(p, setting))

    best = [tuple(sorted({p.replace("I", "Z") for p in patterns}))]

    def search(uncovered: list[str], chosen: list[str]) -> None:
        if len(chosen) >= len(best[0]):
            return
        if not uncovered:
            best[0] = tuple(sorted(chosen))
            return
        pivot = min(uncovered, key=lambda p: len(candidates(p)))
        for setting in candidates(pivot):
            search([p for p in uncovered if not covers(setting, p)], chosen + [setting])

    search(patterns, [])
    return best[0]
