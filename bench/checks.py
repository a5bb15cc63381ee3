"""Output checkers that recompute every claim from first principles.

Nothing here imports `hyperwit`: sign tables, Schmidt coefficients, closed
forms and Pauli supports are rebuilt with numpy from the edge list, so a
wrong answer from the program cannot also fool its checker.

Each checker returns None when the output is right, else a short reason.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from workloads import Task

TOL = 1e-9


def family_edges(family: str, n: int) -> tuple[tuple[int, ...], ...]:
    full = tuple(range(1, n + 1))
    if family == "single-max":
        return (full,)
    lower = [tuple(c) for c in combinations(full, n - 1)]
    return tuple(sorted(lower if family == "all-n-1" else lower + [full]))


def sign_bits(n: int, edges) -> np.ndarray:
    """1 where the amplitude of |x> is negative: x's support holds an odd number of edges.

    Vertex v owns label bit n - v, so vertex 1 is the most significant bit.
    """
    xs = np.arange(1 << n, dtype=np.int64)
    bits = np.zeros(1 << n, dtype=np.uint8)
    for e in edges:
        m = sum(1 << (n - v) for v in e)
        bits ^= ((xs & m) == m).astype(np.uint8)
    return bits


def signs_hex(bits: np.ndarray) -> str:
    """Bit x of the number is entry x of the table, written in lowercase hex."""
    packed = np.packbits(bits, bitorder="little").tobytes()
    return packed[::-1].hex().lstrip("0") or "0"


def cut_alpha(n: int, bits: np.ndarray, part_a) -> float:
    """Largest squared Schmidt coefficient across the cut, from an SVD."""
    order = list(part_a) + [v for v in range(1, n + 1) if v not in set(part_a)]
    m = (1.0 - 2.0 * bits).reshape((2,) * n).transpose([v - 1 for v in order])
    sv = np.linalg.svd(m.reshape(1 << len(part_a), -1), compute_uv=False)
    return float(sv[0] ** 2) / (1 << n)


def brute_alpha(n: int, bits: np.ndarray) -> float:
    return max(
        cut_alpha(n, bits, (1,) + rest)
        for size in range(n - 1)
        for rest in combinations(range(2, n + 1), size)
    )


def closed_form_alpha(family: str, n: int) -> Fraction | float:
    """Family alphas from the paper, with the n = 4 and n = 3 exceptions."""
    half = 1 << (n - 1)
    if family == "single-max":
        return Fraction(half - 1, half)
    if family == "all-n-1":
        if n == 4:
            return (3 + math.sqrt(5)) / 8
        return Fraction(half - n, half) if n % 2 == 0 else Fraction(half - n + 1, half)
    if n == 3:
        return Fraction(3, 4)
    return Fraction(half - n + 1, half) if n % 2 == 0 else Fraction(half - n, half)


def _exact(doc: dict) -> Fraction:
    return Fraction(doc["num"], doc["den"])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


# --- Pauli supports -------------------------------------------------------

_LETTER = np.array(["I", "X", "Z", "Y"])  # index = x_bit + 2 * z_bit


def _walsh_hadamard(rows: np.ndarray) -> np.ndarray:
    """In place, row by row: rows[:, b] <- sum_x rows[:, x] (-1)^popcount(b & x)."""
    k, size = rows.shape
    h = 1
    while h < size:
        pairs = rows.reshape(k, size // (2 * h), 2, h)
        low = pairs[:, :, 0, :].copy()
        pairs[:, :, 0, :] += pairs[:, :, 1, :]
        np.subtract(low, pairs[:, :, 1, :], out=pairs[:, :, 1, :])
        h *= 2
    return rows


def pauli_support(n: int, edges, x_masks) -> list[str]:
    """Strings X^a Z^b (a in x_masks) with nonzero expectation on the state.

    <H|X^a Z^b|H> is, up to phase, sum_x s(x) s(x^a) (-1)^(b.x), a Walsh-Hadamard
    transform of one row. The stabilizer K_v's strings are the row a = bit of v,
    and 2^n |H><H| expands over every row a != 0.
    """
    s = 1 - 2 * sign_bits(n, edges).astype(np.int64)
    xs = np.arange(1 << n)
    a = np.asarray(x_masks, dtype=np.int64)
    coeff = _walsh_hadamard(s[None, :] * s[xs[None, :] ^ a[:, None]])
    ai, bi = np.nonzero(coeff)
    a_sel, b_sel = a[ai], bi
    shifts = np.arange(n - 1, -1, -1)
    codes = ((a_sel[:, None] >> shifts) & 1) + 2 * ((b_sel[:, None] >> shifts) & 1)
    return ["".join(row) for row in _LETTER[codes]]


def _covered(patterns: list[str], settings: list[str]) -> bool:
    """Every pattern agrees with some setting wherever the pattern is not I."""
    code = {"I": 0, "X": 1, "Y": 2, "Z": 3}
    p = np.array([[code[c] for c in s] for s in patterns], dtype=np.int8)
    covered = np.zeros(len(patterns), dtype=bool)
    for setting in settings:  # one setting at a time keeps memory at O(patterns)
        q = np.array([code[c] for c in setting], dtype=np.int8)
        covered |= ((p == 0) | (p == q)).all(axis=1)
    return bool(covered.all())


# --- per-command checkers -------------------------------------------------


def _check_echo(task: Task, doc: dict) -> str | None:
    if task.slot.startswith("campaign"):
        return None
    edges = task.edges if task.family is None else family_edges(task.family, task.n)
    if doc.get("n") != task.n or [tuple(e) for e in doc.get("edges", [])] != list(edges):
        return "echoed instance differs from the input"
    return None


def check_dump(task: Task, doc: dict) -> str | None:
    if doc.get("signs_hex") != signs_hex(sign_bits(task.n, task.edges)):
        return "signs_hex differs from the reference sign table"
    return None


def check_verify(task: Task, doc: dict) -> str | None:
    # The output holds no state to recompute, so beyond the echoed instance this
    # trusts the program's own `ok`: a no-op stabilizer would pass here.
    if doc.get("check") != "stabilizers" or doc.get("ok") is not True:
        return "stabilizer check did not report ok"
    return None


def check_procedure(task: Task, doc: dict) -> str | None:
    want = float(closed_form_alpha(task.family, task.n))
    if not _close(doc["alpha"], want):
        return f"procedure alpha {doc['alpha']} != closed form {want}"
    if not _close(doc["E"], 1.0 - want):
        return "E != 1 - alpha"
    if len(doc["procedure"]["rows"]) != task.n // 2 - 1:
        return "procedure row count wrong"
    return None


def check_brute(task: Task, doc: dict) -> str | None:
    n = task.n
    rows = doc["per_bipartition"]
    if len(rows) != (1 << (n - 1)) - 1:
        return "sweep skipped bipartitions"
    if not _close(doc["alpha"], max(r["alpha"] for r in rows)) or not _close(doc["E"], 1.0 - doc["alpha"]):
        return "alpha is not the sweep maximum"
    bound = 2.0 ** (1 - max(len(e) for e in task.edges))
    if doc["E"] < bound - TOL:
        return f"E={doc['E']} below the bound {bound}"
    own = cut_alpha(n, sign_bits(n, task.edges), doc["argmax_part_a"])
    if not _close(doc["alpha"], own):
        return f"argmax-cut alpha {doc['alpha']} != reference SVD {own}"
    return None


def check_crosscheck(task: Task, doc: dict) -> str | None:
    if doc.get("match") is not True or "procedure" not in doc:
        return "cross-check routes disagree or procedure missing"
    want = float(closed_form_alpha(task.family, task.n))
    if not _close(doc["alpha"], want):
        return f"brute alpha {doc['alpha']} != closed form {want}"
    return None


def check_campaign(task: Task, doc: dict) -> str | None:
    if doc.get("seed") != task.seed or doc.get("max_n") != task.n:
        return "campaign echoes another seed or size"
    if doc.get("all_hold") is not True or len(doc["rows"]) != doc["count"]:
        return "campaign reports a failed bound"
    for row in doc["rows"]:
        n, edges = row["n"], [tuple(e) for e in row["edges"]]
        k_max = max(len(e) for e in edges)
        if row["k_max"] != k_max or _exact(row["bound"]) != Fraction(1, 1 << (k_max - 1)):
            return "campaign bound is not 2^(1-k_max)"
        own_e = 1.0 - brute_alpha(n, sign_bits(n, edges))
        if not _close(row["entanglement"], own_e) or own_e < float(_exact(row["bound"])) - TOL:
            return f"campaign row {row['index']}: E differs from the reference sweep"
    return None


def check_reduce(task: Task, doc: dict) -> str | None:
    side = set(task.part_a) if 1 in task.part_a else set(range(1, task.n + 1)) - set(task.part_a)
    if doc["part_a"] != sorted(side):
        return "certificate is for another cut"
    kappa = doc["kappa_prime_worst"]
    bound = Fraction(1, 1 << (kappa - 1))
    if doc.get("validated") is not True:
        return "certificate not validated"
    if _exact(doc["bound"]) != bound:
        return "bound is not 2^(1-kappa_prime_worst)"
    own_e = 1.0 - cut_alpha(task.n, sign_bits(task.n, task.edges), doc["part_a"])
    if not _close(doc["entanglement_ab"], own_e):
        return f"E_ab {doc['entanglement_ab']} != reference SVD {own_e}"
    if own_e < float(bound) - TOL:
        return "E_ab below the certified bound"
    if doc["branches"] and kappa != max(b["kappa_prime"] for b in doc["branches"]):
        return "kappa_prime_worst is not the worst branch"
    return None


def check_settings(task: Task, doc: dict, expected: dict[str, int]) -> str | None:
    _, kind, mode, action, _ = task.slot.split("-")
    n = task.n
    x_masks = range(1, 1 << n) if kind == "projector" else [1 << (n - v) for v in range(1, n + 1)]
    patterns = pauli_support(n, task.edges, x_masks)
    canonical = sorted({p.replace("I", "Z") for p in patterns})  # identities measured as Z
    count = doc["count"]
    key = " ".join(task.argv)
    if key in expected and count != expected[key]:
        return f"count {count} != recorded {expected[key]}"
    if mode == "canonical" and count != len(canonical):
        return f"canonical count {count} != reference {len(canonical)}"
    if mode == "greedy" and not 0 < count <= len(canonical):
        return f"greedy count {count} exceeds canonical {len(canonical)}"
    if action == "list":
        listed = doc["settings"]
        if len(listed) != count or len(set(listed)) != count:
            return "listed settings do not match the count"
        if mode == "canonical" and listed != canonical:
            return "canonical settings differ from the reference"
        if mode == "greedy" and not _covered(patterns, listed):
            return "some Pauli string is measured by no listed setting"
    return None


CHECKERS = {
    "dump": check_dump,
    "verify": check_verify,
    "procedure": check_procedure,
    "brute": check_brute,
    "crosscheck": check_crosscheck,
    "campaign": check_campaign,
    "reduce": check_reduce,
}


def check(task: Task, code: int, out: str, expected: dict[str, int]) -> str | None:
    """Judge one invocation: exit code, parseable JSON, echoed input, content."""
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    kind = task.slot.split("-")[0]
    try:
        reason = _check_echo(task, doc)
        if reason is None:
            reason = check_settings(task, doc, expected) if kind == "settings" else CHECKERS[kind](task, doc)
    except (KeyError, TypeError, ValueError) as exc:
        reason = f"malformed output: {exc!r}"
    return reason

