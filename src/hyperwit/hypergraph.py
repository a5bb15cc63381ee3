"""Combinatorial hypergraphs with a canonical form, plus bipartitions of their vertices.

Vertices are labeled 1..n. An edge is a set of vertices of cardinality >= 1
(single-vertex edges are legal and act as local Z markers elsewhere in the
package; empty edges are not representable). Adding an edge twice cancels it,
so edge collections combine by symmetric difference.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

Edge = tuple[int, ...]


class Family(enum.Enum):
    """Built-in families used for closed forms and benchmarks.

    SINGLE_MAX_EDGE: one edge containing every vertex.
    ALL_N_MINUS_1: every edge of cardinality n-1.
    ALL_GE_N_MINUS_1: every edge of cardinality n-1 plus the full edge.
    """

    SINGLE_MAX_EDGE = "single-max"
    ALL_N_MINUS_1 = "all-n-1"
    ALL_GE_N_MINUS_1 = "all-ge-n-1"

    @classmethod
    def from_cli(cls, name: str) -> "Family":
        for fam in cls:
            if fam.value == name:
                return fam
        raise ValueError(f"unknown family {name!r}; expected one of "
                         + ", ".join(f.value for f in cls))

    @property
    def cli_name(self) -> str:
        return self.value


@dataclass(frozen=True)
class Hypergraph:
    """A canonical hypergraph: sorted vertex tuples, lexicographically sorted edge tuple.

    Instances are immutable and hashable; construct arbitrary input through
    :func:`canonicalize`, which applies the symmetric-difference semantics.
    """

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"vertex count must be a positive int, got {self.n!r}")
        seen = set()
        for e in self.edges:
            if not e:
                raise ValueError("empty edge is not allowed")
            if list(e) != sorted(set(e)):
                raise ValueError(f"edge {e!r} is not a sorted duplicate-free tuple")
            if e[0] < 1 or e[-1] > self.n:
                raise ValueError(f"edge {e!r} outside vertex range 1..{self.n}")
            if e in seen:
                raise ValueError(f"duplicate edge {e!r}")
            seen.add(e)
        if tuple(sorted(self.edges)) != self.edges:
            raise ValueError("edges must be sorted lexicographically")

    def vertices(self) -> range:
        return range(1, self.n + 1)


def canonicalize(raw_edges: Iterable[Iterable[int]], n: int) -> Hypergraph:
    """Build a canonical Hypergraph, cancelling edges listed an even number of times."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"vertex count must be a positive int, got {n!r}")
    parity: dict[Edge, int] = {}
    for raw in raw_edges:
        e = tuple(sorted(set(int(v) for v in raw)))
        if not e:
            raise ValueError("empty edge is not allowed")
        if e[0] < 1 or e[-1] > n:
            raise ValueError(f"edge {e!r} outside vertex range 1..{n}")
        parity[e] = parity.get(e, 0) ^ 1
    return Hypergraph(n, tuple(sorted(e for e, p in parity.items() if p)))


def toggle_edges(base: Hypergraph, extra: Iterable[Iterable[int]]) -> Hypergraph:
    """Symmetric difference of the base edge set with the given edges."""
    return canonicalize(list(base.edges) + [tuple(e) for e in extra], base.n)


def build_family(family: Family, n: int) -> Hypergraph:
    """The canonical member of a built-in family on n vertices."""
    if family is Family.SINGLE_MAX_EDGE:
        if n < 2:
            raise ValueError("single-max family needs n >= 2")
        return Hypergraph(n, (tuple(range(1, n + 1)),))
    if n < 3:
        raise ValueError(f"{family.value} family needs n >= 3")
    lower = [tuple(c) for c in combinations(range(1, n + 1), n - 1)]
    if family is Family.ALL_N_MINUS_1:
        return Hypergraph(n, tuple(sorted(lower)))
    return Hypergraph(n, tuple(sorted(lower + [tuple(range(1, n + 1))])))


def is_connected(h: Hypergraph) -> bool:
    """True when the vertices form a single component under shared membership
    in edges of cardinality >= 2."""
    if h.n == 1:
        return True
    adj: dict[int, set[int]] = {v: set() for v in h.vertices()}
    for e in h.edges:
        if len(e) < 2:
            continue
        for a in e:
            adj[a].update(v for v in e if v != a)
    seen = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == h.n


def max_cardinality(h: Hypergraph) -> int:
    """Largest edge cardinality, 0 for an edgeless hypergraph."""
    return max((len(e) for e in h.edges), default=0)


@dataclass(frozen=True)
class Bipartition:
    """A two-block split of 1..n, stored so the block containing vertex 1 is part_a."""

    n: int
    part_a: tuple[int, ...]

    def __post_init__(self) -> None:
        a = self.part_a
        if not a or len(a) >= self.n:
            raise ValueError("part_a must be a nonempty proper subset")
        if list(a) != sorted(set(a)) or a[0] != 1 or a[-1] > self.n:
            raise ValueError("part_a must be sorted, contain vertex 1, and stay in range")

    @classmethod
    def of(cls, n: int, part: Iterable[int]) -> "Bipartition":
        """Canonicalize any proper subset: complement it if vertex 1 is absent."""
        block = set(int(v) for v in part)
        if not block <= set(range(1, n + 1)):
            raise ValueError(f"vertices {sorted(block)} outside 1..{n}")
        if 1 not in block:
            block = set(range(1, n + 1)) - block
        return cls(n, tuple(sorted(block)))

    @property
    def part_b(self) -> tuple[int, ...]:
        inside = set(self.part_a)
        return tuple(v for v in range(1, self.n + 1) if v not in inside)


def enumerate_bipartitions(n: int) -> list[Bipartition]:
    """All 2**(n-1) - 1 bipartitions, in a fixed deterministic order."""
    if n < 2:
        raise ValueError("bipartitions need n >= 2")
    out = []
    for mask in range(2 ** (n - 1) - 1):
        part = (1,) + tuple(v for v in range(2, n + 1) if (mask >> (v - 2)) & 1)
        out.append(Bipartition(n, part))
    return out


def crossing_edges(h: Hypergraph, bp: Bipartition | Iterable[int]) -> tuple[Edge, ...]:
    """Edges with at least one vertex on each side of the bipartition."""
    side_a = set(bp.part_a) if isinstance(bp, Bipartition) else set(bp)
    out = []
    for e in h.edges:
        inside = sum(1 for v in e if v in side_a)
        if 0 < inside < len(e):
            out.append(e)
    return tuple(out)


_TEXT_RE = re.compile(r"^\s*n\s*=\s*(\d+)\s*;\s*edges\s*=\s*(\[.*\])\s*$", re.S)


def edges_from_json(text: str, n: int) -> Hypergraph:
    """Canonical hypergraph on n vertices from a JSON list of vertex lists.

    Every vertex must be a JSON integer: `true` or `1.7` is refused, not
    truncated to a vertex.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad edge list {text!r}: {exc}") from None
    if not isinstance(raw, list) or not all(
        isinstance(e, list) and all(type(v) is int for v in e) for e in raw
    ):
        raise ValueError(f"edges must be a JSON list of lists of integer vertices, got {text!r}")
    return canonicalize(raw, n)


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the textual form 'n=<int>; edges=[[i,j,...],...]'."""
    m = _TEXT_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse hypergraph text {text!r}")
    return edges_from_json(m.group(2), int(m.group(1)))


def format_hypergraph(h: Hypergraph) -> str:
    """Inverse of parse_hypergraph, always in canonical order."""
    body = json.dumps([list(e) for e in h.edges], separators=(",", ":"))
    return f"n={h.n}; edges={body}"
