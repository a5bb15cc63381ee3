"""Seeded task streams for the four benchmark workloads.

A task is one `hyperwit` CLI invocation (an argv list) plus what the checker
needs to judge its output. Each workload is a fixed *round* of slots that
repeats; only the hypergraph inside a slot is drawn from the seed. Keeping the
mix of commands and sizes identical in every round, and timing whole rounds,
makes a run's throughput depend on the program rather than on which sizes a
seed happened to draw.

Every slot names two sizes: the benchmark size and a tiny size that the smoke
test uses.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

DEFAULT_SEED = 2024
FAMILIES = ("single-max", "all-n-1", "all-ge-n-1")


@dataclass(frozen=True)
class Task:
    slot: str  # command and size, e.g. "dump-19"; the checker dispatches on the prefix
    argv: tuple[str, ...]
    n: int
    edges: tuple[tuple[int, ...], ...] | None  # None for family tasks and campaigns
    family: str | None = None
    part_a: tuple[int, ...] | None = None
    seed: int | None = None  # campaign seed passed to the program


def is_connected(n: int, edges) -> bool:
    parent = list(range(n + 1))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in edges:
        for v in e[1:]:
            parent[find(v)] = find(e[0])
    return len({find(v) for v in range(1, n + 1)}) == 1


def random_connected(n: int, rng: random.Random, max_card: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Random edges of cardinality 2..max_card, XOR-combined, redrawn until connected.

    Without max_card the edge count is drawn from n-1..2n and cardinalities run up
    to n; with it exactly n edges are drawn.
    """
    while True:
        parity: dict[tuple[int, ...], int] = {}
        count = rng.randint(n - 1, 2 * n) if max_card is None else n
        for _ in range(count):
            e = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(2, min(n, max_card or n)))))
            parity[e] = parity.get(e, 0) ^ 1
        edges = tuple(sorted(e for e, p in parity.items() if p))
        if edges and is_connected(n, edges):
            return edges


def crossing_cut(n: int, edges, rng: random.Random) -> tuple[int, ...]:
    """A random proper side A that some edge crosses."""
    while True:
        part = tuple(v for v in range(1, n + 1) if rng.random() < 0.5)
        inside = set(part)
        if 0 < len(part) < n and any(inside & set(e) and set(e) - inside for e in edges):
            return part


def _edges_arg(edges) -> str:
    return json.dumps([list(e) for e in edges], separators=(",", ":"))


def _random_task(slot: str, command: list[str], n: int, rng: random.Random, extra=(), max_card=None) -> Task:
    edges = random_connected(n, rng, max_card)
    return Task(slot, (*command, "--edges", _edges_arg(edges), "--n", str(n), *extra), n, edges)


def _family_task(slot: str, command: list[str], family: str, n: int, extra=()) -> Task:
    return Task(slot, (*command, "--family", family, "--n", str(n), *extra), n, None, family)


# Each slot: (kind, benchmark n, tiny n), in round order.
#
# A quantile that falls between two groups of tasks of different cost jumps
# from one to the other as instances vary, so each round is composed to put
# p50 and p90 inside one group. Ranks by time within a round: n = 16 0-28%,
# n = 17 and the n = 13 procedure 25-72% (p50), n = 18 72-94% (p90), the
# n = 19 dump and the n = 14 procedure last. A round takes about 2 s, so a
# pass of 100 tasks or more is four rounds.
COLD_SLOTS = [
    ("dump", 16, 6), ("verify", 16, 6), ("dump", 17, 7), ("verify", 17, 7),
    ("dump", 18, 8), ("dump", 17, 7), ("verify", 17, 7), ("dump", 16, 6),
    ("verify", 16, 6), ("dump", 17, 7), ("verify", 18, 8), ("dump", 19, 9),
    ("verify", 17, 7), ("dump", 17, 7), ("verify", 16, 6), ("procedure", 13, 5),
    ("dump", 18, 8), ("verify", 17, 7), ("dump", 16, 6), ("verify", 17, 7),
    ("dump", 17, 7), ("verify", 18, 8), ("dump", 17, 7), ("verify", 16, 6),
    ("dump", 18, 8), ("verify", 17, 7), ("dump", 16, 6), ("verify", 18, 8),
    ("procedure", 14, 6), ("dump", 17, 7), ("dump", 18, 8), ("verify", 16, 6),
]

# Ranks by time within a round: campaign and n = 9 0-25%, n = 10 25-75% (p50),
# n = 11 75-96% (p90), the n = 12 cross-check last.
SWEEP_SLOTS = [
    ("campaign", 7, 4), ("brute", 9, 4), ("brute", 10, 5), ("brute", 11, 6),
    ("brute", 9, 4), ("brute", 10, 5), ("crosscheck", 10, 4), ("brute", 10, 5),
    ("brute", 9, 4), ("brute", 10, 5), ("brute", 11, 6), ("brute", 10, 5),
    ("brute", 9, 4), ("brute", 10, 5), ("crosscheck", 11, 5), ("brute", 10, 5),
    ("brute", 9, 4), ("brute", 10, 5), ("brute", 11, 6), ("brute", 10, 5),
    ("brute", 10, 5), ("brute", 11, 6), ("brute", 10, 5), ("crosscheck", 12, 6),
]

# n = 11 is above the rewrite oracle's limit (10): a sixth of the tasks run unvalidated.
CERTIFY_SLOTS = [("reduce", 7, 4), ("reduce", 7, 4), ("reduce", 8, 5), ("reduce", 8, 5), ("reduce", 9, 5), ("reduce", 11, 6)]

# (kind, mode, action, benchmark n, tiny n). Greedy projector stays at n <= 6: one
# random n = 7 instance takes seconds. Edges have cardinality 2..4 here: with
# larger ones the number of Pauli strings, and with it a task's time, varies
# several-fold between instances of one size.
#
# Ranks by time within a round: stabilizer and n = 4 tasks 0-35%, n = 7
# canonical 35-65% (p50), n = 5 greedy and n = 8 canonical 65-80%, then the
# n = 6 tasks with dense validation, canonical and greedy, 80-100%: p90 is the
# middle of that group, where its cost varies least between runs.
SETTINGS_SLOTS = [
    ("stabilizer", "greedy", "list", 7, 3),
    ("projector", "canonical", "count", 6, 3),
    ("projector", "canonical", "list", 7, 4),
    ("projector", "greedy", "count", 5, 3),
    ("projector", "greedy", "list", 4, 3),
    ("projector", "canonical", "count", 7, 4),
    ("stabilizer", "greedy", "count", 8, 4),
    ("projector", "canonical", "count", 6, 3),
    ("projector", "canonical", "count", 7, 4),
    ("stabilizer", "greedy", "count", 9, 4),
    ("projector", "canonical", "count", 8, 4),
    ("projector", "greedy", "list", 6, 3),
    ("projector", "canonical", "count", 7, 4),
    ("stabilizer", "greedy", "count", 7, 3),
    ("projector", "greedy", "count", 4, 3),
    ("projector", "canonical", "count", 6, 3),
    ("projector", "greedy", "count", 5, 3),
    ("projector", "canonical", "count", 7, 4),
    ("projector", "greedy", "count", 4, 3),
    ("projector", "canonical", "count", 7, 4),
]

def cold_round(r: int, rng: random.Random, tiny: bool) -> list[Task]:
    out = []
    for kind, n_full, n_tiny in COLD_SLOTS:
        n = n_tiny if tiny else n_full
        if kind == "dump":
            out.append(_random_task(f"dump-{n}", ["state", "dump"], n, rng))
        elif kind == "verify":
            out.append(_random_task(f"verify-{n}", ["verify", "stabilizers"], n, rng))
        else:
            family = FAMILIES[(r + n) % 3]
            out.append(_family_task(f"procedure-{n}", ["entanglement"], family, n,
                                    ("--mode", "procedure", "--cap-sweep", str(n))))
    return out


def sweep_round(r: int, rng: random.Random, tiny: bool) -> list[Task]:
    out = []
    for kind, n_full, n_tiny in SWEEP_SLOTS:
        n = n_tiny if tiny else n_full
        if kind == "brute":
            out.append(_random_task(f"brute-{n}", ["entanglement"], n, rng))
        elif kind == "crosscheck":
            family = FAMILIES[(r + n) % 3]
            out.append(_family_task(f"crosscheck-{n}", ["entanglement"], family, n, ("--cross-check",)))
        else:
            seed = rng.randrange(1 << 30)
            argv = ("campaign", "lower-bound", "--count", "8", "--max-n", str(n), "--seed", str(seed))
            out.append(Task(f"campaign-{n}", argv, n, None, seed=seed))
    return out


def certify_round(r: int, rng: random.Random, tiny: bool) -> list[Task]:
    out = []
    for _, n_full, n_tiny in CERTIFY_SLOTS:
        n = n_tiny if tiny else n_full
        edges = random_connected(n, rng)
        part = crossing_cut(n, edges, rng)
        argv = ("reduce", "--edges", _edges_arg(edges), "--n", str(n), "--partA", ",".join(map(str, part)))
        out.append(Task(f"reduce-{n}", argv, n, edges, part_a=part))
    return out


def settings_round(r: int, rng: random.Random, tiny: bool) -> list[Task]:
    out = []
    for kind, mode, action, n_full, n_tiny in SETTINGS_SLOTS:
        n = n_tiny if tiny else n_full
        out.append(_random_task(f"settings-{kind}-{mode}-{action}-{n}", ["settings", action], n, rng,
                                ("--kind", kind, "--mode", mode), max_card=4))
    return out


ROUNDS = {
    "cold-cli": cold_round,
    "sweep": sweep_round,
    "certify": certify_round,
    "settings": settings_round,
}


def rounds(workload: str, seed: int, tiny: bool = False):
    """Endless stream of rounds; the same seed yields the same tasks."""
    make = ROUNDS[workload]
    rng = random.Random(f"{workload}:{seed}")
    r = 0
    while True:
        yield make(r, rng, tiny)
        r += 1


def _with_option(argv: tuple[str, ...], flag: str, value: str) -> tuple[str, ...]:
    i = argv.index(flag)
    return (*argv[: i + 1], value, *argv[i + 2 :])


def copy_of(task: Task, rng: random.Random) -> Task:
    """A task of the same size and cost that the program has not been given yet.

    A random hypergraph (and its cut) is relabelled by a random permutation of
    its vertices, a family task moves to the next family, a campaign gets a
    fresh seed. The copy is never the same argv, so a cache of whole results
    keyed by the input gains nothing from the repeats.
    """
    if task.family is not None:
        family = FAMILIES[(FAMILIES.index(task.family) + 1) % len(FAMILIES)]
        return Task(task.slot, _with_option(task.argv, "--family", family), task.n, None, family)
    if task.edges is None:
        seed = rng.randrange(1 << 30)
        return Task(task.slot, _with_option(task.argv, "--seed", str(seed)), task.n, None, seed=seed)
    perm = [0, *rng.sample(range(1, task.n + 1), task.n)]
    edges = tuple(sorted(tuple(sorted(perm[v] for v in e)) for e in task.edges))
    argv = _with_option(task.argv, "--edges", _edges_arg(edges))
    part_a = None
    if task.part_a is not None:
        part_a = tuple(sorted(perm[v] for v in task.part_a))
        argv = _with_option(argv, "--partA", ",".join(map(str, part_a)))
    return Task(task.slot, argv, task.n, edges, part_a=part_a)


WARMUP_SEED = 0x5EED


def warmup_round(workload: str, seed: int, tiny: bool = False) -> list[Task]:
    """The first task of each size in one round of a fixed stream.

    That fills the per-n caches without replaying a timed task, at a fraction
    of a round's cost, and the same warm-up for every seed keeps set-up time
    comparable between runs.
    """
    first: dict[int, Task] = {}
    for task in next(rounds(workload, WARMUP_SEED + (seed == WARMUP_SEED), tiny)):
        first.setdefault(task.n, task)
    return list(first.values())
