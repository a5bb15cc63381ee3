"""Frozen CLI outputs: the sha256 of every stdout and every exit code of a
fixed list of `hyperwit.cli.main` invocations, recorded once and compared on
every run. A change under the CLI contract must leave them all byte-identical.

Regenerate `golden_outputs.json` only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from hyperwit.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")
FAMILIES = ("single-max", "all-n-1", "all-ge-n-1")
SEED = 20170
SETTINGS_SEED = 20171
SWEEP_SEED = 20172


def _random_edges(n: int, rng: random.Random) -> str:
    edges = [sorted(rng.sample(range(1, n + 1), rng.randint(1, n))) for _ in range(rng.randint(1, 2 * n))]
    return json.dumps(edges, separators=(",", ":"))


def _small_edges(n: int, rng: random.Random) -> str:
    """Distinct edges of cardinality <= 4, the first of cardinality >= 2."""
    sizes = [rng.randint(2, min(4, n))] + [rng.randint(1, min(4, n)) for _ in range(rng.randint(0, 2 * n))]
    edges = {tuple(sorted(rng.sample(range(1, n + 1), k))) for k in sizes}
    return json.dumps(sorted(map(list, edges)), separators=(",", ":"))


def _connected_edges(n: int, rng: random.Random, max_card: int) -> list[list[int]]:
    """Edges of cardinality 2..max_card, XOR-combined, redrawn until they
    connect all n vertices."""
    while True:
        parity: dict[tuple[int, ...], int] = {}
        for _ in range(rng.randint(n - 1, 2 * n)):
            e = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(2, min(n, max_card)))))
            parity[e] = parity.get(e, 0) ^ 1
        edges = sorted(e for e, odd in parity.items() if odd)
        reached, frontier = {1}, [1]
        while frontier:
            v = frontier.pop()
            for e in edges:
                if v in e:
                    frontier += [u for u in e if u not in reached]
                    reached.update(e)
        if len(reached) == n:
            return [list(e) for e in edges]


def _crossing_cut(n: int, edges: list[list[int]], rng: random.Random) -> str:
    """A proper side A that at least one edge crosses."""
    while True:
        part = {v for v in range(1, n + 1) if rng.random() < 0.5}
        if 0 < len(part) < n and any(part & set(e) and set(e) - part for e in edges):
            return ",".join(map(str, sorted(part)))


def _sweep_runs() -> list[list[str]]:
    """Every-cut sweeps and their callers: brute entanglement, brute-alpha
    witnesses, lower-bound campaigns and reduction certificates."""
    rng = random.Random(SWEEP_SEED)

    def instance(n: int, max_card: int) -> tuple[list[str], list[list[int]]]:
        edges = _connected_edges(n, rng, max_card)
        return ["--edges", json.dumps(edges, separators=(",", ":")), "--n", str(n)], edges

    runs: list[list[str]] = []
    for n in range(9, 13):
        for _ in range(2):
            args, _ = instance(n, n)
            runs.append(["entanglement", "--mode", "brute", *args])
            runs.append(["entanglement", "--mode", "brute", *args, "--format", "csv"])
    for family in FAMILIES:
        runs.append(["entanglement", "--mode", "brute", "--family", family, "--n", "12"])
        runs.append(["entanglement", "--mode", "brute", "--family", family, "--n", "12", "--format", "csv"])
    for n in range(2, 9):
        args, _ = instance(n, n)
        for kind in ("projector", "stabilizer"):
            runs.append(["witness", "build", *args, "--kind", kind, "--alpha-mode", "brute"])
    for seed in (1, 2, 3):
        runs.append(["campaign", "lower-bound", "--count", "4", "--max-n", "7", "--seed", str(seed)])
    for n in range(4, 10):
        for _ in range(2):
            args, edges = instance(n, 4)
            runs.append(["reduce", *args, "--partA", _crossing_cut(n, edges, rng)])
    return runs


def _document_runs() -> list[list[str]]:
    """Document shapes the lists above do not pin: state text, the basis and
    projector checks, witness evaluation and tables, closed-form entanglement
    and the reduction audit."""
    instances = [["--family", "all-n-1", "--n", "4"], ["--edges", "[[1,2],[2,3,4],[5]]", "--n", "5"]]
    runs: list[list[str]] = []
    for instance in instances:
        runs.append(["state", "build", *instance])
        runs.append(["verify", "basis", *instance])
        runs.append(["verify", "projector", *instance])
    for kind in ("projector", "stabilizer"):
        for alpha_mode in ("generic", "closed-form"):
            for p in ("1/3", "0.3"):
                runs.append(["witness", "eval", "--family", "all-n-1", "--n", "4", "--kind", kind,
                             "--alpha-mode", alpha_mode, "--p", p])
    for family in FAMILIES:
        for fmt in ("json", "csv"):
            runs.append(["witness", "table", "--family", family, "--n-range", "3..8", "--format", fmt])
        for n in (3, 4, 5, 9):
            runs.append(["entanglement", "--mode", "closed-form", "--family", family, "--n", str(n)])
    runs.append(["campaign", "reduction-audit", "--count", "3", "--max-n", "6", "--seed", "7"])
    return runs


def _settings_runs() -> list[list[str]]:
    rng = random.Random(SETTINGS_SEED)
    instances = [(n, ["--edges", _small_edges(n, rng), "--n", str(n)]) for n in range(2, 8)]
    instances += [(n, ["--family", family, "--n", str(n)]) for family in FAMILIES for n in range(2, 9)]
    runs: list[list[str]] = []
    for n, instance in instances:
        for kind in ("projector", "stabilizer"):
            for mode in ("canonical", "greedy"):
                if kind == "projector" and mode == "greedy" and n > 6:
                    continue
                for action in ("count", "list"):
                    runs.append(["settings", action, *instance, "--kind", kind, "--mode", mode])
    return runs


def invocations() -> list[list[str]]:
    rng = random.Random(SEED)
    runs: list[list[str]] = []
    for n in range(1, 20):
        instance = ["--edges", _random_edges(n, rng), "--n", str(n)]
        runs.append(["state", "dump", *instance])
        runs.append(["verify", "stabilizers", *instance])
    for family in FAMILIES:
        for n in (3, 8, 13, 19):
            runs.append(["state", "dump", "--family", family, "--n", str(n)])
            runs.append(["verify", "stabilizers", "--family", family, "--n", str(n)])
    for family in FAMILIES:
        for n in range(2, 15):
            runs.append(["entanglement", "--mode", "procedure", "--family", family, "--n", str(n), "--cap-sweep", str(n)])
    for family in FAMILIES:
        for n in range(3, 12):
            runs.append(["entanglement", "--cross-check", "--family", family, "--n", str(n)])
    for n in range(2, 9):
        runs.append(["entanglement", "--cross-check", "--edges", _random_edges(n, rng), "--n", str(n)])
    return runs + _settings_runs() + _sweep_runs() + _document_runs()


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def test_cli_outputs_match_golden():
    recorded = json.loads(GOLDEN.read_text())
    argvs = invocations()
    assert [r["argv"] for r in recorded] == argvs
    mismatched = [r["argv"] for r, argv in zip(recorded, argvs) if run(argv) != r]
    assert not mismatched, mismatched


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(argv) for argv in invocations()], indent=1) + "\n")
