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


def _random_edges(n: int, rng: random.Random) -> str:
    edges = [sorted(rng.sample(range(1, n + 1), rng.randint(1, n))) for _ in range(rng.randint(1, 2 * n))]
    return json.dumps(edges, separators=(",", ":"))


def _small_edges(n: int, rng: random.Random) -> str:
    """Distinct edges of cardinality <= 4, the first of cardinality >= 2."""
    sizes = [rng.randint(2, min(4, n))] + [rng.randint(1, min(4, n)) for _ in range(rng.randint(0, 2 * n))]
    edges = {tuple(sorted(rng.sample(range(1, n + 1), k))) for k in sizes}
    return json.dumps(sorted(map(list, edges)), separators=(",", ":"))


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
    return runs + _settings_runs()


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
