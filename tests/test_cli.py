import argparse
import json
import tracemalloc
from functools import lru_cache

import jsonschema
import pytest

from hyperwit import SignState, parse_hypergraph, reduction_audit
from hyperwit.cli import COMMANDS, main, parse_args
from hyperwit.entanglement import DEFAULT_SWEEP_LIMIT
from hyperwit.hypergraph import Family
from hyperwit.measurement import SYMBOLIC_LIMIT
from hyperwit.witness import TABLE_LIMIT
from schemas import SCHEMAS

DRAWN_EDGES = "[[1,2],[3,4],[3,4,5],[2,3,4,5]]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, kind, *argv):
    code, out, err = run(capsys, *argv)
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMAS[kind])
    return code, doc, err


def test_state_build(capsys):
    code, doc, _ = run_json(capsys, "state-build", "state", "build", "--family", "single-max", "--n", "3")
    assert code == 0
    assert doc == {"n": 3, "edges": [[1, 2, 3]], "text": "n=3; edges=[[1,2,3]]"}


def test_state_dump_hex_round_trip(capsys):
    code, doc, _ = run_json(capsys, "state-dump", "state", "dump", "--edges", "[[1,2]]", "--n", "2")
    assert code == 0
    s = SignState.from_hex(doc["n"], doc["signs_hex"])
    assert s.sign(0b11) == -1 and s.sign(0b10) == 1


def test_verify_commands_pass(capsys):
    for action in ("stabilizers", "basis", "projector"):
        code, doc, _ = run_json(
            capsys, "verify", "verify", action, "--family", "all-ge-n-1", "--n", "4"
        )
        assert code == 0
        assert doc["ok"] is True
    assert doc["deviation"] == 0.0


def test_entanglement_brute_json(capsys):
    code, doc, _ = run_json(
        capsys, "entanglement", "entanglement", "--family", "single-max", "--n", "3"
    )
    assert code == 0
    assert abs(doc["alpha"] - 0.75) <= 1e-12
    assert abs(doc["E"] - 0.25) <= 1e-12
    assert doc["argmax_part_a"] == [1]
    assert len(doc["per_bipartition"]) == 3


def test_entanglement_cross_check(capsys):
    code, doc, _ = run_json(
        capsys,
        "entanglement",
        "entanglement",
        "--family",
        "all-n-1",
        "--n",
        "4",
        "--mode",
        "procedure",
        "--cross-check",
    )
    assert code == 0
    assert doc["match"] is True
    assert doc["procedure"]["success"] is False
    assert doc["closed_form"]["irrational"] is True


def test_entanglement_csv(capsys):
    code, out, _ = run(
        capsys, "entanglement", "--edges", "[[1,2],[2,3]]", "--n", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "part_a,alpha,entanglement"
    assert len(lines) == 4  # header + 3 cuts


def test_entanglement_csv_requires_brute(capsys):
    code, _, err = run(
        capsys, "entanglement", "--family", "single-max", "--n", "3",
        "--mode", "closed-form", "--format", "csv",
    )
    assert code == 2
    assert "brute" in err


def test_reduce_drawn_instance(capsys):
    code, doc, _ = run_json(
        capsys, "reduce", "reduce", "--edges", DRAWN_EDGES, "--n", "5", "--partA", "1,2,3"
    )
    assert code == 0
    assert doc["bound"] == {"num": 1, "den": 4, "float": 0.25}
    assert doc["kappa_prime_worst"] == 3
    assert doc["validated"] is True
    assert doc["branches"][0]["steps"][0]["op"] == "select"


def test_witness_build_and_eval(capsys):
    code, doc, _ = run_json(
        capsys, "witness", "witness", "build", "--family", "single-max", "--n", "4",
        "--kind", "stabilizer",
    )
    assert code == 0
    assert doc["beta"] == {"num": 15, "den": 4, "float": 3.75}
    assert doc["feasible"] is True

    code, doc, _ = run_json(
        capsys, "witness", "witness", "eval", "--family", "single-max", "--n", "3",
        "--kind", "projector", "--p", "2/7",
    )
    assert code == 0
    assert doc["expectation"] == {"num": 0, "den": 1, "float": 0.0}
    assert doc["negative"] is False


@pytest.mark.parametrize("p", ["abc", "inf", "nan", "1/0"])
def test_witness_eval_rejects_unparsable_p(capsys, p):
    code, out, err = run(
        capsys, "witness", "eval", "--family", "single-max", "--n", "3", "--kind", "projector", "--p", p
    )
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "--p" in err and err.startswith("error:")


def test_witness_table_json_and_csv(capsys):
    code, doc, _ = run_json(
        capsys, "robustness-table", "witness", "table", "--family", "single-max",
        "--n-range", "2..4",
    )
    assert code == 0
    assert [r["n"] for r in doc["rows"]] == [2, 3, 4]
    assert doc["rows"][0]["projector"] == {"num": 2, "den": 3, "float": 2 / 3}

    code, out, _ = run(
        capsys, "witness", "table", "--family", "all-n-1", "--n-range", "4..4",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("n,projector_num")
    # irrational alpha at n=4 leaves the rational cells empty
    assert lines[1].startswith("4,,,")


def test_settings_list(capsys):
    code, doc, _ = run_json(
        capsys, "settings", "settings", "list", "--family", "single-max", "--n", "2",
        "--kind", "projector",
    )
    assert code == 0
    assert doc["count"] == 3
    assert doc["settings"] == ["XZ", "YY", "ZX"]


def test_settings_greedy_mode(capsys):
    code, doc, _ = run_json(
        capsys, "settings", "settings", "count", "--family", "single-max", "--n", "4",
        "--kind", "projector", "--mode", "greedy",
    )
    assert code == 0
    assert doc["count"] <= 40


def test_campaign_small(capsys):
    code, doc, _ = run_json(
        capsys, "campaign", "campaign", "lower-bound", "--count", "6", "--max-n", "5",
        "--seed", "99",
    )
    assert code == 0
    assert doc["all_hold"] is True
    assert len(doc["rows"]) == 6
    assert doc["seed"] == 99


def test_deterministic_artifacts(capsys):
    args = ("campaign", "lower-bound", "--count", "4", "--max-n", "5", "--seed", "5")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second

    args = ("witness", "table", "--family", "single-max", "--n-range", "2..6", "--format", "csv")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "state", "build", "--family", "single-max", "--n", "2", "--out", str(path)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["edges"] == [[1, 2]]


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "entanglement", "--n", "4")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "entanglement", "--family", "single-max")
    assert code == 2
    code, _, err = run(capsys, "state", "build", "--edges", "not-json", "--n", "2")
    assert code == 2
    code, _, err = run(capsys, "witness", "eval", "--family", "single-max", "--n", "3")
    assert code == 2


def test_memory_error_exits_2(capsys, monkeypatch):
    def exhausted(h):
        raise MemoryError

    monkeypatch.setattr("hyperwit.cli.build_state", exhausted)
    code, out, err = run(capsys, "state", "dump", "--family", "single-max", "--n", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["state", "dump", "--family", "all-n-1", "--n", "26"],
        ["verify", "stabilizers", "--family", "all-n-1", "--n", "26"],
        ["entanglement", "--mode", "procedure", "--family", "all-n-1", "--n", "30", "--cap-sweep", "30"],
    ],
)
def test_more_than_24_qubits_exit_2_before_allocating(capsys, argv):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", "error: qubit count must lie in 1..24\n")
    assert peak < 1 << 20, peak


def test_cap_flags_enforced(capsys):
    code, _, err = run(
        capsys, "settings", "count", "--family", "single-max", "--n", "6",
        "--cap-symbolic", "5",
    )
    assert code == 2 and "error:" in err


def test_greedy_stabilizer_settings_capped_by_cap_symbolic(capsys):
    argv = ["settings", "count", "--family", "all-n-1", "--n", "11", "--kind", "stabilizer", "--mode", "greedy"]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: stabilizer decomposition capped at n <= 10, got n=11\n")
    code, doc, _ = run_json(capsys, "settings", *argv, "--cap-symbolic", "11")
    assert code == 0 and doc["count"] == 11


def test_unknown_family_rejected(capsys):
    code, out, err = run(capsys, "state", "build", "--family", "mystery", "--n", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: argument --family: invalid choice: 'mystery'")


def test_family_and_edges_are_mutually_exclusive(capsys):
    code, out, err = run(capsys, "state", "build", "--family", "single-max", "--edges", "[[1,2]]", "--n", "3")
    assert (code, out, err) == (2, "", "error: argument --edges: not allowed with argument --family\n")


@pytest.mark.parametrize("edges", ["[[1.7,2],[true,3]]", "[[1,2.0]]", "[[true,2]]", '[["1",2]]', "[1,2]"])
def test_edges_need_integer_vertices(capsys, edges):
    code, out, err = run(capsys, "state", "build", "--edges", edges, "--n", "3")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    with pytest.raises(ValueError, match="integer vertices"):
        parse_hypergraph(f"n=3; edges={edges}")


def test_out_to_unwritable_path_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "state", "build", "--family", "single-max", "--n", "2", "--out", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --out {path}: No such file or directory\n"


@pytest.mark.parametrize("action", ["build", "eval"])
def test_witness_csv_only_for_table(capsys, action):
    code, out, err = run(
        capsys, "witness", action, "--family", "single-max", "--n", "3", "--p", "1/3", "--format", "csv"
    )
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "witness table" in err


# One invocation per subcommand, a value for each of the six flags that do not
# select the instance, and the flags each subcommand reads: 15 of the 42
# (subcommand, flag) slots parse, and the other 27 exit 2.
_SUBCOMMANDS = {
    "state": ["state", "dump", "--family", "single-max", "--n", "3"],
    "reduce": ["reduce", "--family", "single-max", "--n", "3", "--partA", "1"],
    "verify": ["verify", "stabilizers", "--family", "single-max", "--n", "3"],
    "entanglement": ["entanglement", "--family", "single-max", "--n", "3"],
    "witness": ["witness", "build", "--family", "single-max", "--n", "3"],
    "settings": ["settings", "count", "--family", "single-max", "--n", "3"],
    "campaign": ["campaign", "lower-bound", "--count", "1", "--max-n", "3"],
}
_FLAGS = {"--out": "report.json", "--seed": "3", "--format": "json", "--cap-sweep": "5", "--cap-dense": "5",
          "--cap-symbolic": "5"}
_READS = {
    "state": {"--out"},
    "reduce": {"--out"},
    "verify": {"--out", "--cap-sweep"},
    "entanglement": {"--out", "--format", "--cap-sweep"},
    "witness": {"--out", "--format", "--cap-sweep"},
    "settings": {"--out", "--cap-symbolic"},
    "campaign": {"--out", "--seed", "--cap-sweep"},
}


@pytest.mark.parametrize("command", list(_SUBCOMMANDS))
@pytest.mark.parametrize("flag", list(_FLAGS))
def test_each_subcommand_takes_only_the_flags_it_reads(capsys, command, flag):
    argv = [*_SUBCOMMANDS[command], flag, _FLAGS[flag]]
    if flag in _READS[command]:
        parse_args(argv)
        return
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag}" in err


def test_campaign_reduction_audit_matches_api(capsys):
    code, doc, _ = run_json(capsys, "reduction-audit", "campaign", "reduction-audit", "--count", "3", "--max-n", "5")
    report = reduction_audit(3, 5, 2024)
    assert code == 0
    assert (doc["seed"], doc["count"], doc["max_n"], doc["all_validated"]) == (2024, 3, 5, report.all_validated)
    assert doc["rows"] == [
        {
            "index": r.index,
            "n": r.hypergraph.n,
            "edges": [list(e) for e in r.hypergraph.edges],
            "certificates": r.certificates,
            "all_validated": r.all_validated,
            "min_margin": r.min_margin,
        }
        for r in report.rows
    ]


@pytest.mark.parametrize("action,flag,value", [("lower-bound", "--count", "-3"), ("reduction-audit", "--max-n", "1")])
def test_campaign_sizes_checked(capsys, action, flag, value):
    code, out, err = run(capsys, "campaign", action, flag, value)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "must be at least" in err


@pytest.mark.parametrize("argv,message", [
    (("lower-bound", "--count", "12", "--max-n", "13", "--seed", "2"), "max_n 13 exceeds the sweep cap 12"),
    (("lower-bound", "--max-n", "6", "--cap-sweep", "5"), "max_n 6 exceeds the sweep cap 5"),
    (("reduction-audit", "--count", "1", "--max-n", "11", "--seed", "5"), "max_n 11 exceeds the rewrite-oracle limit 10"),
])
def test_campaign_max_n_above_its_cap_refused(capsys, argv, message):
    code, out, err = run(capsys, "campaign", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# The argparse parser that `cli.COMMANDS` replaced, kept as the reference that
# the table's parser must agree with.
@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing never mutates it.
    Each subcommand takes only the flags its handler reads."""
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    instance = argparse.ArgumentParser(add_help=False)
    source = instance.add_mutually_exclusive_group()
    source.add_argument("--family", choices=[f.value for f in Family], default=None)
    source.add_argument("--edges", default=None, help='JSON edge list, e.g. "[[1,2],[2,3]]"')
    instance.add_argument("--n", type=int, default=None)
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--cap-sweep", type=int, default=DEFAULT_SWEEP_LIMIT,
                       help="largest n for bipartition sweeps")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["json", "csv"], default="json")
    root = argparse.ArgumentParser(prog="hyperwit", description=__doc__)
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", parents=[out, instance], help="build or dump a state")
    p.add_argument("action", choices=["build", "dump"])

    p = sub.add_parser("verify", parents=[out, instance, sweep], help="exact structural checks")
    p.add_argument("action", choices=["stabilizers", "basis", "projector"])

    p = sub.add_parser("entanglement", parents=[out, instance, sweep, fmt], help="geometric entanglement")
    p.add_argument("--mode", choices=["brute", "procedure", "closed-form"], default="brute")
    p.add_argument("--cross-check", action="store_true", help="compare every applicable route")

    p = sub.add_parser("reduce", parents=[out, instance], help="reduction certificate for one cut")
    p.add_argument("--partA", required=True, help="comma-separated vertices of side A")

    p = sub.add_parser("witness", parents=[out, instance, sweep, fmt], help="witness construction and evaluation")
    p.add_argument("action", choices=["build", "eval", "table"])
    p.add_argument("--kind", choices=["projector", "stabilizer"], default="projector")
    p.add_argument("--alpha-mode", choices=["generic", "closed-form", "brute"], default="generic")
    p.add_argument("--p", default=None, help="white-noise fraction (eval)")
    p.add_argument("--n-range", default=None, help='table range, e.g. "2..8"')

    p = sub.add_parser("settings", parents=[out, instance], help="local measurement settings")
    p.add_argument("action", choices=["count", "list"])
    p.add_argument("--kind", choices=["projector", "stabilizer"], default="projector")
    p.add_argument("--mode", choices=["canonical", "greedy"], default="canonical")
    p.add_argument("--cap-symbolic", type=int, default=SYMBOLIC_LIMIT,
                   help="largest n for symbolic decompositions")

    p = sub.add_parser("campaign", parents=[out, sweep], help="randomized audits")
    p.add_argument("action", choices=["lower-bound", "reduction-audit"])
    for flag in ("--count", "--max-n", "--seed"):
        p.add_argument(flag, type=int, default=None, help="default: the audit function's")

    return root


_SAMPLES = {"--out": "report.json", "--edges": "[[1,2]]", "--p": "1/3", "--n-range": "2..4", "--partA": "1,2"}


def _shortest_prefix(flag, names):
    return next(
        flag[:k] for k in range(3, len(flag) + 1)
        if flag[:k] == flag or not any(name != flag and name.startswith(flag[:k]) for name in names)
    )


def _corpus():
    """Every command x action x flag: `--flag v`, `--flag=v` and the same with
    the flag's shortest unique prefix, each with the action first and last;
    then every flag of a command at once, and the fault and edge cases. Each
    argv parses alike under argparse 3.11.7 and 3.12.10; the ones that do not
    are pinned in `test_argv_where_argparse_releases_disagree`."""
    out = []
    for command, spec in COMMANDS.items():
        names = [*spec.flags, "--help"]
        required = ["--partA", "1"] if command == "reduce" else []
        samples = {}
        for flag, (convert, _, _) in spec.flags.items():
            if convert is bool:
                samples[flag] = [[flag], [_shortest_prefix(flag, names)]]
                continue
            value = convert[-1] if isinstance(convert, tuple) else "3" if convert is int else _SAMPLES[flag]
            samples[flag] = [
                [name, value] if space else [f"{name}={value}"]
                for name in (flag, _shortest_prefix(flag, names))
                for space in (True, False)
            ]
        every = [tok for flag, forms in samples.items() if flag != "--edges" for tok in forms[0]]
        for action in spec.actions or [None]:
            first, last = ([action], []) if action else ([], [])
            for flag, forms in samples.items():
                base = [] if flag == "--partA" else required
                for form in forms:
                    out.append([command, *first, *base, *form])
                    if action:
                        out.append([command, *base, *form, action])
            out.append([command, *first, *every, *every[:2], *last])
    dump = ["state", "dump", "--family", "single-max", "--n", "3"]
    out += [
        ["bogus"],
        [],
        ["state", "--family", "single-max", "--n", "3"],
        ["state", "show", "--family", "single-max"],
        ["settings", "count", "--kind", "mixed"],
        ["state", "dump", "--n", "x"],
        ["state", "dump", "--n"],
        ["reduce", "--family", "single-max", "--n", "3"],
        [*dump, "--edges", "[[1,2]]"],
        ["verify", "basis", "--cap", "3"],
        [*dump, "--bogus"],
        [*dump, "extra"],
        ["campaign", "lower-bound", "--count", "-3"],
        ["witness", "eval", "--p", "-.5"],
        ["witness", "eval", "--p", "-1/3"],
        [*dump, "--out", "-"],
        [*dump, "--", "x"],
        ["state", "--family", "single-max", "--", "dump"],
        ["entanglement", "--cross", "--max", "4"],
        ["campaign", "--max", "4", "reduction-audit"],
        ["entanglement", "--cross-check=1"],
        [*dump, "--out="],
        ["--bogus", *dump, "-x"],
        [*dump, "--bogus", "-h"],
        [*dump, "-hh"],
        ["state", "-h=x"],
        ["entanglement", "--he=1"],
        [*dump, "--"],
        ["state", "dump", "--"],
        [*dump, "--", "--"],
        ["state", "--"],
        ["state", "dump", "--", "--n", "3"],
        [*dump, "--out", "--"],
        [*dump, "--out", "-x y"],
        [*dump, "--n 3"],
        [*dump, "--=x"],
    ]
    return out


def _old_conversions(ns):
    """The reference's strings, converted as the handlers used to convert them."""
    doc = vars(ns)
    if doc.get("partA") is not None:
        doc["partA"] = [int(tok) for tok in doc["partA"].split(",") if tok]
    if doc.get("n_range") is not None:
        lo, _, hi = doc["n_range"].partition("..")
        doc["n_range"] = range(int(lo), int(hi or lo) + 1)
    return doc


def test_parse_args_agrees_with_the_argparse_reference(capsys):
    corpus = _corpus()
    assert len(corpus) > 600
    accepted = 0
    for argv in corpus:
        try:
            expected = _old_conversions(build_parser().parse_args(argv))
        except SystemExit as exc:
            capsys.readouterr()
            code, out, _ = run(capsys, *argv)
            assert code == exc.code, argv
            assert exc.code == 0 or out == "", argv
            continue
        assert vars(parse_args(argv)) == expected, argv
        accepted += 1
    assert accepted > 550


# Where argparse releases disagree, the table parser keeps one behaviour:
# 3.11.7 refuses the first three argvs and reads "--out=--" as an empty list,
# while 3.12.10 gives help three times, accepts "-- state dump" and reads "--".
def test_argv_where_argparse_releases_disagree(capsys):
    # help is read before the ambiguous "--cap", and "-h" followed by any letters is help
    for argv in (["verify", "-h", "--cap"], ["verify", "basis", "-hx"], ["-hx"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith("usage: hyperwit")
    assert run(capsys, "--", "state", "dump")[:2] == (2, "")  # "--" is read as the command
    assert parse_args(["state", "dump", "--out=--"]).out == "--"


def test_help_lists_every_command_action_and_flag(capsys):
    code, out, err = run(capsys, "-h")
    assert (code, err) == (0, "")
    assert all(command in out and spec.help in out for command, spec in COMMANDS.items())
    for command, spec in COMMANDS.items():
        code, out, err = run(capsys, command, "--help")
        assert (code, err) == (0, "")
        assert all(name in out for name in (*spec.actions, *spec.flags))


def test_n_range_is_read_lazily(capsys):
    argv = ["witness", "build", "--family", "single-max", "--n", "3", "--n-range", "1..1000000000"]
    assert parse_args(argv).n_range == range(1, 1_000_000_001)
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize("n_range", ["2..100000000", "257"])
def test_witness_table_refuses_rows_above_its_bound(capsys, n_range):
    code, out, err = run(capsys, "witness", "table", "--family", "all-n-1", "--n-range", n_range)
    assert (code, out) == (2, "")
    assert err == f"error: robustness table capped at n <= {TABLE_LIMIT}\n"


def test_witness_table_runs_up_to_its_bound(capsys):
    code, out, _ = run(capsys, "witness", "table", "--family", "all-n-1", "--n-range", f"{TABLE_LIMIT}")
    assert code == 0 and [row["n"] for row in json.loads(out)["rows"]] == [TABLE_LIMIT]


@pytest.mark.parametrize("argv,flag,value", [
    (["witness", "table", "--family", "all-n-1", "--n-range", "8..2"], "--n-range", "8..2"),
    (["witness", "table", "--family", "all-n-1", "--n-range", "2..x"], "--n-range", "2..x"),
    (["witness", "table", "--family", "all-n-1", "--n-range", "2..3..4"], "--n-range", "2..3..4"),
    (["reduce", "--family", "single-max", "--n", "3", "--partA", "1,a"], "--partA", "1,a"),
    (["reduce", "--family", "single-max", "--n", "3", "--partA=1.5"], "--partA", "1.5"),
])
def test_bad_n_range_or_part_a_names_the_flag(capsys, argv, flag, value):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: argument {flag}:") and repr(value) in err and len(err.splitlines()) == 1
