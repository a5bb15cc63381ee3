import json
import tracemalloc

import jsonschema
import pytest

from hyperwit import SignState, parse_hypergraph, reduction_audit
from hyperwit.cli import build_parser, main
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


def test_unknown_family_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["state", "build", "--family", "mystery", "--n", "3"])
    assert exc.value.code == 2


def test_family_and_edges_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["state", "build", "--family", "single-max", "--edges", "[[1,2]]", "--n", "3"])
    assert exc.value.code == 2


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
# select the instance, and the flags each subcommand reads: 16 of the 42
# (subcommand, flag) slots parse, and the other 26 exit 2.
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
    "verify": {"--out", "--cap-sweep", "--cap-dense"},
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
        build_parser().parse_args(argv)
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


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
