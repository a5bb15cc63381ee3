"""Command-line front-end. Every number printed here is computed by the
library; the CLI only parses arguments and serializes results."""

from __future__ import annotations

import csv
import io
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple

from .campaign import lower_bound_campaign, reduction_audit
from .entanglement import (
    DEFAULT_SWEEP_LIMIT,
    SPECTRAL_TOL,
    alpha_multipartite,
    closed_form_alpha,
    procedure_alpha,
)
from .hypergraph import (
    Bipartition,
    Family,
    Hypergraph,
    build_family,
    edges_from_json,
    format_hypergraph,
)
from .locc import LoccReductionError, LoccValidationError, reduce as locc_reduce
from .measurement import SYMBOLIC_LIMIT, SettingMode, witness_settings
from .serialize import Number, dumps, exact_json, hypergraph_json
from .states import basis_state, build_state, overlap, projector_identity_check, stabilizer_defect
from .witness import (
    NoisyState,
    WitnessKind,
    default_alpha,
    expectation,
    feasibility_check,
    projector_witness,
    robustness_table,
    stabilizer_witness,
)


class UsageError(ValueError):
    """A command line that `COMMANDS` does not accept; `main` prints it and exits 2."""


class _Help(Exception):
    """-h or --help was read; carries the help text that `main` prints."""


class Command(NamedTuple):
    help: str
    actions: tuple[str, ...]  # empty when the command takes no action
    # flag -> (converter, default, help). A converter is int, str, a tuple of
    # choices, bool for a switch, or a function that raises UsageError.
    flags: dict[str, tuple]


REQUIRED = object()  # the default of a flag that must be given


def _n_range(text: str) -> range:
    lo, dots, hi = text.partition("..")
    try:
        first, last = int(lo), int(hi if dots else lo)
    except ValueError:
        first, last = 1, 0
    if first > last:
        raise UsageError(f"argument --n-range: expected N or LO..HI with LO <= HI, got {text!r}")
    return range(first, last + 1)


def _vertices(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise UsageError(f"argument --partA: expected comma-separated integers, got {text!r}") from None


_OUT = {"--out": (str, None, "")}
_INSTANCE = {
    "--family": (tuple(f.value for f in Family), None, ""),
    "--edges": (str, None, 'JSON edge list, e.g. "[[1,2],[2,3]]"'),
    "--n": (int, None, ""),
}
_EXCLUSIVE = ("--family", "--edges")  # at most one of the two
_SWEEP = {"--cap-sweep": (int, DEFAULT_SWEEP_LIMIT, "largest n for bipartition sweeps")}
_FORMAT = {"--format": (("json", "csv"), "json", "")}
_KIND = {"--kind": (("projector", "stabilizer"), "projector", "")}

# Each command takes only the flags its handler reads.
COMMANDS = {
    "state": Command("build or dump a state", ("build", "dump"), {**_OUT, **_INSTANCE}),
    "verify": Command("exact structural checks", ("stabilizers", "basis", "projector"),
                      {**_OUT, **_INSTANCE, **_SWEEP}),
    "entanglement": Command("geometric entanglement", (), {
        **_OUT, **_INSTANCE, **_SWEEP, **_FORMAT,
        "--mode": (("brute", "procedure", "closed-form"), "brute", ""),
        "--cross-check": (bool, False, "compare every applicable route"),
    }),
    "reduce": Command("reduction certificate for one cut", (), {
        **_OUT, **_INSTANCE,
        "--partA": (_vertices, REQUIRED, "comma-separated vertices of side A"),
    }),
    "witness": Command("witness construction and evaluation", ("build", "eval", "table"), {
        **_OUT, **_INSTANCE, **_SWEEP, **_FORMAT, **_KIND,
        "--alpha-mode": (("generic", "closed-form", "brute"), "generic", ""),
        "--p": (str, None, "white-noise fraction (eval)"),
        "--n-range": (_n_range, None, 'table range, e.g. "2..8"'),
    }),
    "settings": Command("local measurement settings", ("count", "list"), {
        **_OUT, **_INSTANCE, **_KIND,
        "--mode": (("canonical", "greedy"), "canonical", ""),
        "--cap-symbolic": (int, SYMBOLIC_LIMIT, "largest n for symbolic decompositions"),
    }),
    "campaign": Command("randomized audits", ("lower-bound", "reduction-audit"), {
        **_OUT, **_SWEEP,
        **{flag: (int, None, "default: the audit function's") for flag in ("--count", "--max-n", "--seed")},
    }),
}

_HELP = ("-h", "--help")
_VALUE = "value"
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # a negative number, read as a value


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _classify(tok: str, names: tuple[str, ...]) -> str | tuple[str | None, str | None]:
    """How one token reads among the flag names `names`: `_VALUE`, or (flag,
    its `=` value or None), with flag None for an unknown one. A unique prefix
    names its flag and an ambiguous one is refused; "-h" followed by any
    letters is help."""
    if not tok.startswith("-") or tok == "-":
        return _VALUE
    head, eq, tail = tok.partition("=")
    if head in names:
        return head, tail if eq else None
    if tok[1] == "-":
        matches = [name for name in names if name.startswith(head)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {head} could match {', '.join(matches)}")
        if matches:
            return matches[0], tail if eq else None
    elif tok.startswith("-h"):
        return "-h", None
    # A negative number, or a token with a space in it, is a value.
    return _VALUE if _NEGATIVE.match(tok) or " " in tok else (None, None)


def _convert(name: str, convert, text: str):
    if isinstance(convert, tuple):
        if text not in convert:
            raise UsageError(f"argument {name}: invalid choice: {text!r} (choose from {', '.join(convert)})")
        return text
    if convert is int:
        try:
            return int(text)
        except ValueError:
            raise UsageError(f"argument {name}: invalid int value: {text!r}") from None
    return convert(text)


def _switch(flag: str, text: str | None, command: str | None) -> None:
    """Read a flag that takes no value; -h or --help raises _Help."""
    if text is not None:
        raise UsageError(f"argument {flag}: ignored explicit argument {text!r}")
    if flag in _HELP:
        raise _Help(_help_text(command))


def _help_text(command: str | None) -> str:
    if command is None:
        width = max(map(len, COMMANDS))
        lines = ["usage: hyperwit COMMAND [ACTION] [FLAGS]", "", __doc__, "", "commands:"]
        lines += [f"  {name:<{width}}  {spec.help}" for name, spec in COMMANDS.items()]
        lines += ["", "Run 'hyperwit COMMAND -h' for the actions and flags of one command."]
        return "\n".join(lines) + "\n"
    spec = COMMANDS[command]
    rows = []
    for flag, (convert, default, text) in spec.flags.items():
        if isinstance(convert, tuple):
            left = f"{flag} {{{','.join(convert)}}}"
        else:
            left = flag if convert is bool else f"{flag} {_dest(flag).upper()}"
        if default is REQUIRED:
            text = f"{text} (required)"
        elif default is not None and convert is not bool:
            text = f"{text} (default: {default})"
        rows.append((left, text.strip()))
    rows.append(("-h, --help", "show this help"))
    width = max(len(left) for left, _ in rows)
    actions = f" {{{','.join(spec.actions)}}}" if spec.actions else ""
    lines = [f"usage: hyperwit {command}{actions} [FLAGS]", "", spec.help, ""]
    if spec.actions:
        lines += [f"actions: {', '.join(spec.actions)}", ""]
    lines += ["flags:", *(f"  {left:<{width}}  {text}".rstrip() for left, text in rows)]
    return "\n".join(lines) + "\n"


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read argv against `COMMANDS` in one pass: the command, then its action
    anywhere among its flags.

    A flag takes `--flag value` or `--flag=value` and may be shortened to a
    unique prefix; a repeated flag keeps its last value. A value may start
    with "-" only as a negative number or a lone "-". The first "--" ends the
    flags: it is dropped next to the action and otherwise unrecognized.
    Unknown tokens are refused once the rest has parsed. Any other fault
    raises UsageError when it is read, and -h or --help raises _Help."""
    extras: list[str] = []
    for i, tok in enumerate(argv):
        kind = _classify(tok, _HELP) if tok != "--" else _VALUE
        if kind is _VALUE:
            command = _convert("command", tuple(COMMANDS), tok)
            return _parse_command(command, argv[i + 1 :], extras)
        if kind[0] is None:
            extras.append(tok)
        else:
            _switch(*kind, None)
    raise UsageError("the following arguments are required: command")


def _parse_command(command: str, argv: list[str], extras: list[str]) -> SimpleNamespace:
    actions, flags = COMMANDS[command].actions, COMMANDS[command].flags
    names = (*flags, *_HELP)
    values = {"command": command, "action": None} if actions else {"command": command}
    for flag, spec in flags.items():
        values[_dest(flag)] = None if spec[1] is REQUIRED else spec[1]
    pending = bool(actions)  # the action is still to be read
    rest = False  # a "--" was read: every later token is a value
    seen: set[str] = set()
    i = 0
    while i < len(argv):
        tok = argv[i]
        i += 1
        if tok == "--" and not rest:
            rest = True
            if not (pending and i < len(argv)):
                extras.append(tok)
            continue
        kind = _VALUE if rest else _classify(tok, names)
        if kind is _VALUE:
            if not pending:
                extras.append(tok)
                continue
            values["action"] = _convert("action", actions, tok)
            pending = False
            if not rest and argv[i : i + 1] == ["--"]:
                rest, i = True, i + 1
            continue
        flag, text = kind
        if flag is None:
            extras.append(tok)
            continue
        if flag in _HELP or flags[flag][0] is bool:
            _switch(flag, text, command)
            values[_dest(flag)] = True
            continue
        if text is None:
            if i == len(argv) or argv[i] == "--" or _classify(argv[i], names) is not _VALUE:
                raise UsageError(f"argument {flag}: expected one argument")
            text = argv[i]
            i += 1
        values[_dest(flag)] = _convert(flag, flags[flag][0], text)
        seen.add(flag)
        if flag in _EXCLUSIVE and seen.issuperset(_EXCLUSIVE):
            other = _EXCLUSIVE[1] if flag == _EXCLUSIVE[0] else _EXCLUSIVE[0]
            raise UsageError(f"argument {flag}: not allowed with argument {other}")

    missing = ["action"] if pending else []
    missing += [flag for flag, spec in flags.items() if spec[1] is REQUIRED and flag not in seen]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def _resolve_hypergraph(args: SimpleNamespace) -> Hypergraph:
    if args.n is None:
        raise ValueError("--n is required")
    if args.family is not None:
        return build_family(Family(args.family), args.n)
    if args.edges is not None:
        return edges_from_json(args.edges, args.n)
    raise ValueError("give either --family or --edges")


def _emit(args: SimpleNamespace, payload: str) -> None:
    if not args.out:
        sys.stdout.write(payload)
        return
    try:
        with open(args.out, "w", newline="") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from None


def _csv(rows: list[list[object]], header: list[str]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _exact_csv_cells(value: Number) -> list[object]:
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator, repr(float(value))]
    return ["", "", repr(value)]


def _cmd_state(args: SimpleNamespace) -> int:
    h = _resolve_hypergraph(args)
    doc = hypergraph_json(h)
    if args.action == "build":
        doc["text"] = format_hypergraph(h)
    else:
        doc["signs_hex"] = build_state(h).to_hex()
    _emit(args, dumps(doc))
    return 0


def _cmd_verify(args: SimpleNamespace) -> int:
    h = _resolve_hypergraph(args)
    doc = {"check": args.action, **hypergraph_json(h)}
    if args.action == "stabilizers":
        doc["ok"] = stabilizer_defect(build_state(h), h) == 0
    elif args.action == "basis":
        if h.n > args.cap_sweep:
            raise ValueError(f"basis check capped at n <= {args.cap_sweep} (--cap-sweep)")
        state = build_state(h)
        doc["ok"] = all(
            overlap(state, basis_state(h, u)) == (1 if u == 0 else 0) for u in range(1 << h.n)
        )
    else:
        deviation = projector_identity_check(h)
        doc["deviation"] = deviation
        doc["ok"] = deviation == 0.0
    _emit(args, dumps(doc))
    return 0 if doc["ok"] else 1


def _cmd_entanglement(args: SimpleNamespace) -> int:
    h = _resolve_hypergraph(args)
    doc: dict = {**hypergraph_json(h), "mode": args.mode}
    alphas: dict[str, float] = {}

    report = None
    if args.mode == "brute" or args.cross_check:
        report = alpha_multipartite(build_state(h), sweep_limit=args.cap_sweep)
        alphas["brute"] = report.alpha
    if args.mode == "procedure" or args.cross_check:
        try:
            proc = procedure_alpha(h)
        except ValueError:
            if args.mode == "procedure":
                raise
            proc = None
        if proc is not None:
            alphas["procedure"] = proc.alpha
            doc["procedure"] = {
                "success": proc.success,
                "alpha": proc.alpha,
                "smax_squared": proc.smax_squared,
                "rows": [
                    {
                        "k": r.k,
                        "infinity_norm": exact_json(r.infinity_norm),
                        "within_bound": r.within_bound,
                        "lambda_max": r.lambda_max,
                    }
                    for r in proc.rows
                ],
            }
    if args.mode == "closed-form" or (args.cross_check and args.family is not None):
        if args.family is None:
            raise ValueError("closed-form mode needs --family")
        value = closed_form_alpha(Family(args.family), h.n)
        alphas["closed-form"] = float(value)
        doc["closed_form"] = exact_json(value)

    doc["alpha"] = alphas[args.mode]
    doc["E"] = 1.0 - doc["alpha"]
    if report is not None:
        doc["argmax_part_a"] = list(report.argmax_bipartition.part_a)
        doc["per_bipartition"] = [
            {"part_a": list(bp.part_a), "alpha": a} for bp, a in report.alpha_per_bipartition
        ]
    ok = True
    if args.cross_check:
        spread = max(alphas.values()) - min(alphas.values())
        ok = spread <= SPECTRAL_TOL
        doc["match"] = ok
    if args.format == "csv":
        if report is None:
            raise ValueError("csv output needs the brute-force sweep (--mode brute)")
        rows = [
            [";".join(map(str, bp.part_a)), repr(a), repr(1.0 - a)]
            for bp, a in report.alpha_per_bipartition
        ]
        _emit(args, _csv(rows, ["part_a", "alpha", "entanglement"]))
    else:
        _emit(args, dumps(doc))
    return 0 if ok else 1


def _cmd_reduce(args: SimpleNamespace) -> int:
    h = _resolve_hypergraph(args)
    cert = locc_reduce(h, Bipartition.of(h.n, args.partA))
    doc = {
        **hypergraph_json(h),
        "part_a": list(cert.bipartition.part_a),
        "kappa_prime_worst": cert.kappa_prime_worst,
        "bound": exact_json(cert.bound),
        "entanglement_ab": cert.entanglement_ab,
        "validated": cert.validated,
        "steps_total": cert.steps_total,
        "branches": [
            {
                "outcomes": [list(o) for o in b.outcomes],
                "steps": [
                    {
                        "op": s.op.value,
                        "qubit": s.qubit,
                        "outcome": s.outcome,
                        "edge": list(s.edge) if s.edge is not None else None,
                    }
                    for s in b.steps
                ],
                "final_edge": list(b.final_edge),
                "kappa_prime": b.kappa_prime,
            }
            for b in cert.branches
        ],
    }
    _emit(args, dumps(doc))
    return 0 if cert.validated else 1


def _witness_alpha(args: SimpleNamespace, h: Hypergraph) -> Number:
    if args.alpha_mode == "generic":
        return default_alpha(h)
    if args.alpha_mode == "closed-form":
        if args.family is None:
            raise ValueError("closed-form alpha needs --family")
        return closed_form_alpha(Family(args.family), h.n)
    return alpha_multipartite(build_state(h), sweep_limit=args.cap_sweep).alpha


def _cmd_witness(args: SimpleNamespace) -> int:
    if args.action == "table":
        if args.family is None or args.n_range is None:
            raise ValueError("witness table needs --family and --n-range")
        family = Family(args.family)
        rows = robustness_table(family, args.n_range)
        if args.format == "csv":
            data = [[r.n, *_exact_csv_cells(r.projector), *_exact_csv_cells(r.stabilizer)] for r in rows]
            header = [
                "n",
                "projector_num",
                "projector_den",
                "projector_float",
                "stabilizer_num",
                "stabilizer_den",
                "stabilizer_float",
            ]
            _emit(args, _csv(data, header))
        else:
            doc = {
                "family": family.value,
                "rows": [
                    {"n": r.n, "projector": exact_json(r.projector), "stabilizer": exact_json(r.stabilizer)}
                    for r in rows
                ],
            }
            _emit(args, dumps(doc))
        return 0

    if args.format == "csv":
        raise ValueError(f"csv output is offered only by witness table, not witness {args.action}")
    h = _resolve_hypergraph(args)
    alpha = _witness_alpha(args, h)
    if args.kind == "projector":
        spec = projector_witness(h, alpha)
    else:
        spec = stabilizer_witness(h, alpha)
    doc = {
        "kind": spec.kind.value,
        **hypergraph_json(h),
        "alpha": exact_json(spec.alpha),
        "robustness": exact_json(spec.robustness),
    }
    if spec.kind is WitnessKind.STABILIZER:
        assert spec.beta is not None and spec.c is not None
        doc["beta"] = exact_json(spec.beta)
        doc["c"] = float(spec.c)
        doc["feasible"] = feasibility_check(h, spec.alpha, spec.beta, spec.c)
    if args.action == "eval":
        if args.p is None:
            raise ValueError("eval needs --p")
        try:
            p = Fraction(args.p)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"--p must be a finite decimal or fraction, got {args.p!r}") from None
        value = expectation(spec, NoisyState(h, p))
        doc["p"] = exact_json(p)
        doc["expectation"] = exact_json(value)
        doc["negative"] = value < 0
    _emit(args, dumps(doc))
    return 0


def _cmd_settings(args: SimpleNamespace) -> int:
    h = _resolve_hypergraph(args)
    alpha = default_alpha(h)
    spec = projector_witness(h, alpha) if args.kind == "projector" else stabilizer_witness(h, alpha)
    settings = witness_settings(spec, SettingMode(args.mode), symbolic_limit=args.cap_symbolic)
    doc = {
        "kind": args.kind,
        **hypergraph_json(h),
        "mode": args.mode,
        "count": len(settings),
    }
    if args.action == "list":
        doc["settings"] = list(settings)
    _emit(args, dumps(doc))
    return 0


def _cmd_campaign(args: SimpleNamespace) -> int:
    given = {k: getattr(args, k) for k in ("count", "max_n", "seed") if getattr(args, k) is not None}
    if args.action == "lower-bound":
        report = lower_bound_campaign(**given, sweep_limit=args.cap_sweep)
        verdict, ok = "all_hold", report.all_hold
        rows = [
            {
                "index": r.index,
                **hypergraph_json(r.hypergraph),
                "k_max": r.k_max,
                "bound": exact_json(r.bound),
                "entanglement": r.entanglement,
                "holds": r.holds,
            }
            for r in report.rows
        ]
    else:
        report = reduction_audit(**given)
        verdict, ok = "all_validated", report.all_validated
        rows = [
            {
                "index": r.index,
                **hypergraph_json(r.hypergraph),
                "certificates": r.certificates,
                "all_validated": r.all_validated,
                "min_margin": r.min_margin,
            }
            for r in report.rows
        ]
    doc = {"seed": report.seed, "count": report.count, "max_n": report.max_n, verdict: ok, "rows": rows}
    _emit(args, dumps(doc))
    return 0 if ok else 1


_HANDLERS = {
    "state": _cmd_state,
    "verify": _cmd_verify,
    "entanglement": _cmd_entanglement,
    "reduce": _cmd_reduce,
    "witness": _cmd_witness,
    "settings": _cmd_settings,
    "campaign": _cmd_campaign,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return _HANDLERS[args.command](args)
    except _Help as exc:
        sys.stdout.write(str(exc))
        return 0
    except (LoccValidationError, LoccReductionError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try a smaller --n", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
