"""Command-line front-end. Every number printed here is computed by the
library; the CLI only parses arguments and serializes results."""

from __future__ import annotations

import argparse
import csv
import io
import sys
from fractions import Fraction
from functools import lru_cache

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
from .states import DENSE_LIMIT, apply_stabilizer, basis_state, build_state, overlap, projector_identity_check
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
    p.add_argument("--cap-dense", type=int, default=DENSE_LIMIT, help="largest n for dense matrix checks")

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


def _resolve_hypergraph(args: argparse.Namespace) -> Hypergraph:
    if args.n is None:
        raise ValueError("--n is required")
    if args.family is not None:
        return build_family(Family(args.family), args.n)
    if args.edges is not None:
        return edges_from_json(args.edges, args.n)
    raise ValueError("give either --family or --edges")


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def _emit(args: argparse.Namespace, payload: str) -> None:
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


def _cmd_state(args: argparse.Namespace) -> int:
    h = _resolve_hypergraph(args)
    doc = hypergraph_json(h)
    if args.action == "build":
        doc["text"] = format_hypergraph(h)
    else:
        doc["signs_hex"] = build_state(h).to_hex()
    _emit(args, dumps(doc))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    h = _resolve_hypergraph(args)
    doc = {"check": args.action, **hypergraph_json(h)}
    if args.action == "stabilizers":
        state = build_state(h)
        doc["ok"] = all(apply_stabilizer(state, h, i) == state for i in range(1, h.n + 1))
    elif args.action == "basis":
        if h.n > args.cap_sweep:
            raise ValueError(f"basis check capped at n <= {args.cap_sweep} (--cap-sweep)")
        state = build_state(h)
        doc["ok"] = all(
            overlap(state, basis_state(h, u)) == (1 if u == 0 else 0) for u in range(1 << h.n)
        )
    else:
        deviation = projector_identity_check(h, dense_limit=args.cap_dense)
        doc["deviation"] = deviation
        doc["ok"] = deviation == 0.0
    _emit(args, dumps(doc))
    return 0 if doc["ok"] else 1


def _cmd_entanglement(args: argparse.Namespace) -> int:
    h = _resolve_hypergraph(args)
    doc: dict = {**hypergraph_json(h), "mode": args.mode}
    alphas: dict[str, float] = {}

    report = None
    if args.mode == "brute" or args.cross_check:
        report = alpha_multipartite(build_state(h), sweep_limit=args.cap_sweep)
        alphas["brute"] = report.alpha
    if args.mode == "procedure" or args.cross_check:
        try:
            proc = procedure_alpha(h, sweep_limit=args.cap_sweep)
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


def _cmd_reduce(args: argparse.Namespace) -> int:
    h = _resolve_hypergraph(args)
    part = [int(tok) for tok in args.partA.split(",") if tok]
    cert = locc_reduce(h, Bipartition.of(h.n, part))
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


def _witness_alpha(args: argparse.Namespace, h: Hypergraph) -> Number:
    if args.alpha_mode == "generic":
        return default_alpha(h)
    if args.alpha_mode == "closed-form":
        if args.family is None:
            raise ValueError("closed-form alpha needs --family")
        return closed_form_alpha(Family(args.family), h.n)
    return alpha_multipartite(build_state(h), sweep_limit=args.cap_sweep).alpha


def _cmd_witness(args: argparse.Namespace) -> int:
    if args.action == "table":
        if args.family is None or args.n_range is None:
            raise ValueError("witness table needs --family and --n-range")
        family = Family(args.family)
        rows = robustness_table(family, _parse_range(args.n_range))
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


def _cmd_settings(args: argparse.Namespace) -> int:
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


def _cmd_campaign(args: argparse.Namespace) -> int:
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
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
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
