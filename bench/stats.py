#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/stats.py --workloads cold-cli sweep certify settings \
        --seeds 1-10 [--trace 0|1] [--out FILE]

For every workload and metric this prints the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread (q3 - q1) /
median, which is what the metric's bound in BENCHMARK.json is compared with.
Each run measures BENCHMARK.json's run_seconds. Failed tasks fail the
summary. With --out the summary is also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine() -> dict:
    from importlib.metadata import version

    return {"cpus": os.cpu_count(), "platform": platform.platform(), "python": platform.python_version(),
            "numpy": version("numpy")}


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", default=["cold-cli", "sweep", "certify", "settings"])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    ok = True
    for workload in args.workloads:
        runs = [run_once(workload, s, seconds, args.trace) for s in seeds(args.seeds)]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        ok = ok and failed == 0
        report[workload] = {"runs": len(runs), "attempted": attempted, "failed": failed,
                            "error_rate": failed / attempted, "metrics": summarise(runs)}
        print(f"# {workload}: {len(runs)} runs, {attempted} tasks, error_rate {failed / attempted:.4f}")
        for name, m in report[workload]["metrics"].items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:.2f}{'  OVER' if m['spread'] > bound / 3 else ''}"
            print(f"  {name:40s} median {m['median']:12.4f} q1 {m['q1']:12.4f} q3 {m['q3']:12.4f} "
                  f"spread {m['spread']:.4f} {m['unit']}{flag}", flush=True)
            print("      values " + " ".join(f"{v:.4g}" for v in m["values"]))
    if args.out:
        doc = {"seconds": seconds, "seeds": args.seeds, "trace": args.trace, "machine": machine(),
               "workloads": report}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
