#!/usr/bin/env python3
"""Benchmark of the hyperwit CLI: four seeded workloads of real invocations.

    python3 bench/run.py --workload cold-cli|sweep|certify|settings \
        --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src. Each task
is one `hyperwit.cli.main(argv)` call with stdout captured, and every output
is checked against the benchmark's own reference computation (checks.py).

--trace 0 prints the end-to-end metrics. The timed tasks fill a third of S;
then two copies of each (same size and cost, relabelled so the program has not
seen them, see workloads.copy_of) run after them, and a task's wall time is
the best of its three. The copies lie a third of the run apart, so a task is
slow only when the machine was slowed by something else all three times.
Every timing, and the set-up time, is also scaled to the machine's calm speed
by a reference computation timed next to it in a helper process (speed.py),
which takes out slowdowns that last longer than a run.

--trace 1 instead runs a traced pass
for S/2 seconds, then replays the same tasks untraced, and prints the
per-layer table plus the tracing overhead. The last line of stdout is one
JSON object; a human-readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402  (stdlib only; numpy must not load before the set-up samples)

SETUP_SAMPLES = 5
REPEATS = 3  # timings of every task, as copies a third of the run apart; the best counts
MIN_TASKS = 100  # distinct tasks in a timed pass, so that ten or more lie beyond p90
FORKED = {"cold-cli"}  # every task in a fresh child of a parent that never ran hyperwit
EXPECTED_SETTINGS = HERE / "expected_settings.json"
TRACE_DIR = HERE / "out"


def import_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hyperwit.cli

    return hyperwit.cli


def run_inline(cli, argv) -> tuple[int, str, float]:
    """One CLI call in this process: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed task, not a failed benchmark
        code = -1
        print(traceback.format_exc(), file=sys.stderr)
    return code, out.getvalue(), time.perf_counter() - t0


def run_forked(cli, argv, tracer=None) -> tuple[int, str, float, int, dict]:
    """One CLI call in a forked child: (code, stdout, seconds, child maxrss KiB, trace payload)."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            if tracer is not None:
                tracer.reset()
            code, out, _ = run_inline(cli, argv)
            payload = {"code": code, "out": out}
            if tracer is not None:
                from spans import cache_counts

                payload.update(spans=tracer.spans, counters=tracer.counters, cache=cache_counts())
            with os.fdopen(w, "w") as fh:
                json.dump(payload, fh)
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r) as fh:
        data = fh.read()
    _, _, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - t0
    try:
        payload = json.loads(data)
    except json.JSONDecodeError:
        payload = {"code": -1, "out": ""}
    return payload["code"], payload["out"], seconds, usage.ru_maxrss, payload


def warm_up(cli, workload: str, seed: int, tiny: bool) -> None:
    # cold-cli children start empty whatever the parent does, so its warm-up only
    # exercises the fork path, at tiny sizes; warm workloads fill their per-n caches.
    if workload in FORKED:
        for task in workloads.warmup_round(workload, seed, tiny=True):
            run_forked(cli, task.argv)
    else:
        for task in workloads.warmup_round(workload, seed, tiny):
            run_inline(cli, task.argv)


def setup_sample(workload: str, seed: int, tiny: bool) -> float:
    """Seconds to import hyperwit and warm up, in a child forked before any import."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            t0 = time.perf_counter()
            warm_up(import_cli(), workload, seed, tiny)
            os.write(w, repr(time.perf_counter() - t0).encode())
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r) as fh:
        text = fh.read()
    os.waitpid(pid, 0)
    if not text:
        sys.exit("error: a set-up sample failed")
    return float(text)


class Pass:
    """Tasks run back to back until their summed time reaches the budget, in whole rounds."""

    def __init__(self, cli, workload: str, expected: dict[str, int], probe: speed.SpeedProbe | None) -> None:
        import checks

        self.check = checks.check
        self.cli = cli
        self.forked = workload in FORKED
        self.expected = expected
        self.probe = probe
        self.times: list[float] = []
        self.slots: list[str] = []
        self.failures: list[str] = []
        self.max_child_rss_kb = 0
        self.child_hits = self.child_misses = 0

    def execute(self, task, tracer=None) -> None:
        if self.probe is not None:
            self.probe.sample(len(self.times))
        if self.forked:
            code, out, seconds, rss, payload = run_forked(self.cli, task.argv, tracer)
            self.max_child_rss_kb = max(self.max_child_rss_kb, rss)
            if tracer is not None and "spans" in payload:
                tracer.merge(payload["spans"], payload["counters"])
                self.child_hits += payload["cache"][0]
                self.child_misses += payload["cache"][1]
        else:
            code, out, seconds = run_inline(self.cli, task.argv)
        self.times.append(seconds)
        self.slots.append(task.slot)
        if tracer is not None:
            tracer.observe(task.slot, out)
        reason = self.check(task, code, out, self.expected)
        if reason is not None:
            self.failures.append(f"{task.slot}: {reason} :: {' '.join(task.argv)[:160]}")

    def run_rounds(self, rounds, budget: float, tracer=None, min_tasks: int = 0) -> list:
        done = []
        spent = 0.0
        for rnd in rounds:
            start = len(self.times)
            for task in rnd:
                if tracer is not None:
                    tracer.task = len(done)
                self.execute(task, tracer)
                done.append(task)
            spent += sum(self.times[start:])
            if spent >= budget and len(done) >= min_tasks:
                return done


def _summary(workload: str, metrics: dict, units: dict, p: Pass, slots: list[str], times: list[float]) -> None:
    print(f"# {workload}: {len(p.times)} invocations, {len(p.failures)} failed, "
          f"error_rate {len(p.failures) / max(len(p.times), 1):.4f}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.4f} {units[name]}", file=sys.stderr)
    by_slot: dict[str, list[float]] = {}
    for slot, t in zip(slots, times):
        by_slot.setdefault(slot, []).append(t)
    for slot, ts in by_slot.items():
        print(f"  slot {slot:44s} {len(ts):5d} x median {statistics.median(ts) * 1e3:10.2f} ms", file=sys.stderr)
    for line in p.failures[:10]:
        print(f"  FAILED {line}", file=sys.stderr)


def end_to_end(p: Pass, workload: str, seed: int, seconds: float, tiny: bool, setup: float):
    tasks = p.run_rounds(workloads.rounds(workload, seed, tiny), seconds / REPEATS,
                         min_tasks=0 if tiny else MIN_TASKS)
    rng = random.Random(f"{workload}:{seed}:copies")
    copies = [tasks]
    for _ in range(REPEATS - 1):
        copies.append([workloads.copy_of(task, rng) for task in copies[-1]])
        for task in copies[-1]:
            p.execute(task)
    # Timing i * len(tasks) + k is copy i of task k; a task's time is its best copy's.
    scaled = [t * f for t, f in zip(p.times, p.probe.scales(len(p.times)))]
    times = [min(scaled[k::len(tasks)]) for k in range(len(tasks))]
    raw = sorted(min(p.times[k::len(tasks)]) for k in range(len(tasks)))
    if p.forked:
        rss_kb = p.max_child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) >= 2 else times[0]
    values = {
        "setup_s": (setup, "s"),
        "tasks_per_s": (len(times) / sum(times), "1/s"),
        "task_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "task_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    _summary(workload, {k: v for k, (v, _) in values.items()}, {k: u for k, (_, u) in values.items()},
             p, [task.slot for task in tasks], times)
    probes = [s for _, s in p.probe.samples]
    print(f"  speed: {len(probes)} probes, median {statistics.median(probes) * 1e3:.3f} ms "
          f"(calm {p.probe.reference * 1e3:.3f} ms), quartiles "
          f"{' '.join(f'{q * 1e3:.3f}' for q in statistics.quantiles(probes, n=4))}", file=sys.stderr)
    print(f"  unscaled: tasks_per_s {len(raw) / sum(raw):.4f} task_p50_ms {statistics.median(raw) * 1e3:.4f} "
          f"task_p90_ms {statistics.quantiles(raw, n=10)[-1] * 1e3:.4f}", file=sys.stderr)
    return {k: v for k, (v, _) in values.items()}, {k: u for k, (_, u) in values.items()}


def traced(p: Pass, workload: str, seed: int, seconds: float, tiny: bool):
    from spans import PER_LAYER, Tracer, cache_counts

    tracer = Tracer()
    hits0, misses0 = cache_counts()
    tracer.install()
    try:
        done = p.run_rounds(workloads.rounds(workload, seed, tiny), seconds / 2, tracer)
    finally:
        tracer.uninstall()
    hits1, misses1 = cache_counts()
    if p.forked:
        hits, misses = p.child_hits, p.child_misses
    else:
        hits, misses = hits1 - hits0, misses1 - misses0
    metrics = tracer.metrics(len(done), hits, misses)
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write_jsonl(TRACE_DIR / f"trace-{workload}.jsonl")  # one file per workload: the last run
    tracer.reset()  # a large live span list would slow the replay's garbage collection
    traced_s = sum(p.times)
    for task in done:  # the same tasks again, untraced, for the overhead
        p.execute(task)
    metrics["trace.overhead_pct"] = (traced_s / (sum(p.times) - traced_s) - 1.0) * 100.0
    units = {k: u for k, (u, _) in PER_LAYER.items()}
    _summary(workload, metrics, units, p, p.slots, p.times)
    return metrics, units


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    setup = [setup_sample(workload, seed, tiny) for _ in range(0 if trace else SETUP_SAMPLES - 1)]
    t0 = time.perf_counter()
    cli = import_cli()
    warm_up(cli, workload, seed, tiny)
    setup.append(time.perf_counter() - t0)
    expected = json.loads(EXPECTED_SETTINGS.read_text()) if EXPECTED_SETTINGS.is_file() else {}
    if trace:
        p = Pass(cli, workload, expected, None)
        metrics, units = traced(p, workload, seed, seconds, tiny)
    else:
        probe = speed.SpeedProbe(forked=workload in FORKED)
        calm = probe.reference / statistics.median(probe.measure() for _ in range(SETUP_SAMPLES))
        p = Pass(cli, workload, expected, probe)
        metrics, units = end_to_end(p, workload, seed, seconds, tiny, statistics.median(setup) * calm)
    return {
        "correct": not p.failures,
        "attempted": len(p.times),
        "failed": len(p.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hyperwit" / "__init__.py").is_file():
        print(f"error: no hyperwit sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
