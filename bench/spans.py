"""Per-layer spans around calls into `hyperwit`, installed from outside the package.

`Tracer.install` replaces each listed function with a timing wrapper in every
`hyperwit` module namespace that holds it: the defining module (so
module-global call sites such as `alpha_multipartite -> alpha_bipartite` are
seen), importers, and aliases such as `cli.locc_reduce`. Spans are kept in
memory as [name, start_ns, end_ns, parent_index, task_id] and written out as
JSON lines after the run.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from functools import wraps
from time import perf_counter_ns

LAYERS = {
    "states": ("build_state", "apply_stabilizer", "extract_hypergraph", "overlap", "is_permutation_invariant"),
    "entanglement": ("alpha_bipartite", "alpha_multipartite", "procedure_alpha", "lower_bound_check"),
    "locc": ("reduce", "z_measure", "pauli_x_toggle", "pauli_z_toggle", "remove_non_crossing"),
    "hypergraph": ("canonicalize", "toggle_edges", "is_connected"),
    "measurement": (
        "decompose_stabilizer_product",
        "dense_pauli",
        "canonical_settings",
        "greedy_min_settings",
        "witness_settings",
    ),
    "witness": ("projector_witness", "stabilizer_witness"),
    "serialize": ("dumps",),
    "cli": ("main",),
    "campaign": ("lower_bound_campaign",),
}

# Counters that add len(result) of a traced call.
RESULT_COUNTERS = {
    "measurement.decompose_stabilizer_product": "measurement.strings_emitted",
    "measurement.witness_settings": "measurement.settings_emitted",
    "serialize.dumps": "serialize.bytes_out",
}

LOCC_REWRITES = {"locc.z_measure", "locc.pauli_x_toggle", "locc.pauli_z_toggle", "locc.remove_non_crossing"}


def _per_layer() -> dict[str, tuple[str, str]]:
    """name -> (unit, better). Span metrics are per task of the traced pass."""
    out = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            out[f"{layer}.{fn}.calls"] = ("1/task", "lower")
            out[f"{layer}.{fn}.busy_ms"] = ("ms/task", "lower")
            out[f"{layer}.{fn}.self_ms"] = ("ms/task", "lower")
        out[f"{layer}.self_ms"] = ("ms/task", "lower")
    out.update({
        "states.superset_mask.hit_ratio": ("ratio", "higher"),
        "entanglement.procedure_fallbacks": ("1/task", "lower"),
        "locc.oracle_ms": ("ms/task", "lower"),
        "locc.steps_total": ("1/task", "lower"),
        "locc.branches": ("1/task", "lower"),
        "locc.validated_ratio": ("ratio", "higher"),
        "measurement.strings_emitted": ("1/task", "lower"),
        "measurement.settings_emitted": ("1/task", "lower"),
        "serialize.bytes_out": ("B/task", "lower"),
        "trace.overhead_pct": ("%", "lower"),
    })
    return out


PER_LAYER = _per_layer()


def cache_counts() -> tuple[int, int]:
    """(hits, misses) of states.superset_mask, or (0, 0) once it is no longer an lru cache."""
    info = getattr(getattr(sys.modules.get("hyperwit.states"), "superset_mask", None), "cache_info", None)
    if info is None:
        return 0, 0
    ci = info()
    return ci.hits, ci.misses


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.task = -1
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop recorded data; wrappers keep references to these same containers."""
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()

    def _wrap(self, name: str, fn, counter: str | None):
        spans, stack, counters, tracer = self.spans, self.stack, self.counters, self

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter_ns(), 0, stack[-1] if stack else -1, tracer.task]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                counters[counter] += len(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "hyperwit" or key.startswith("hyperwit.")]
        for layer, fns in LAYERS.items():
            home = sys.modules.get(f"hyperwit.{layer}")
            for fn in fns:
                original = getattr(home, fn, None)
                if original is None:  # renamed or removed in this version: its metrics read 0
                    continue
                name = f"{layer}.{fn}"
                wrapper = self._wrap(name, original, RESULT_COUNTERS.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def merge(self, spans: list[list], counters: dict) -> None:
        """Append spans recorded in a child process, re-basing parent indices."""
        base = len(self.spans)
        self.spans.extend([s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1, s[4]] for s in spans)
        self.counters.update(counters)

    def observe(self, slot: str, out: str) -> None:
        """Count work visible only in a command's output."""
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            return
        if "procedure" in doc:
            self.counters["entanglement.procedure_fallbacks"] += sum(
                r.get("lambda_max") is not None for r in doc["procedure"].get("rows", [])
            )
        if slot.startswith("reduce"):
            self.counters["reduce_tasks"] += 1
            self.counters["locc.steps_total"] += doc.get("steps_total", 0)
            self.counters["locc.branches"] += len(doc.get("branches", []))
            self.counters["validated"] += doc.get("validated") is True

    def metrics(self, tasks: int, hits: int, misses: int) -> dict[str, float]:
        """Per-layer table: calls, busy time (outermost calls) and self time, per task."""
        spans = self.spans
        child = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        calls: Counter = Counter()
        busy: Counter = Counter()
        own: Counter = Counter()
        oracle = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            own[name] += dur - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                busy[name] += dur
            if parent >= 0 and name.startswith("states.") and spans[parent][0] in LOCC_REWRITES:
                oracle += dur
        per = 1.0 / max(tasks, 1)
        out: dict[str, float] = {}
        for layer, fns in LAYERS.items():
            layer_self = 0
            for fn in fns:
                name = f"{layer}.{fn}"
                out[f"{name}.calls"] = calls[name] * per
                out[f"{name}.busy_ms"] = busy[name] / 1e6 * per
                out[f"{name}.self_ms"] = own[name] / 1e6 * per
                layer_self += own[name]
            out[f"{layer}.self_ms"] = layer_self / 1e6 * per
        c = self.counters
        out["states.superset_mask.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["entanglement.procedure_fallbacks"] = c["entanglement.procedure_fallbacks"] * per
        out["locc.oracle_ms"] = oracle / 1e6 * per
        out["locc.steps_total"] = c["locc.steps_total"] * per
        out["locc.branches"] = c["locc.branches"] * per
        out["locc.validated_ratio"] = c["validated"] / c["reduce_tasks"] if c["reduce_tasks"] else 0.0
        for counter in RESULT_COUNTERS.values():
            out[counter] = c[counter] * per
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, task) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent if parent >= 0 else None, "task": task}) + "\n")
