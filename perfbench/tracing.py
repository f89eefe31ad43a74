"""Spans around calls into sqf's layers, recorded from outside the program.

A wrapper records one span per call: name, start, end, parent span and
operation id. Spans stay in memory until the run writes them out. A layer's
self time is the time its spans cover minus the time their child spans
cover, so the self times of one operation sum to its root span's duration.

`patched` swaps module attributes for wrappers for the length of a traced
run and restores them after: the public `sqf` names the harness calls, or
the names `sqf.cli` resolves for `sqf bench`, plus the few that the program
looks up at call time (table generation, and the per-candidate pricing of
`select_best`). Nothing under `src/` is edited. A name that no longer exists
is recorded in `Tracer.missing`, and the metrics computed from it are
left out rather than reported as zero.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


# span name -> the public `sqf` function the harness calls for it
API_NAMES = {
    "relcore.load_csv": "load_csv",
    "relcore.table_stats": "table_stats",
    "library.load": "load_library",
    "fabric.load_profile": "load_device_profile",
    "frontend.parse": "parse_query",
    "frontend.bind": "bind",
    "planner.enumerate": "enumerate_pipelines",
    "planner.select": "select_best",
    "planner.price": "full_estimate",
    "fabric.allocate": "allocate",
    "fabric.reconfigure": "reconfigure",
    "fabric.release": "release",
    "engine.execute": "execute_pipeline",
    "engine.checksum": "result_checksum",
    "oracle.reference": "reference_execute",
}

# Names looked up at call time inside the program, wrapped in every traced
# run: table generation, and the pricing `select_best` does per candidate.
INNER_TARGETS = [
    ("sqf.suite", "materialize", "suite.materialize"),
    ("sqf.planner", "full_estimate", "planner.price"),
]

# What `sqf bench` resolves in `sqf.cli`'s namespace.
CLI_TARGETS = [
    ("sqf.cli", "main", "cli.main"),
    ("sqf.cli", "load_csv", "relcore.load_csv"),
    ("sqf.cli", "table_stats", "relcore.table_stats"),
    ("sqf.cli", "load_library", "library.load"),
    ("sqf.cli", "load_device_profile", "fabric.load_profile"),
    ("sqf.cli", "parse_query", "frontend.parse"),
    ("sqf.cli", "bind", "frontend.bind"),
    ("sqf.cli", "enumerate_pipelines", "planner.enumerate"),
    ("sqf.cli", "select_best", "planner.select"),
    ("sqf.cli", "software_baseline", "planner.price"),
    ("sqf.cli", "allocate", "fabric.allocate"),
    ("sqf.cli", "reconfigure", "fabric.reconfigure"),
    ("sqf.cli", "execute_pipeline", "engine.execute"),
    ("sqf.cli", "result_checksum", "engine.checksum"),
    ("sqf", "reference_execute", "oracle.reference"),
] + INNER_TARGETS

API_TARGETS = [
    ("sqf", attr, span) for span, attr in API_NAMES.items()
] + INNER_TARGETS

# layers reported as `<layer>.self_s`; the cli's is `cli.bench.self_s`
LAYERS = ("suite", "relcore", "library", "frontend", "planner", "fabric",
          "engine", "harness")

# span record fields
NAME, PARENT, OP, START, END, ERROR, ATTRS = range(7)


class Tracer:
    """In-memory span recorder. `op` is set by the harness per operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.missing: dict[str, str] = {}  # qualified name -> span name

    def wrap(self, name: str, fn, observe=None):
        """Wrap `fn` so each call records a span; `observe(args, result)`
        returns a dict of counts stored on the span."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.op, perf_counter(), 0.0,
                   None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if observe is not None:
                rec[ATTRS] = observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        """One JSON object per span, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "parent": rec[PARENT],
                    "op": rec[OP], "start": rec[START], "end": rec[END],
                    "error": rec[ERROR], "attrs": rec[ATTRS],
                }) + "\n")


# --------------------------------------------------------------------------
# observers: counts measured where the work happens
# --------------------------------------------------------------------------

def _obs_load(args, table):
    path = Path(args[0])
    return {"rows": table.row_count, "bytes": path.stat().st_size,
            "file": str(path.resolve())}


def _obs_enumerate(args, cands):
    return {"candidates": len(cands)}


def _obs_price(args, result):
    if isinstance(result, tuple):  # software_baseline: (seconds, joules)
        return None
    return {"modeled_s": result.total_seconds, "modeled_j": result.energy_joules}


def _obs_reconfigure(args, report):
    return {"entries": len(args[1].entries), "skipped": report.skipped_entries,
            "bytes": report.bytes}


def _obs_execute(args, result):
    cand, tables = args[0], args[1]
    _, report = result
    passed = sum(s.output_count for s in report.stages if s.name == "bloom_cascade")
    return {
        "algo": cand.join_algo,
        "source_rows": sum(tables[t].row_count for t in cand.plan.table_names()),
        "result_rows": report.result_rows,
        "bloom_fp": report.bloom_false_positives or 0,
        "bloom_passed": passed,
    }


def _obs_checksum(args, _):
    return {"rows": args[0].row_count}


OBSERVERS = {
    "relcore.load_csv": _obs_load,
    "planner.enumerate": _obs_enumerate,
    "planner.price": _obs_price,
    "fabric.reconfigure": _obs_reconfigure,
    "engine.execute": _obs_execute,
    "engine.checksum": _obs_checksum,
}


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Wrap each (module, attribute, span) target, restoring them on exit."""
    saved = []
    try:
        for module_name, attr, span in targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                tracer.missing[f"{module_name}.{attr}"] = span
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(span, fn, OBSERVERS.get(span)))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# --------------------------------------------------------------------------
# aggregation
# --------------------------------------------------------------------------

def self_times(spans, select=None) -> dict:
    """{span index: self seconds} for the spans whose index passes `select`."""
    child = defaultdict(float)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return {
        i: rec[END] - rec[START] - child[i]
        for i, rec in enumerate(spans)
        if select is None or select(rec)
    }


def layer_metrics(spans, setup_op, pass_ops, verify_op, missing, mismatches) -> dict:
    """Per-layer figures for one set-up plus one pass.

    Figures sum over the spans of `setup_op` and of the operations in
    `pass_ops`; ratios are taken from those sums. The oracle's figures come
    from the verification step, which is outside both; `mismatches` is the
    number of operations verification found wrong. Metrics that depend on a
    missing wrapped name are left out, so they read as missing, not zero.
    """
    sums = defaultdict(float)
    selfs = self_times(spans, lambda rec: rec[OP] in pass_ops or rec[OP] in
                       (setup_op, verify_op))
    files = set()
    for i, s in selfs.items():
        rec = spans[i]
        name, attrs = rec[NAME], rec[ATTRS] or {}
        if rec[OP] == verify_op and not name.startswith("oracle."):
            continue
        dur = rec[END] - rec[START]
        sums[f"self.{name.split('.', 1)[0]}"] += s
        sums[f"{name}.calls"] += 1
        sums[f"{name}.s"] += dur
        if rec[ERROR] is not None:
            sums[f"{name}.errors"] += 1
        for key, value in attrs.items():
            if key == "file":
                files.add(value)
            elif key == "algo":
                sums[f"engine.execute.{value}.s"] += dur
            else:
                sums[f"{name}.{key}"] += value

    def ratio(num, den):
        return sums[num] / sums[den] if sums[den] else 0.0

    m = {
        "relcore.load_csv.calls": sums["relcore.load_csv.calls"],
        "relcore.load_csv.s": sums["relcore.load_csv.s"],
        "relcore.load_csv.rows": sums["relcore.load_csv.rows"],
        "relcore.load_csv.mb_per_s": (sums["relcore.load_csv.bytes"] / 1e6
                                      / sums["relcore.load_csv.s"]
                                      if sums["relcore.load_csv.s"] else 0.0),
        "relcore.table_stats.calls": sums["relcore.table_stats.calls"],
        "relcore.table_stats.s": sums["relcore.table_stats.s"],
        "relcore.reload_ratio": (sums["relcore.load_csv.calls"] / len(files)
                                 if files else 0.0),
        "suite.materialize.s": sums["suite.materialize.s"],
        "library.load.s": sums["library.load.s"],
        "frontend.parse.s": sums["frontend.parse.s"],
        "frontend.bind.s": sums["frontend.bind.s"],
        "planner.enumerate.s": sums["planner.enumerate.s"],
        "planner.price.s": sums["planner.price.s"],
        "planner.candidates": sums["planner.enumerate.candidates"],
        "fabric.allocate.s": sums["fabric.allocate.s"],
        "fabric.reconfigure.s": sums["fabric.reconfigure.s"],
        "fabric.resident_hit_ratio": ratio("fabric.reconfigure.skipped",
                                           "fabric.reconfigure.entries"),
        "fabric.alloc_failures": sums["fabric.allocate.errors"],
        "engine.execute.s": sums["engine.execute.s"],
        "engine.source_rows": sums["engine.execute.source_rows"],
        "engine.result_rows": sums["engine.execute.result_rows"],
        "engine.checksum.s": sums["engine.checksum.s"],
        "engine.checksum.rows": sums["engine.checksum.rows"],
        "engine.bloom_fp_ratio": ratio("engine.execute.bloom_fp",
                                       "engine.execute.bloom_passed"),
        "oracle.reference.s": sums["oracle.reference.s"],
        "oracle.mismatches": mismatches,
        "cli.bench.self_s": sums["self.cli"],
        "planner.modeled_total_s": sums["planner.price.modeled_s"],
        "planner.modeled_energy_j": sums["planner.price.modeled_j"],
        "fabric.reconfig.bytes": sums["fabric.reconfigure.bytes"],
    }
    for algo in ("none", "hash_fpga", "merge_fpga", "hash_codesign"):
        m[f"engine.execute.{algo}.s"] = sums[f"engine.execute.{algo}.s"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sums[f"self.{layer}"]

    gone = set(missing.values())
    return {k: v for k, v in m.items() if not any(_depends(k, span) for span in gone)}


def _depends(metric: str, span: str) -> bool:
    """Whether `metric` is computed from the spans named `span`."""
    prefix = {"planner.enumerate": ("planner.enumerate", "planner.candidates"),
              "planner.price": ("planner.price", "planner.modeled"),
              "fabric.reconfigure": ("fabric.reconfig", "fabric.resident"),
              "fabric.allocate": ("fabric.allocate", "fabric.alloc_failures"),
              "engine.execute": ("engine.execute", "engine.source_rows",
                                 "engine.result_rows", "engine.bloom"),
              "relcore.load_csv": ("relcore.load_csv", "relcore.reload_ratio"),
              "cli.main": ("cli.bench",)}.get(span, (span,))
    return metric.startswith(prefix)
