"""The three workloads and the harness that times them.

A run is a few rounds. Each round drops the previous round's state, sets up
afresh and measures its share of the time budget, carrying on through the
operations where the last round stopped; at least one whole pass is made.
Every operation's output is checked after the last round, outside the timed
region. `setup_s` is the median of the rounds' set-ups, which are spread over
the run like the operations are. All of it is one process and one thread.

    suite_bench  one in-process `sqf bench` per operation, suite at SF 1
    exec_sf8     one (query, candidate) pipeline per operation, SF 8
    plan_stream  one generated query planned and placed per operation
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import resource
import statistics
import sys
import traceback
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import sqf
import sqf.cli
import sqf.suite

import hostspeed
import inputs
import tracing


@dataclass
class Result:
    # timed runs: reference seconds, and the raw host seconds beside them;
    # traced runs: host seconds
    setup_s: list = field(default_factory=list)
    latencies: dict = field(default_factory=dict)  # item index -> array of s
    raw_setup_s: list = field(default_factory=list)
    raw_latencies: dict = field(default_factory=dict)
    host_speed: float = 1.0  # timed runs: mean speed factor of the samples
    failed: int = 0  # operations that raised, plus those verification rejects
    attempted: int = 0
    source_rows: int = 0
    peak_rss_mb: float = 0.0
    checks: dict = field(default_factory=dict)  # name -> passed
    notes: dict = field(default_factory=dict)  # printed beside the metrics
    layers: dict = field(default_factory=dict)  # trace runs only
    missing: list = field(default_factory=list)  # trace runs only
    op_walls: dict = field(default_factory=dict)  # trace runs: op id -> s


def _load_tables(suite_dir: Path) -> dict:
    manifest = json.loads((suite_dir / "manifest.json").read_text(encoding="utf-8"))
    tables_dir = suite_dir / manifest["tables_dir"]
    return {name: sqf.load_csv(tables_dir / f"{name}.csv") for name in manifest["tables"]}


def _query_texts(suite_dir: Path) -> dict:
    manifest = json.loads((suite_dir / "manifest.json").read_text(encoding="utf-8"))
    return {q: (suite_dir / q).read_text(encoding="utf-8") for q in manifest["queries"]}


def _reference(bound, tables):
    table = sqf.reference_execute(bound, tables)
    return table.row_count, sqf.result_checksum(table)


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class _Workload:
    """A workload makes its state in `setup`, lists the operations of one
    pass in `items`, runs one in `op` and counts wrong outputs in `verify`."""

    def __init__(self, repo_root: Path, seed: int, scale: float):
        self.repo_root, self.seed, self.scale = repo_root, seed, scale


class SuiteBench(_Workload):
    """`sqf bench` as users run it: the shipped suite at SF 1, every strategy.

    Each of its rows reloads and re-profiles the tables it reads, so it is
    dominated by ingest; the rest is the engine on small tables.
    """

    name = "suite_bench"
    scale = 1.0
    setups = 15

    def __init__(self, repo_root: Path, seed: int, scale: float):
        super().__init__(repo_root, seed, scale)
        self.report_ids = itertools.count(1)  # reports outlive the round's state

    def setup(self, work: Path):
        suite_dir = inputs.write_suite(self.repo_root, work / "suite", self.seed, self.scale)
        sqf.suite.materialize(suite_dir, force=True)
        return {"suite": suite_dir, "work": work}

    def items(self, state):
        return [None]

    def op(self, state, item):
        out = state["work"] / f"report{next(self.report_ids)}.json"
        argv = ["bench", "--suite", str(state["suite"]), "--out", str(out),
                "--seed", str(self.seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = sqf.cli.main(argv)
        return rc, out

    def verify(self, state, seen, result):
        tables = _load_tables(state["suite"])
        catalog = {name: t.schema for name, t in tables.items()}
        expected, sources = {}, {}
        for qname, text in _query_texts(state["suite"]).items():
            plan = sqf.parse_query(text)
            expected[qname] = _reference(sqf.bind(plan, catalog), tables)
            names = [plan.source] + ([plan.join.table] if plan.join else [])
            sources[qname] = sum(tables[n].row_count for n in names)
        wrong = 0
        for (rc, path), count in seen.get(0, {}).items():
            report = json.loads(path.read_text(encoding="utf-8"))
            ok_rows = [r for r in report["rows"] if r["status"] == "ok"]
            bad = rc != 0 or report["summary"]["failed"] != 0
            for row in ok_rows:
                rows, checksum = expected[row["query"]]
                bad |= (row["result_rows"], row["checksum"]) != (rows, f"0x{checksum:016x}")
            wrong += count if bad else 0
            result.source_rows += count * sum(sources[r["query"]] for r in ok_rows)
        return wrong


class ExecSF8(_Workload):
    """Every candidate pipeline of the suite's 12 queries, executed at 8x the
    manifest's row counts on tables loaded once; engine-bound."""

    name = "exec_sf8"
    scale = 8.0
    setups = 3

    def setup(self, work: Path):
        suite_dir = inputs.write_suite(self.repo_root, work / "suite", self.seed, self.scale)
        sqf.suite.materialize(suite_dir, force=True)
        manifest = json.loads((suite_dir / "manifest.json").read_text(encoding="utf-8"))
        tables = _load_tables(suite_dir)
        stats = {name: sqf.table_stats(t) for name, t in tables.items()}
        library = sqf.load_library(manifest["library"])
        device = sqf.load_device_profile(manifest["device"])
        catalog = {name: t.schema for name, t in tables.items()}
        pipelines, bound = [], {}
        for qname, text in _query_texts(suite_dir).items():
            bound[qname] = sqf.bind(sqf.parse_query(text), catalog)
            for cand in sqf.enumerate_pipelines(bound[qname], library, device):
                pipelines.append((qname, cand, sqf.full_estimate(cand, stats, device)))
        return {"tables": tables, "device": device, "pipelines": pipelines,
                "bound": bound}

    def items(self, state):
        return state["pipelines"]

    def op(self, state, item):
        _, cand, est = item
        device = state["device"]
        fabric = sqf.FabricState(device)
        placement = sqf.allocate(fabric, cand.modules)
        sqf.reconfigure(fabric, placement)
        table, report = sqf.execute_pipeline(cand, state["tables"], fabric, placement,
                                             device, seed=self.seed, estimate=est)
        return report.result_rows, sqf.result_checksum(table)

    def verify(self, state, seen, result):
        items = state["pipelines"]
        by_query = defaultdict(set)
        for i, values in seen.items():
            by_query[items[i][0]].update(values)
        # the reference evaluator is nested-loop, so only single-table
        # queries are affordable at this scale
        for qname, bound in state["bound"].items():
            if not bound.has_join and qname in by_query:
                by_query[qname].add(_reference(bound, state["tables"]))
        wrong = 0
        for i, values in seen.items():
            qname, cand, _ = items[i]
            count = sum(values.values())
            if len(by_query[qname]) != 1:
                wrong += count
            result.source_rows += count * sum(state["tables"][t].row_count
                                              for t in cand.plan.table_names())
        return wrong


class PlanStream(_Workload):
    """Seeded stream of suite-schema queries, planned and placed on one
    persistent fabric, never executed: frontend, planner and fabric only."""

    name = "plan_stream"
    scale = 1.0
    setups = 9
    stream_length = 2000

    def __init__(self, repo_root: Path, seed: int, scale: float):
        super().__init__(repo_root, seed, scale)
        self.stream = inputs.query_stream(repo_root, seed, self.stream_length)

    def setup(self, work: Path):
        suite_dir = inputs.write_suite(self.repo_root, work / "suite", self.seed, self.scale)
        sqf.suite.materialize(suite_dir, force=True)
        manifest = json.loads((suite_dir / "manifest.json").read_text(encoding="utf-8"))
        tables = _load_tables(suite_dir)
        device = sqf.load_device_profile(manifest["device"])
        return {
            "catalog": {name: t.schema for name, t in tables.items()},
            "stats": {name: sqf.table_stats(t) for name, t in tables.items()},
            "library": sqf.load_library(manifest["library"]),
            "device": device,
            "fabric": sqf.FabricState(device),
        }

    def items(self, state):
        return range(len(self.stream))

    def op(self, state, item):
        bound = sqf.bind(sqf.parse_query(self.stream[item]["sql"]), state["catalog"])
        cands = sqf.enumerate_pipelines(bound, state["library"], state["device"])
        best, _ = sqf.select_best(cands, state["stats"], state["device"])
        fabric = state["fabric"]
        placement = sqf.allocate(fabric, best.modules)
        report = sqf.reconfigure(fabric, placement)
        sqf.release(fabric, placement)
        return best.tag, len(placement.entries), report.skipped_entries

    def verify(self, state, seen, result):
        wrong = entries = skipped = 0
        for values in seen.values():
            if len({tag for tag, _, _ in values}) != 1:
                wrong += sum(values.values())
            for (_, n_entries, n_skipped), count in values.items():
                entries += count * n_entries
                skipped += count * n_skipped
        fabric = state["fabric"]
        try:
            fabric.check_invariants()
            consistent = not fabric.placements
        except AssertionError:
            consistent = False
        result.checks["fabric consistent, every placement released"] = consistent
        n = len(self.stream)
        result.notes["join share"] = sum(q["join"] for q in self.stream) / n
        for select in ("grouped", "aggregate", "star"):
            result.notes[f"{select} share"] = sum(q["select"] == select
                                                  for q in self.stream) / n
        result.notes["ordered share"] = sum(q["ordered"] for q in self.stream) / n
        result.notes["residency hit ratio"] = skipped / entries if entries else 0.0
        return wrong


WORKLOADS = {w.name: w for w in (SuiteBench, ExecSF8, PlanStream)}


# --------------------------------------------------------------------------
# harness
# --------------------------------------------------------------------------

def _measure(wl, state, seconds, result, seen, first_op=0, min_ops=0, tracer=None,
             clock=None):
    """Operations `first_op`, `first_op + 1`, ... cycling through the items,
    until `seconds` have elapsed and at least `min_ops` have run. Returns the
    number of operations run.

    With a `clock`, latencies are in reference seconds and the raw ones go to
    `raw_latencies`; without, they are raw. What an operation returns is
    tallied in `seen[item index]`, and its latency kept as a float in an
    array, so the harness's own memory hardly grows with the number of
    operations and does not skew peak RSS.
    """
    items = wl.items(state)
    op = wl.op if tracer is None else tracer.wrap("harness.op", wl.op)
    started = perf_counter()
    k = 0
    while k < min_ops or perf_counter() - started < seconds:
        i = (first_op + k) % len(items)
        if tracer is not None:
            tracer.op = f"op{first_op + k}"
        mark = clock.mark() if clock else perf_counter()
        try:
            value = op(state, items[i])
        except Exception:  # one failed operation must not end the run
            if result.failed == 0:
                traceback.print_exc(file=sys.stderr)
            result.failed += 1
            value = None
        if clock:
            raw, latency = clock.since(mark)
            result.raw_latencies.setdefault(i, array("d")).append(raw)
        else:
            latency = perf_counter() - mark
        result.latencies.setdefault(i, array("d")).append(latency)
        if value is not None:
            seen.setdefault(i, Counter())[value] += 1
        if tracer is not None:
            result.op_walls[tracer.op] = latency
        k += 1
    result.attempted += k
    return k


def pass_wall(latencies) -> float:
    """Seconds for one pass: the sum of each operation's median."""
    return sum(statistics.median(lat) for lat in latencies.values())


def _finish(wl, state, seen, result, repo_root, work) -> int:
    """Check every operation's output outside the timed region; returns the
    number of operations whose output was wrong."""
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wrong = wl.verify(state, seen, result)
    result.failed += wrong
    result.checks["SF 1 generator matches python -m sqf.suite"] = (
        inputs.generator_matches_shipped(repo_root, work / "generator"))
    return wrong


def _workload(name, repo_root, seed, scale):
    cls = WORKLOADS[name]
    return cls(repo_root, seed, cls.scale if scale is None else scale)


def run(name: str, repo_root: Path, work: Path, seed: int, seconds: float,
        scale: float | None = None) -> Result:
    """An untraced run: the end-to-end metrics, timed on a `SpeedClock`.

    Round r measures until the rounds so far have measured r/setups of
    `seconds`; a round whose share an earlier long operation already used
    up only sets up. The state is dropped before each set-up, so peak RSS
    holds one state, not two.
    """
    wl = _workload(name, repo_root, seed, scale)
    result, seen = Result(), {}
    ops = 0
    measured = 0.0
    with hostspeed.SpeedClock() as clock:
        for r in range(1, wl.setups + 1):
            state = None
            gc.collect()
            mark = clock.mark()
            state = wl.setup(work / "setup")
            raw, ref = clock.since(mark)
            result.raw_setup_s.append(raw)
            result.setup_s.append(ref)
            t0 = perf_counter()
            rest_of_pass = len(wl.items(state)) - ops if r == wl.setups else 0
            ops += _measure(wl, state, seconds * r / wl.setups - measured, result, seen,
                            first_op=ops, min_ops=rest_of_pass, clock=clock)
            measured += perf_counter() - t0
    result.host_speed = clock.mean_factor()
    _finish(wl, state, seen, result, repo_root, work)
    return result


def run_traced(name: str, repo_root: Path, work: Path, seed: int, seconds: float,
               scale: float | None = None):
    """A traced run: one traced set-up, then whole passes alternating
    untraced and traced until `seconds` have elapsed (at least one of each),
    then traced verification.

    The per-layer metrics cover the set-up and the first traced pass, so
    counts and simulated fingerprints repeat exactly for a seed. Alternating
    keeps the host's drift out of the tracing overhead, which compares the
    traced passes with the untraced ones.
    Returns (traced result, untraced result, tracer).
    """
    wl = _workload(name, repo_root, seed, scale)
    targets = tracing.CLI_TARGETS if name == "suite_bench" else tracing.API_TARGETS
    tracer = tracing.Tracer()
    result, untraced = Result(), Result()

    with tracing.patched(tracer, targets):
        tracer.op = "setup"
        t0 = perf_counter()
        state = tracer.wrap("harness.setup", wl.setup)(work / "setup")
        result.setup_s.append(perf_counter() - t0)

    seen = {}
    ops = 0
    started = perf_counter()
    n = len(wl.items(state))
    while ops < 2 * n or perf_counter() - started < seconds:
        if ops // n % 2 == 0:
            ops += _measure(wl, state, 0, untraced, seen, ops, n)
        else:
            with tracing.patched(tracer, targets):
                ops += _measure(wl, state, 0, result, seen, ops, n, tracer=tracer)
    with tracing.patched(tracer, targets):
        tracer.op = "verify"
        result.failed += untraced.failed
        result.attempted += untraced.attempted
        wrong = _finish(wl, state, seen, result, repo_root, work)

    first_pass = {f"op{k}" for k in range(n, 2 * n)}
    result.layers = tracing.layer_metrics(tracer.spans, "setup", first_pass, "verify",
                                          tracer.missing, wrong)
    result.layers["trace.overhead_s"] = (pass_wall(result.latencies)
                                         - pass_wall(untraced.latencies))
    result.missing = sorted(tracer.missing)
    return result, untraced, tracer
