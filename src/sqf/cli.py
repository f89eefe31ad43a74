"""Command-line driver: run or explain queries, benchmark the shipped suite.

All three commands share one path: a session loads the profiles once and
each table (with its stats) on first use; a query is read, parsed, bound,
enumerated and priced once; the chosen candidate is placed on a fresh fabric
and run. In `bench`, the rows of one query that choose the same candidate
share its one run, checksum and software baseline.

Reports are JSON with stable key order and floats printed with 9 significant
digits, written by `json.dumps(indent=2)`; everything outside the `meta`
section but a bench row's `measured_wall_seconds` is byte-deterministic for
a fixed --seed. `SQF_LOG=debug|info|warn` controls diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

from .engine.exec import execute_pipeline, result_checksum
from .errors import NoCandidates, SqfError
from .fabric import FabricState, allocate, load_device_profile, reconfigure
from .frontend import bind, parse_query
from .library import load_library
from .planner import (
    JOIN_ALGO_CODESIGN,
    JOIN_ALGO_HASH,
    JOIN_ALGO_MERGE,
    codesign_blockers,
    enumerate_pipelines,
    rank,
    software_baseline,
)
from .relcore import load_csv, table_stats

log = logging.getLogger("sqf")

_JOIN_FILTER = {
    "hash": JOIN_ALGO_HASH,
    "merge": JOIN_ALGO_MERGE,
    "codesign": JOIN_ALGO_CODESIGN,
}

BENCH_STRATEGIES = ("auto", *_JOIN_FILTER)


def _setup_logging():
    level = {"debug": logging.DEBUG, "info": logging.INFO, "warn": logging.WARNING}.get(
        os.environ.get("SQF_LOG", "warn").lower(), logging.WARNING
    )
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _round9(value):
    """Limit floats to 9 significant digits, recursively, for stable reports."""
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {k: _round9(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round9(v) for v in value]
    return value


def _write_report(path, report: dict):
    text = json.dumps(_round9(report), indent=2) + "\n"
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SqfError(f"cannot write report {path}: {exc.strerror or exc}") from None


def _read_query(path) -> str:
    """The query file's text. A file that cannot be read (a directory, a
    symlink loop) or decoded is an SqfError; a missing one stays
    FileNotFoundError."""
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except FileNotFoundError:
        raise
    except (OSError, UnicodeError) as exc:
        raise SqfError(f"cannot read query file {path}: {exc}") from None


@dataclass
class _Planned:
    """One query parsed, bound, enumerated and priced, with the tables it reads."""

    text: str
    bound: object
    paths: dict
    tables: dict
    stats: dict
    candidates: list
    ranked: list  # every (candidate, estimate), in selection order
    session: _Session

    def choose(self, layout: str, join: str) -> tuple:
        """The best-ranked (candidate, estimate) that --layout/--join leave.
        If none is left, the error names each planner rule that ruled the
        forced layout or join out."""
        for cand, est in self.ranked:
            if (layout == "auto" or cand.layout == layout) and (
                    join == "auto" or cand.join_algo == _JOIN_FILTER[join]):
                return cand, est
        rules = []
        if layout == "column" and all(c.layout != "column" for c in self.candidates):
            rules.append("column layout needs a query that touches at most half"
                         " of its tables' columns")
        if join != "auto" and not self.bound.has_join:
            rules.append("the query has no join")
        elif join == "codesign":
            blockers = codesign_blockers(self.bound, self.session.library, self.session.device)
            rules += blockers
            if not blockers and layout == "column":
                rules.append("co-design is offered in row layout only")
        reason = f"no candidates left after --layout={layout} --join={join}"
        raise NoCandidates(reason + (f" ({'; '.join(rules)})" if rules else ""))

    def estimates(self) -> list:
        """Every enumerated candidate with its estimate, in enumeration order
        (--layout/--join only narrow what may be chosen, not what reports show)."""
        est_of = {id(cand): est for cand, est in self.ranked}
        return [(cand, est_of[id(cand)]) for cand in self.candidates]


class _Session:
    """What one command loads once: the library and device profile, and each
    table with its stats on first use. A table that fails to load is not kept."""

    def __init__(self, tables_dir, library_path, device_path):
        self.tables_dir = Path(tables_dir)
        self.library = load_library(library_path)
        self.device = load_device_profile(device_path)
        self._tables = {}  # file stem -> (path, Table, ColumnStats)
        self._stems = {}  # lower-case stem -> the `*.csv` stems that lower to it
        for path in sorted(self.tables_dir.glob("*.csv")):
            self._stems.setdefault(path.stem.lower(), []).append(path.stem)

    def _table(self, name: str):
        """(stem, (path, Table, ColumnStats)) of the `<stem>.csv` whose stem is
        `name` ignoring case; the plan and the report name the table `stem`."""
        stems = self._stems.get(name.lower(), [name])
        if len(stems) > 1:
            raise SqfError(f"table {name} matches more than one file: "
                           + ", ".join(str(self.tables_dir / f"{s}.csv") for s in stems))
        stem = stems[0]
        if stem not in self._tables:
            path = self.tables_dir / f"{stem}.csv"
            table = load_csv(path)
            self._tables[stem] = (str(path), table, table_stats(table))
        return stem, self._tables[stem]

    def plan(self, text: str, parsed=None) -> _Planned:
        """Bind, enumerate and rank `text`, parsing it unless `parsed` is its parse."""
        if parsed is None:
            parsed = parse_query(text)
        names = [parsed.source] + ([parsed.join.table] if parsed.join else [])
        entries = dict(self._table(name) for name in names)
        tables = {name: table for name, (_, table, _) in entries.items()}
        bound = bind(parsed, {name: t.schema for name, t in tables.items()})
        stats = {name: stats for name, (_, _, stats) in entries.items()}
        candidates = enumerate_pipelines(bound, self.library, self.device)
        return _Planned(
            text=text,
            bound=bound,
            paths={name: path for name, (path, _, _) in entries.items()},
            tables=tables,
            stats=stats,
            candidates=candidates,
            ranked=rank(candidates, stats, self.device),
            session=self,
        )

    def run(self, planned: _Planned, chosen, est, seed: int):
        """Place a chosen candidate on a fresh fabric and execute it:
        (placement, reconfig, result, exec report)."""
        log.info("chosen candidate: %s", chosen.tag)
        fabric = FabricState(self.device)
        placement = allocate(fabric, chosen.modules)
        reconfig = reconfigure(fabric, placement)
        result, exec_report = execute_pipeline(
            chosen, planned.tables, fabric, placement, self.device,
            seed=seed, estimate=est,
        )
        return placement, reconfig, result, exec_report


def _candidate_dict(cand, est) -> dict:
    return {
        "tag": cand.tag,
        "join_algo": cand.join_algo,
        "layout": cand.layout,
        "host_stage": cand.host_stage,
        "modules": [
            {
                "kind": m.kind.value,
                "params": dict(m.params),
                "slots": m.slots,
                "bitstream_bytes": m.bitstream_bytes,
            }
            for m in cand.modules
        ],
        "slots": sum(m.slots for m in cand.modules),
        "estimate": asdict(est),
    }


def cmd_run(args) -> int:
    started = time.perf_counter()
    session = _Session(args.tables, args.library, args.device)
    planned = session.plan(_read_query(args.query))
    chosen, est = planned.choose(args.layout, args.join)
    placement, reconfig, result, exec_report = session.run(planned, chosen, est, args.seed)

    # oracle_checked is true only when the check ran AND the results match:
    # the same multiset and, with ORDER BY, the same sequence of ORDER BY
    # keys (tied rows may come in any order). A failed check still records
    # oracle_match/first_diff and exits 2.
    oracle_match = None
    first_diff = None
    if args.oracle:
        from . import oracle

        expected = oracle.reference_execute(planned.bound, planned.tables)
        diff = oracle.first_multiset_diff(result, expected)
        if diff is not None:
            first_diff = {
                "row": list(diff[0]),
                "engine_count": diff[1],
                "oracle_count": diff[2],
            }
        else:
            keys = [i for i, _ in planned.bound.order_by]
            diff = oracle.first_order_diff(result, expected, keys)
            if diff is not None:
                first_diff = {
                    "position": diff[0],
                    "engine_key": list(diff[1]),
                    "oracle_key": list(diff[2]),
                }
        oracle_match = first_diff is None

    report = {
        "meta": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "wall_seconds": time.perf_counter() - started,
            "exec_wall_seconds": exec_report.wall_seconds,
        },
        "seed": args.seed,
        "query": planned.text,
        "tables": {
            name: {"path": planned.paths[name], "rows": t.row_count}
            for name, t in planned.tables.items()
        },
        "chosen": chosen.tag,
        "candidates": [_candidate_dict(c, e) for c, e in planned.estimates()],
        "placement": {
            "region": placement.region,
            "entries": [
                {"kind": e.instance.kind.value, "start": e.start, "stop": e.stop}
                for e in placement.entries
            ],
        },
        "reconfig": asdict(reconfig),
        "execution": {
            "result_rows": exec_report.result_rows,
            "checksum": f"0x{result_checksum(result):016x}",
            "order": "specified" if exec_report.order_specified else "unspecified",
            "simulated_seconds": exec_report.simulated_seconds,
            "bloom_false_positives": exec_report.bloom_false_positives,
            "stages": [
                {
                    "name": s.name,
                    "input": s.input_count,
                    "output": s.output_count,
                    "selectivity": s.selectivity,
                }
                for s in exec_report.stages
            ],
        },
        "oracle_checked": bool(oracle_match),
        "oracle_match": oracle_match,
        "first_diff": first_diff,
    }
    if args.out:
        _write_report(args.out, report)
    if oracle_match is False:
        print("oracle mismatch: engine and reference results differ", file=sys.stderr)
        return 2
    return 0


def cmd_explain(args) -> int:
    session = _Session(args.tables, args.library, args.device)
    planned = session.plan(_read_query(args.query))
    pairs = planned.estimates()
    chosen, _ = planned.choose(args.layout, args.join)

    header = f"{'':2}{'tag':<22}{'slots':>6}{'total_s':>14}{'energy_j':>14}{'reconfig_s':>14}"
    print(header)
    for cand, est in pairs:
        mark = "*" if cand.tag == chosen.tag else " "
        print(
            f"{mark:2}{cand.tag:<22}{sum(m.slots for m in cand.modules):>6}"
            f"{est.total_seconds:>14.6g}{est.energy_joules:>14.6g}"
            f"{est.reconfig_seconds:>14.6g}"
        )
    if args.out:
        report = {
            "query": planned.text,
            "chosen": chosen.tag,
            "candidates": [_candidate_dict(c, e) for c, e in pairs],
        }
        _write_report(args.out, report)
    return 0


def _bench_fields(session, planned, chosen, est, seed, baseline_dev) -> dict:
    """A bench row's fields for one run of the chosen candidate."""
    started = time.perf_counter()
    _, _, result, exec_report = session.run(planned, chosen, est, seed)
    wall = time.perf_counter() - started
    base_seconds, base_joules = software_baseline(chosen, est, planned.stats, baseline_dev)
    return {
        "chosen": chosen.tag,
        "estimated_total_seconds": est.total_seconds,
        "estimated_energy_joules": est.energy_joules,
        "reconfig_seconds": est.reconfig_seconds,
        "overhead_fraction": est.reconfig_seconds / est.total_seconds
        if est.total_seconds > 0
        else 0.0,
        "measured_wall_seconds": wall,
        "result_rows": exec_report.result_rows,
        "checksum": f"0x{result_checksum(result):016x}",
        "baseline_seconds": base_seconds,
        "baseline_energy_joules": base_joules,
        "energy_ratio_vs_baseline": base_joules / est.energy_joules
        if est.energy_joules > 0
        else None,
    }


def cmd_bench(args) -> int:
    from . import suite as suite_mod

    suite_dir = Path(args.suite)
    manifest = suite_mod.load_manifest(suite_dir)
    suite_mod.materialize(suite_dir)
    session = _Session(suite_dir / manifest["tables_dir"],
                       suite_dir / manifest["library"], suite_dir / manifest["device"])
    baseline_dev = load_device_profile(suite_dir / manifest["baseline_device"])

    rows = []
    for query_name in manifest["queries"]:
        # a query that does not parse fails every row; one that parses but
        # cannot be planned fails only the rows its join makes applicable
        parsed = planned = error = None
        try:
            text = _read_query(suite_dir / query_name)
            parsed = parse_query(text)
            planned = session.plan(text, parsed)
        except (SqfError, FileNotFoundError) as exc:
            error = exc
        runs = {}  # id(chosen candidate) -> its run's row fields, or what the run raised
        for strategy in BENCH_STRATEGIES:
            row = {"query": query_name, "strategy": strategy, "status": "ok"}
            rows.append(row)
            if strategy != "auto" and parsed is not None and parsed.join is None:
                row["status"] = "not_applicable"
                continue
            try:
                if error is not None:
                    raise error
                chosen, est = planned.choose("auto", strategy)
                fields = runs.get(id(chosen))
                if fields is None:
                    try:
                        fields = _bench_fields(session, planned, chosen, est, args.seed,
                                               baseline_dev)
                    except (SqfError, FileNotFoundError) as exc:
                        fields = exc
                    runs[id(chosen)] = fields
                if isinstance(fields, Exception):
                    raise fields
                row.update(fields)
            except (SqfError, FileNotFoundError) as exc:
                row.update(status=type(exc).__name__, detail=str(exc))

    ok_rows = [r for r in rows if r["status"] == "ok"]
    failures = sum(1 for r in rows if "detail" in r)
    over = [r for r in ok_rows
            if r["overhead_fraction"] > manifest["max_overhead_fraction"]]
    report = {
        "meta": {"timestamp": datetime.now(timezone.utc).isoformat()},
        "suite": str(suite_dir),
        "seed": args.seed,
        "strategies": list(BENCH_STRATEGIES),
        "max_overhead_fraction": manifest["max_overhead_fraction"],
        "rows": rows,
        "summary": {
            "pairs": len(manifest["queries"]),
            "rows": len(rows),
            "ok": len(ok_rows),
            "failed": failures,
            "overhead_violations": len(over),
        },
    }
    _write_report(args.out, report)
    print(
        f"bench: {len(ok_rows)}/{len(rows)} rows ok, "
        f"{failures} recorded failures, {len(over)} overhead violations "
        f"-> {args.out}"
    )
    return 0


def _add_common(p: argparse.ArgumentParser, out_required: bool):
    p.add_argument("--query", required=True, help="query file (one statement)")
    p.add_argument("--tables", required=True, help="directory of <table>.csv files")
    p.add_argument("--library", required=True, help="module library JSON")
    p.add_argument("--device", required=True, help="device profile JSON")
    p.add_argument("--out", required=out_required, default=None, help="report JSON path")
    p.add_argument("--layout", choices=["row", "column", "auto"], default="auto")
    p.add_argument("--join", choices=[*_JOIN_FILTER, "auto"], default="auto")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqf",
        description="Compile SQL to reconfigurable operator pipelines, "
        "estimate costs, and execute on a modeled fabric.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="plan, place, execute, and report")
    _add_common(run, out_required=True)
    run.add_argument("--seed", type=int, default=0, help="bloom filter seed, in [0, 2^64)")
    run.add_argument("--oracle", action="store_true",
                     help="verify the result against the reference evaluator")
    run.set_defaults(fn=cmd_run)

    explain = sub.add_parser("explain", help="show candidates without executing")
    _add_common(explain, out_required=False)
    explain.set_defaults(fn=cmd_explain)

    bench = sub.add_parser("bench", help="run the query suite under every strategy")
    bench.add_argument("--suite", required=True, help="suite directory with manifest.json")
    bench.add_argument("--out", default="bench_report.json")
    bench.add_argument("--seed", type=int, default=0, help="bloom filter seed, in [0, 2^64)")
    bench.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        if not 0 <= getattr(args, "seed", 0) < 1 << 64:
            raise SqfError(f"--seed must be in [0, 2^64), got {args.seed}")
        return args.fn(args)
    except (SqfError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
