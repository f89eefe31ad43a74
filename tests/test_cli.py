from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import REPO
from sqf import suite as suite_mod
from sqf.cli import main

LIB = str(REPO / "library.default.json")
DEV = str(REPO / "device.default.json")


def _write_tables(tmp_path):
    tables = tmp_path / "tables"
    tables.mkdir()
    (tables / "t.csv").write_text(
        "a:INT,b:INT,s:CHAR(2)\n" + "".join(f"{i},{i*3%17},{'ab' if i%2 else 'cd'}\n"
                                            for i in range(50))
    )
    (tables / "u.csv").write_text(
        "c:INT,d:INT\n" + "".join(f"{i%9},{i}\n" for i in range(30))
    )
    return tables


def _query(tmp_path, text):
    path = tmp_path / "q.sql"
    path.write_text(text + "\n")
    return str(path)


def test_run_with_oracle_exit_0(tmp_path, capsys):
    tables = _write_tables(tmp_path)
    out = tmp_path / "report.json"
    rc = main([
        "run", "--query", _query(tmp_path, "SELECT a, b FROM t WHERE a > 10"),
        "--tables", str(tables), "--library", LIB, "--device", DEV,
        "--out", str(out), "--seed", "3", "--oracle",
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["oracle_checked"] is True
    assert report["oracle_match"] is True
    assert report["execution"]["result_rows"] == 39
    assert report["chosen"] in {c["tag"] for c in report["candidates"]}
    assert report["placement"]["entries"]
    assert report["execution"]["checksum"].startswith("0x")


def test_run_missing_table_names_path(tmp_path, capsys):
    tables = _write_tables(tmp_path)
    rc = main([
        "run", "--query", _query(tmp_path, "SELECT a FROM missing"),
        "--tables", str(tables), "--library", LIB, "--device", DEV,
        "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "missing.csv" in err


def test_run_forced_join_without_join_is_no_candidates(tmp_path, capsys):
    tables = _write_tables(tmp_path)
    rc = main([
        "run", "--query", _query(tmp_path, "SELECT a FROM t"),
        "--tables", str(tables), "--library", LIB, "--device", DEV,
        "--out", str(tmp_path / "r.json"), "--join", "merge",
    ])
    assert rc == 1
    assert "no candidates" in capsys.readouterr().err


def test_run_self_join_is_a_bind_error(tmp_path, capsys):
    tables = _write_tables(tmp_path)
    rc = main([
        "run", "--query", _query(tmp_path, "SELECT a FROM t JOIN t ON t.a = t.a"),
        "--tables", str(tables), "--library", LIB, "--device", DEV,
        "--out", str(tmp_path / "r.json"),
    ])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert err == "error: FROM: self-joins are not supported\n"


@pytest.mark.parametrize("query, reason", [
    ("q09.sql", " (co-design records wider than the 32 B cache line: orders 45 B, "
                "customers 34 B)"),
    # no join: the query, not a record, is to blame
    pytest.param("q01.sql", " (the query has no join)", id="q01.sql-"),
])
def test_forced_codesign_names_records_wider_than_the_cache_line(
        suite_dir, tmp_path, capsys, query, reason):
    device = json.loads((REPO / "device.default.json").read_text())
    device["cache_line_bytes"] = 32
    (tmp_path / "device.json").write_text(json.dumps(device))
    rc = main(["explain", "--query", str(suite_dir / query),
               "--tables", str(suite_dir / "tables"), "--library", LIB,
               "--device", str(tmp_path / "device.json"), "--join", "codesign"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: no candidates left after --layout=auto --join=codesign" + reason + "\n")


def test_forced_codesign_names_the_filter_kind_the_library_lacks(suite_dir, tmp_path, capsys):
    """A library without BLOOM_CASCADE loads, offers no co-design variant,
    and a forced co-design run says which module is missing."""
    specs = [s for s in json.loads((REPO / "library.default.json").read_text())
             if s["kind"] != "BLOOM_CASCADE"]
    (tmp_path / "library.json").write_text(json.dumps(specs))
    rc = main(["run", "--query", str(suite_dir / "q09.sql"),
               "--tables", str(suite_dir / "tables"), "--library", str(tmp_path / "library.json"),
               "--device", DEV, "--out", str(tmp_path / "r.json"), "--join", "codesign"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: no candidates left after --layout=auto --join=codesign"
        " (the library has no BLOOM_CASCADE module)\n")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("query, flags, reason", [
    # q07 has a row-layout co-design candidate, and co-design is row-only
    ("q07.sql", ["--layout", "column", "--join", "codesign"],
     " (co-design is offered in row layout only)"),
    # q09 touches more than half of its tables' columns
    ("q09.sql", ["--layout", "column"],
     " (column layout needs a query that touches at most half of its tables' columns)"),
    ("q09.sql", ["--layout", "column", "--join", "codesign"],
     " (column layout needs a query that touches at most half of its tables' columns;"
     " co-design is offered in row layout only)"),
    # q01 has no join to force
    ("q01.sql", ["--layout", "auto", "--join", "hash"], " (the query has no join)"),
])
def test_forced_layout_names_the_rule_that_leaves_no_candidate(
        suite_dir, tmp_path, capsys, query, flags, reason):
    rc = main(["explain", "--query", str(suite_dir / query),
               "--tables", str(suite_dir / "tables"), "--library", LIB, "--device", DEV,
               *flags])
    assert rc == 1
    layout, join = flags[1], flags[3] if len(flags) > 2 else "auto"
    assert capsys.readouterr().err == (
        f"error: no candidates left after --layout={layout} --join={join}" + reason + "\n")


def _run_oracle_on(tmp_path, monkeypatch, sql, reshape):
    """(exit code, report) of `sqf run --oracle` on `sql` when the engine's
    result rows are replaced by `reshape(rows)`."""
    from dataclasses import replace

    import sqf.cli as cli_mod
    from sqf.relcore import Table

    tables = _write_tables(tmp_path)
    real = cli_mod.execute_pipeline

    def reshaped(c, tables_, fabric, placement, dev, seed=0, estimate=None):
        table, report = real(c, tables_, fabric, placement, dev, seed=seed,
                             estimate=estimate)
        wrong = Table.from_rows(table.schema, reshape(list(table.rows)))
        return wrong, replace(report, result_rows=wrong.row_count)

    monkeypatch.setattr(cli_mod, "execute_pipeline", reshaped)
    out = tmp_path / "r.json"
    rc = main([
        "run", "--query", _query(tmp_path, sql),
        "--tables", str(tables), "--library", LIB, "--device", DEV,
        "--out", str(out), "--oracle",
    ])
    return rc, json.loads(out.read_text())


def test_run_exit_2_on_oracle_mismatch(tmp_path, monkeypatch, capsys):
    # force a wrong result to exercise the mismatch path
    rc, report = _run_oracle_on(tmp_path, monkeypatch, "SELECT a FROM t WHERE a > 40",
                                lambda rows: rows[:-1])
    assert rc == 2
    assert report["oracle_checked"] is False  # did not check out
    assert report["oracle_match"] is False
    assert report["first_diff"] is not None


def test_run_exit_2_on_rows_out_of_order(tmp_path, monkeypatch, capsys):
    """The right rows in the wrong ORDER BY order are a mismatch, and
    first_diff names the first position whose keys differ."""
    rc, report = _run_oracle_on(tmp_path, monkeypatch,
                                "SELECT a, b FROM t WHERE a > 40 ORDER BY a",
                                lambda rows: rows[::-1])
    assert rc == 2
    assert report["oracle_checked"] is False
    assert report["oracle_match"] is False
    assert report["first_diff"] == {"position": 0, "engine_key": [49], "oracle_key": [41]}
    assert "oracle mismatch" in capsys.readouterr().err


def test_run_accepts_tied_rows_in_any_order(tmp_path, monkeypatch):
    """Rows with equal ORDER BY keys may come in any order."""
    def swap_first_two(rows):
        assert rows[0][1] == rows[1][1] and rows[0] != rows[1]
        return [rows[1], rows[0]] + rows[2:]

    rc, report = _run_oracle_on(tmp_path, monkeypatch, "SELECT a, s FROM t ORDER BY s",
                                swap_first_two)
    assert rc == 0
    assert report["oracle_checked"] is True
    assert report["first_diff"] is None


def test_explain_marks_exactly_one_winner(tmp_path, capsys):
    tables = _write_tables(tmp_path)
    rc = main([
        "explain",
        "--query", _query(
            tmp_path, "SELECT t.a, u.d FROM t JOIN u ON t.a = u.c WHERE u.d > 3"
        ),
        "--tables", str(tables), "--library", LIB, "--device", DEV,
    ])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    candidate_lines = lines[1:]
    assert len(candidate_lines) >= 3
    assert sum(1 for l in candidate_lines if l.startswith("*")) == 1


def test_explain_passthrough_single_candidate(tmp_path, capsys):
    tables = _write_tables(tmp_path)
    rc = main([
        "explain", "--query", _query(tmp_path, "SELECT * FROM t"),
        "--tables", str(tables), "--library", LIB, "--device", DEV,
    ])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 2  # header + one candidate
    assert "none" in lines[1]


def test_explain_syntax_error_position(tmp_path, capsys):
    tables = _write_tables(tmp_path)
    rc = main([
        "explain", "--query", _query(tmp_path, "SELECT * FROM"),
        "--tables", str(tables), "--library", LIB, "--device", DEV,
    ])
    assert rc == 1
    assert "position" in capsys.readouterr().err


def _mini_suite(tmp_path, break_one=False):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "q1.sql").write_text("SELECT a, b FROM items WHERE a > 100\n")
    (suite / "q2.sql").write_text(
        "SELECT items.a, dims.y FROM items JOIN dims ON items.b = dims.x\n"
    )
    if break_one:
        (suite / "q2.sql").write_text("SELECT FROM nothing\n")
    manifest = {
        "seed": 5,
        "max_overhead_fraction": 0.5,
        "tables_dir": "tables",
        "library": LIB,
        "device": DEV,
        "baseline_device": str(REPO / "device.baseline.json"),
        "queries": ["q1.sql", "q2.sql"],
        "tables": {
            "items": {
                "rows": 400,
                "columns": [
                    {"name": "a", "type": "INT", "gen": {"kind": "randint", "lo": 0, "hi": 999}},
                    {"name": "b", "type": "INT", "gen": {"kind": "randint", "lo": 0, "hi": 20}},
                ],
            },
            "dims": {
                "rows": 40,
                "columns": [
                    {"name": "x", "type": "INT", "gen": {"kind": "serial", "start": 0}},
                    {"name": "y", "type": "INT", "gen": {"kind": "randint", "lo": 0, "hi": 9}},
                ],
            },
        },
    }
    (suite / "manifest.json").write_text(json.dumps(manifest))
    return suite


def test_bench_row_contract(tmp_path):
    suite = _mini_suite(tmp_path)
    out = tmp_path / "bench.json"
    rc = main(["bench", "--suite", str(suite), "--out", str(out), "--seed", "3"])
    assert rc == 0
    report = json.loads(out.read_text())
    assert len(report["rows"]) == 2 * len(report["strategies"])
    ok = [r for r in report["rows"] if r["status"] == "ok"]
    assert ok, "at least the auto rows should succeed"
    for row in ok:
        assert "overhead_fraction" in row and "measured_wall_seconds" in row
        assert row["energy_ratio_vs_baseline"] > 0


def test_bench_continues_past_failures(tmp_path):
    suite = _mini_suite(tmp_path, break_one=True)
    out = tmp_path / "bench.json"
    rc = main(["bench", "--suite", str(suite), "--out", str(out)])
    assert rc == 0  # failures recorded, not fatal
    report = json.loads(out.read_text())
    statuses = {r["query"]: r["status"] for r in report["rows"] if r["strategy"] == "auto"}
    assert statuses["q1.sql"] == "ok"
    assert statuses["q2.sql"] != "ok"
    assert report["summary"]["failed"] >= 1


def _strip_meta(path):
    report = json.loads(path.read_text())
    report.pop("meta")
    return json.dumps(report, sort_keys=True)


def test_reports_deterministic_given_seed(tmp_path):
    tables = _write_tables(tmp_path)
    q = _query(tmp_path, "SELECT t.a, u.d FROM t JOIN u ON t.a = u.c ORDER BY a")
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        rc = main([
            "run", "--query", q, "--tables", str(tables),
            "--library", LIB, "--device", DEV, "--out", str(out), "--seed", "7",
        ])
        assert rc == 0
        outs.append(_strip_meta(out))
    assert outs[0] == outs[1]


def test_layout_filter(tmp_path):
    tables = _write_tables(tmp_path)
    out = tmp_path / "r.json"
    rc = main([
        "run", "--query", _query(tmp_path, "SELECT a FROM t WHERE a > 3"),
        "--tables", str(tables), "--library", LIB, "--device", DEV,
        "--out", str(out), "--layout", "column",
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    # selection is restricted to the forced layout; the report still shows
    # every enumerated candidate
    assert report["chosen"].startswith("column/")
    assert {c["layout"] for c in report["candidates"]} == {"row", "column"}


def test_cli_module_entry_point(tmp_path):
    import subprocess
    import sys

    tables = _write_tables(tmp_path)
    out = tmp_path / "r.json"
    result = subprocess.run(
        [
            sys.executable, "-m", "sqf.cli", "run",
            "--query", _query(tmp_path, "SELECT a FROM t WHERE a > 25"),
            "--tables", str(tables), "--library", LIB, "--device", DEV,
            "--out", str(out), "--seed", "1", "--oracle",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(out.read_text())["oracle_checked"] is True


def test_sqf_log_controls_stderr(tmp_path):
    import os
    import subprocess
    import sys

    tables = _write_tables(tmp_path)
    env = dict(os.environ, SQF_LOG="info")
    result = subprocess.run(
        [
            sys.executable, "-m", "sqf.cli", "run",
            "--query", _query(tmp_path, "SELECT a FROM t"),
            "--tables", str(tables), "--library", LIB, "--device", DEV,
            "--out", str(tmp_path / "r.json"),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert "chosen candidate" in result.stderr


def test_explain_never_touches_a_fabric(tmp_path, monkeypatch, capsys):
    import sqf.cli as cli_mod

    def forbidden(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("explain must not allocate or reconfigure")

    monkeypatch.setattr(cli_mod, "allocate", forbidden)
    monkeypatch.setattr(cli_mod, "reconfigure", forbidden)
    tables = _write_tables(tmp_path)
    rc = main([
        "explain", "--query", _query(tmp_path, "SELECT a FROM t WHERE a > 3"),
        "--tables", str(tables), "--library", LIB, "--device", DEV,
    ])
    assert rc == 0
    assert capsys.readouterr().out.strip()


def test_bench_loads_each_table_and_profile_once(tmp_path, monkeypatch):
    from collections import Counter

    import sqf.cli as cli_mod

    calls = Counter()  # (function, argument) -> calls

    def counting(name, real):
        def wrapper(arg, *rest):
            calls[name, id(arg) if name == "table_stats" else str(arg)] += 1
            return real(arg, *rest)
        return wrapper

    for name in ("load_csv", "table_stats", "load_library", "load_device_profile"):
        monkeypatch.setattr(cli_mod, name, counting(name, getattr(cli_mod, name)))
    suite = _mini_suite(tmp_path)
    rc = main(["bench", "--suite", str(suite), "--out", str(tmp_path / "b.json")])
    assert rc == 0
    assert set(calls.values()) == {1}, calls
    # two tables (items, dims); device and baseline profiles; one library
    assert Counter(name for name, _ in calls) == {
        "load_csv": 2, "table_stats": 2, "load_device_profile": 2, "load_library": 1,
    }


def test_bench_missing_table_fails_only_its_rows(tmp_path):
    suite = _mini_suite(tmp_path)
    (suite / "q3.sql").write_text("SELECT a FROM gone\n")
    manifest = json.loads((suite / "manifest.json").read_text())
    manifest["queries"].append("q3.sql")
    (suite / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "bench.json"
    rc = main(["bench", "--suite", str(suite), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    status = {(r["query"], r["strategy"]): r["status"] for r in report["rows"]}
    assert status[("q3.sql", "auto")] == "FileNotFoundError"
    assert all(status[("q3.sql", s)] == "not_applicable"
               for s in ("hash", "merge", "codesign"))
    assert all(s in ("ok", "not_applicable")
               for (q, _), s in status.items() if q != "q3.sql")
    assert [r for r in report["rows"] if r["status"] == "FileNotFoundError"][0][
        "detail"].endswith("gone.csv")
    assert report["summary"]["failed"] == 1
    assert report["summary"]["ok"] == 5


@pytest.mark.parametrize("field", ["library", "device", "baseline_device"])
def test_bench_bad_profile_exits_1(tmp_path, capsys, field):
    """A profile the manifest names that does not load ends `bench` with one
    `error: …` line and exit 1, and writes no report."""
    suite = _mini_suite(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    manifest = json.loads((suite / "manifest.json").read_text())
    manifest[field] = str(bad)
    (suite / "manifest.json").write_text(json.dumps(manifest))
    rc = main(["bench", "--suite", str(suite), "--out", str(tmp_path / "b.json")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "b.json").exists()


def _explain_fails_cleanly(capsys, query, tables) -> str:
    rc = main(["explain", "--query", str(query), "--tables", str(tables),
               "--library", LIB, "--device", DEV])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert err.startswith("error: ")
    return err


@pytest.mark.parametrize("profile, field, value", [
    ("device", "clock_hz", float("nan")),
    ("device", "icap_bytes_per_s", float("inf")),
    pytest.param("device", "mem_bytes_per_s", 10**400, id="device-mem_bytes_per_s-1e400"),
    ("device", "clock_hz", "fast"),
    ("device", "regions", 2.7),
    ("device", "regions", True),
    ("device", "slots_per_region", 16.0),
    ("device", "cache_line_bytes", "64"),
    ("library", "max_clock_hz", float("nan")),
    ("library", "tuples_per_cycle", float("-inf")),
    ("library", "tuples_per_cycle", "1"),
    ("library", "slots_per_unit", True),
    ("library", "bitstream_bytes_per_slot", 1.5),
])
def test_bad_profile_number_is_an_error(tmp_path, capsys, profile, field, value):
    device = json.loads((REPO / "device.default.json").read_text())
    library = json.loads((REPO / "library.default.json").read_text())
    if profile == "device":
        device[field] = value
    else:
        library[0][field] = value
    (tmp_path / "device.json").write_text(json.dumps(device))
    (tmp_path / "library.json").write_text(json.dumps(library))
    tables = _write_tables(tmp_path)
    rc = main(["explain", "--query", _query(tmp_path, "SELECT a FROM t"),
               "--tables", str(tables), "--library", str(tmp_path / "library.json"),
               "--device", str(tmp_path / "device.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert err.startswith(f"error: invalid field `{field}`")


@pytest.mark.parametrize("where", ["NOT " * 5000 + "a > 1",
                                   "(" * 3000 + "a > 1" + ")" * 3000])
def test_deep_nesting_is_a_syntax_error(tmp_path, capsys, where):
    tables = _write_tables(tmp_path)
    query = _query(tmp_path, f"SELECT a FROM t WHERE {where}")
    assert "levels of nesting" in _explain_fails_cleanly(capsys, query, tables)


def test_non_utf8_query_file_is_an_error(tmp_path, capsys):
    tables = _write_tables(tmp_path)
    query = tmp_path / "q.sql"
    query.write_bytes(b"SELECT a FROM t WHERE a > \xff\n")
    assert "q.sql" in _explain_fails_cleanly(capsys, query, tables)


def test_directory_as_query_is_an_error(tmp_path, capsys):
    tables = _write_tables(tmp_path)
    assert str(tables) in _explain_fails_cleanly(capsys, tables, tables)


def _link_to_itself(path):
    """Make `path` a symlink to itself, which no open can resolve (ELOOP)."""
    path.unlink(missing_ok=True)
    path.symlink_to(path.name)


def test_self_linked_query_is_an_error(tmp_path, capsys):
    """`sqf run` on a query file that links to itself: exit 1 and one
    `error:` line naming the file."""
    tables = _write_tables(tmp_path)
    query = tmp_path / "q.sql"
    _link_to_itself(query)
    rc = main(["run", "--query", str(query), "--tables", str(tables),
               "--library", LIB, "--device", DEV, "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert err.startswith(f"error: cannot read query file {query}: ")
    assert err.count("\n") == 1


def test_non_ascii_table_byte_is_an_error(tmp_path, capsys):
    tables = _write_tables(tmp_path)
    (tables / "t.csv").write_bytes(b"a:INT,b:INT,s:CHAR(2)\n1,2,ab\n3,4,\xc3\xa9\n")
    err = _explain_fails_cleanly(capsys, _query(tmp_path, "SELECT a FROM t"), tables)
    assert "line 3, column 3" in err


def test_non_ascii_header_byte_names_its_column(tmp_path, capsys):
    tables = _write_tables(tmp_path)
    (tables / "t.csv").write_bytes(b"a:INT,b\xc3\xa9:INT\n1,2\n")
    err = _explain_fails_cleanly(capsys, _query(tmp_path, "SELECT a FROM t"), tables)
    assert "line 1, column 2" in err
    assert "`b\\xc3\\xa9:INT`" in err


def test_crlf_table_is_an_error(tmp_path, capsys):
    tables = _write_tables(tmp_path)
    (tables / "t.csv").write_bytes(b"a:INT,b:INT,s:CHAR(2)\r\n1,2,ab\r\n")
    rc = main(["run", "--query", _query(tmp_path, "SELECT a FROM t"),
               "--tables", str(tables), "--library", LIB, "--device", DEV,
               "--out", str(tmp_path / "r.json"), "--oracle"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert err.startswith("error: ") and "line 1, column 3" in err


@pytest.mark.parametrize("table, query, named", [
    (b"a:INT,b:INT\n1,2\n3,x\n", "SELECT a FROM t", "line 3, column 2"),
    (b"a:INT\n1\n", "SELECT a FROM t WHERE a = ²", "position 26"),
], ids=["bad-int-cell", "non-ascii-digit"])
def test_run_on_bad_input_is_an_error(tmp_path, capsys, table, query, named):
    """`sqf run` on an INT cell `x` on line 3, column 2, and on a query with
    a superscript digit: exit 1, one `error:` line naming the fault."""
    (tmp_path / "t.csv").write_bytes(table)
    (tmp_path / "q.sql").write_bytes(query.encode("utf-8") + b"\n")
    rc = main(["run", "--query", str(tmp_path / "q.sql"), "--tables", str(tmp_path),
               "--library", LIB, "--device", DEV, "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert err.startswith("error: ") and named in err


def test_bench_unreadable_query_is_a_failed_row(tmp_path):
    """A query file that is not UTF-8, or that links to itself, fails only
    its own rows."""
    unreadable = {"not-utf8": lambda path: path.write_bytes(b"SELECT \xff FROM items\n"),
                  "self-linked": _link_to_itself}
    for case, make in unreadable.items():
        (tmp_path / case).mkdir()
        suite = _mini_suite(tmp_path / case)
        make(suite / "q1.sql")
        out = tmp_path / case / "bench.json"
        rc = main(["bench", "--suite", str(suite), "--out", str(out)])
        assert rc == 0, case
        rows = json.loads(out.read_text())["rows"]
        assert {r["status"] for r in rows if r["query"] == "q1.sql"} == {"SqfError"}, case
        assert {r["status"] for r in rows if r["query"] == "q2.sql"} == {"ok"}, case


def test_directory_in_place_of_a_suite_table_is_an_error(tmp_path, capsys):
    """A directory at `tables/items.csv`: `sqf bench` and `python -m
    sqf.suite` exit 1 with one `error:` line naming it."""
    suite = _mini_suite(tmp_path)
    table = suite / "tables" / "items.csv"
    table.mkdir(parents=True)
    for entry, argv in ((main, ["bench", "--suite", str(suite), "--out", str(tmp_path / "b.json")]),
                        (suite_mod.main, [str(suite)])):  # `python -m sqf.suite`
        rc = entry(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        assert err.startswith(f"error: cannot write suite table {table}: ")
        assert err.count("\n") == 1


_ITEMS_GEN = ("tables", "items", "columns", 0, "gen")
_RENAME_ITEMS = "rename items"  # the value is the table's new name


@pytest.mark.parametrize("path, value", [
    pytest.param(None, None, id="not-json"),
    pytest.param(("queries",), 5, id="queries-5"),
    pytest.param(("tables",), [], id="tables-list"),
    pytest.param(("tables", "items", "rows"), "many", id="rows-many"),
    pytest.param(_ITEMS_GEN, {"kind": "randint", "hi": 9}, id="randint-without-lo"),
    pytest.param(_ITEMS_GEN, {"kind": "randint", "lo": 9, "hi": 1}, id="randint-lo-above-hi"),
    pytest.param(_ITEMS_GEN, {"kind": "choice", "values": []}, id="empty-choice"),
    pytest.param(("max_overhead_fraction",), "x", id="max_overhead_fraction-x"),
    pytest.param(("tables_dir",), "q1.sql", id="tables_dir-a-file"),
    pytest.param(("tables_dir",), "t\x00", id="tables_dir-nul"),
    pytest.param(_RENAME_ITEMS, "i\x00", id="table-name-nul"),
    pytest.param(_RENAME_ITEMS, "../x", id="table-name-parent-dir"),
])
def test_bad_manifest_is_an_error(tmp_path, capsys, path, value):
    suite = _mini_suite(tmp_path)
    if path is None:
        (suite / "manifest.json").write_text("{not json")
    else:
        manifest = json.loads((suite / "manifest.json").read_text())
        if path == _RENAME_ITEMS:
            manifest["tables"][value] = manifest["tables"].pop("items")
        else:
            target = manifest
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        (suite / "manifest.json").write_text(json.dumps(manifest))
    for entry, argv in ((main, ["bench", "--suite", str(suite), "--out", str(tmp_path / "b.json")]),
                        (suite_mod.main, [str(suite)])):  # `python -m sqf.suite`
        rc = entry(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        assert err.startswith("error: ")
    assert not list(tmp_path.rglob("*.csv"))


_PROFILES = {"library": "library.default.json", "device": "device.default.json",
             "baseline_device": "device.baseline.json"}
_FLOAT_FIELD = {"library": "tuples_per_cycle", "device": "clock_hz",
                "baseline_device": "clock_hz", "manifest": "max_overhead_fraction"}
_BAD_JSON = {  # case: (the field it is written into, the JSON text written there)
    "xff": ("comment", b'"\xff"'),
    "nested-100000": ("comment", b"[" * 100_000 + b"]" * 100_000),
    "digits-5000": ("float", b"9" * 5000),
    "unknown-gen-key": ("strat", b"1"),  # in a `serial` gen, a misspelled `start`
}


@pytest.mark.parametrize("target, case", [
    (target, case) for case in _BAD_JSON for target in _FLOAT_FIELD
    if case != "unknown-gen-key" or target == "manifest"])
def test_bad_config_file_is_an_error(tmp_path, capsys, target, case):
    """Undecodable bytes, nesting past the recursion limit, a number past the
    integer-digit limit and an unknown key: `error: …` and exit 1, never a
    traceback, for the library, both profiles and the suite manifest."""
    suite = _mini_suite(tmp_path)
    docs = {name: json.loads((REPO / file).read_text()) for name, file in _PROFILES.items()}
    docs["manifest"] = json.loads((suite / "manifest.json").read_text())
    paths = {name: tmp_path / f"{name}.json" for name in _PROFILES}
    docs["manifest"].update({name: str(path) for name, path in paths.items()})
    paths["manifest"] = suite / "manifest.json"

    field, text = _BAD_JSON[case]
    doc = docs[target][0] if target == "library" else docs[target]
    if field == "strat":
        doc = doc["tables"]["dims"]["columns"][0]["gen"]
    doc[_FLOAT_FIELD[target] if field == "float" else field] = "@@"
    for name, doc in docs.items():
        paths[name].write_bytes(json.dumps(doc).encode().replace(b'"@@"', text))
    rc = main(["bench", "--suite", str(suite), "--out", str(tmp_path / "b.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert err.startswith("error: ")


def test_explain_report_matches_the_run_report(suite_dir, tmp_path):
    common = ["--query", str(suite_dir / "q09.sql"), "--tables", str(suite_dir / "tables"),
              "--library", LIB, "--device", DEV]
    assert main(["explain", *common, "--out", str(tmp_path / "explain.json")]) == 0
    assert main(["run", *common, "--out", str(tmp_path / "run.json"), "--seed", "7"]) == 0
    explain = json.loads((tmp_path / "explain.json").read_text())
    run = json.loads((tmp_path / "run.json").read_text())
    assert set(explain) == {"query", "chosen", "candidates"}
    assert explain == {key: run[key] for key in explain}


GOLDEN = REPO / "tests" / "golden" / "suite_seed7.json"


def golden_reports(suite_dir, work) -> dict:
    """The `sqf run --seed 7 --oracle` report of every suite query and the
    `sqf bench --seed 7` report, without the fields that hold wall-clock
    times or paths."""
    manifest = json.loads((suite_dir / "manifest.json").read_text())
    runs = {}
    for name in manifest["queries"]:
        out = work / f"{name}.json"
        assert main(["run", "--query", str(suite_dir / name),
                     "--tables", str(suite_dir / manifest["tables_dir"]),
                     "--library", LIB, "--device", DEV, "--out", str(out),
                     "--seed", "7", "--oracle"]) == 0
        report = json.loads(out.read_text())
        del report["meta"]
        for table in report["tables"].values():
            del table["path"]
        runs[name] = report
    out = work / "bench.json"
    assert main(["bench", "--suite", str(suite_dir), "--out", str(out), "--seed", "7"]) == 0
    bench = json.loads(out.read_text())
    del bench["meta"], bench["suite"]
    for row in bench["rows"]:
        row.pop("measured_wall_seconds", None)
    return {"run": runs, "bench": bench}


def test_suite_reports_match_golden(suite_dir, tmp_path):
    """Estimates, placements, reconfigurations and results on the shipped
    suite change only on purpose: such a change regenerates the golden file
    from `golden_reports` and says so."""
    text = json.dumps(golden_reports(suite_dir, tmp_path), indent=2) + "\n"
    assert text == GOLDEN.read_text(encoding="utf-8")


# --------------------------------------------------------------------------
# one ranking per query
# --------------------------------------------------------------------------

@pytest.mark.parametrize("command, calls", [
    ("run", 3), ("explain", 3),
    ("bench", 37),  # the 37 suite candidates; the baseline reads the chosen estimate
])
def test_each_candidate_is_priced_once(suite_dir, tmp_path, monkeypatch, command, calls):
    import sqf.planner as planner_mod

    count = [0]
    real = planner_mod._price

    def counting(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(planner_mod, "_price", counting)
    if command == "bench":
        argv = ["bench", "--suite", str(suite_dir), "--seed", "7"]
    else:
        argv = [command, "--query", str(suite_dir / "q09.sql"),
                "--tables", str(suite_dir / "tables"), "--library", LIB, "--device", DEV]
    assert main([*argv, "--out", str(tmp_path / "out.json")]) == 0
    assert count[0] == calls


def test_ranking_computes_each_stage_lists_flows_once(suite_dir, monkeypatch):
    """Ranking the suite's 37 candidates computes flows 24 times, once per
    distinct stage list: a stage list's layouts share its flows."""
    import sqf.planner as planner_mod
    from sqf.cli import _Session

    session = _Session(suite_dir / "tables", LIB, DEV)
    manifest = json.loads((suite_dir / "manifest.json").read_text())
    planned = [session.plan((suite_dir / name).read_text().strip())
               for name in manifest["queries"]]
    calls = {"_price": 0, "_flows": 0}
    for name in calls:
        real = getattr(planner_mod, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(planner_mod, name, counting)
    for plan in planned:
        planner_mod.rank(plan.candidates, plan.stats, session.device)
    distinct = {id(c.stages) for plan in planned for c in plan.candidates}
    assert calls == {"_price": 37, "_flows": 24} and len(distinct) == 24


def test_choose_matches_select_best_on_the_narrowed_list(suite_dir):
    from sqf.cli import _Session
    from sqf.errors import NoCandidates
    from sqf.planner import select_best

    algo = {"hash": "hash_fpga", "merge": "merge_fpga", "codesign": "hash_codesign"}
    session = _Session(suite_dir / "tables", LIB, DEV)
    manifest = json.loads((suite_dir / "manifest.json").read_text())
    for name in manifest["queries"]:
        planned = session.plan((suite_dir / name).read_text().strip())
        for layout in ("row", "column", "auto"):
            for join in ("hash", "merge", "codesign", "auto"):
                narrowed = [c for c in planned.candidates
                            if layout in ("auto", c.layout)
                            and (join == "auto" or c.join_algo == algo[join])]
                try:
                    want = select_best(narrowed, planned.stats, session.device)
                except NoCandidates:
                    with pytest.raises(NoCandidates):
                        planned.choose(layout, join)
                    continue
                got = planned.choose(layout, join)
                assert (got[0].tag, got[1]) == (want[0].tag, want[1]), (name, layout, join)


# --------------------------------------------------------------------------
# one run per chosen pipeline in a bench
# --------------------------------------------------------------------------

def _count_calls(monkeypatch, module, names) -> dict:
    """Wrap each named function of `module` to count its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


_SUITE_JOINS = {f"q{n:02d}.sql" for n in range(7, 13)}


def test_bench_runs_each_chosen_pipeline_once(suite_dir, tmp_path, monkeypatch):
    """On the suite, each join query's auto row chooses the candidate of one
    forced row and shares its run: 24 executions and checksums for 30 ok
    rows, and each auto row equals its forced twin but for `strategy`."""
    import sqf.cli as cli_mod

    calls = _count_calls(monkeypatch, cli_mod, ("execute_pipeline", "result_checksum"))
    out = tmp_path / "bench.json"
    assert main(["bench", "--suite", str(suite_dir), "--out", str(out), "--seed", "7"]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert calls == {"execute_pipeline": 24, "result_checksum": 24}
    assert sum(r["status"] == "ok" for r in rows) == 30
    twins = 0
    for auto in (r for r in rows if r["strategy"] == "auto"):
        forced = [r for r in rows if r["query"] == auto["query"] and r["strategy"] != "auto"
                  and r.get("chosen") == auto["chosen"]]
        assert len(forced) == (auto["query"] in _SUITE_JOINS), auto["query"]
        for twin in forced:
            assert {**twin, "strategy": "auto"} == auto
            twins += 1
    assert twins == len(_SUITE_JOINS)


def test_bench_rows_sharing_a_faulting_run_share_its_error(tmp_path, monkeypatch):
    """A run that raises is run once; every row that chose its candidate
    records the error's class and message."""
    import sqf.cli as cli_mod

    suite = _mini_suite(tmp_path)
    (suite / "q2.sql").write_text(
        "SELECT items.a / (dims.y - dims.y) AS z FROM items JOIN dims ON items.b = dims.x\n")
    calls = _count_calls(monkeypatch, cli_mod, ("execute_pipeline",))
    out = tmp_path / "bench.json"
    assert main(["bench", "--suite", str(suite), "--out", str(out)]) == 0
    rows = [r for r in json.loads(out.read_text())["rows"] if r["query"] == "q2.sql"]
    assert {(r["status"], r["detail"]) for r in rows} == {
        ("DivisionByZero", rows[0]["detail"])}
    assert len(rows) == 4 and "division by zero" in rows[0]["detail"].lower()
    # q1 runs once (its forced rows do not apply); q2's auto row shares a run
    assert calls["execute_pipeline"] == 1 + 3


# --------------------------------------------------------------------------
# the report writer
# --------------------------------------------------------------------------

def _round9(value):
    """Floats limited to 9 significant digits, recursively: with
    `json.dumps(..., indent=2)`, the reference the report writer matches."""
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {k: _round9(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round9(v) for v in value]
    return value


@pytest.mark.parametrize("value, rounded", [
    (float("nan"), float("nan")),
    (float("inf"), float("inf")),
    (-float("inf"), -float("inf")),
    (-0.0, -0.0),
    (5e-324, 5e-324),
    (1e16, 1e16),
    (0.1234567891234, 0.123456789),
    (np.float64(2 / 3), 0.666666667),
    ((0.1234567891234, "x", None), [0.123456789, "x", None]),
    ({"k": [1.23456789012e-7]}, {"k": [1.23456789e-07]}),
    (True, True),
    (2**70, 2**70),
], ids=["nan", "inf", "-inf", "-0.0", "5e-324", "1e16", "float", "np.float64",
        "tuple", "nested", "bool", "int-2**70"])
def test_round9_limits_floats_to_9_significant_digits(value, rounded):
    """Every float, np.float64 included, becomes a plain float of at most 9
    significant digits; a tuple becomes a list; a bool and an int beyond
    int64 stay as they are."""
    import sqf.cli as cli_mod

    got = cli_mod._round9(value)
    assert repr(got) == repr(rounded)
    assert type(got) is type(rounded)


def test_every_suite_report_is_written_as_json_dumps_of_round9(suite_dir, tmp_path,
                                                               monkeypatch):
    """Every run, explain and bench report of the suite is the text that
    `json.dumps(_round9(report), indent=2)` gives, byte for byte."""
    import sqf.cli as cli_mod

    written = []
    real = cli_mod._write_report
    monkeypatch.setattr(cli_mod, "_write_report", lambda path, report: written.append(report)
                        or real(path, report))
    manifest = json.loads((suite_dir / "manifest.json").read_text())
    paths = []
    for name in manifest["queries"]:
        for command in ("run", "explain"):
            paths.append(tmp_path / f"{command}-{name}.json")
            assert main([command, "--query", str(suite_dir / name),
                         "--tables", str(suite_dir / "tables"), "--library", LIB,
                         "--device", DEV, "--out", str(paths[-1])]) == 0
    paths.append(tmp_path / "bench.json")
    assert main(["bench", "--suite", str(suite_dir), "--out", str(paths[-1]),
                 "--seed", "7"]) == 0
    assert len(written) == len(paths) == 2 * 12 + 1
    for path, report in zip(paths, written):
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(_round9(report), indent=2) + "\n", path.name
        assert text == json.dumps(json.loads(text), indent=2) + "\n", path.name


# --------------------------------------------------------------------------
# table files and report files
# --------------------------------------------------------------------------

def _run_suite_query(suite_dir, tmp_path, text) -> dict:
    out = tmp_path / "r.json"
    assert main(["run", "--query", _query(tmp_path, text),
                 "--tables", str(suite_dir / "tables"), "--library", LIB, "--device", DEV,
                 "--out", str(out), "--seed", "7", "--oracle"]) == 0
    report = json.loads(out.read_text())
    assert report["oracle_match"] is True
    return report


@pytest.mark.parametrize("spelled, lower", [
    ("SELECT COUNT(*) FROM ORDERS", "SELECT COUNT(*) FROM orders"),
    ("SELECT Orders.orderkey, CUSTOMERS.acct FROM Orders JOIN CUSTOMERS "
     "ON Orders.custkey = CUSTOMERS.custkey WHERE CUSTOMERS.nation = 7",
     "SELECT orders.orderkey, customers.acct FROM orders JOIN customers "
     "ON orders.custkey = customers.custkey WHERE customers.nation = 7"),
])
def test_table_file_in_another_case(suite_dir, tmp_path, spelled, lower):
    got = _run_suite_query(suite_dir, tmp_path, spelled)
    want = _run_suite_query(suite_dir, tmp_path, lower)
    for key in ("tables", "chosen", "candidates", "execution"):
        assert got[key] == want[key], key


def test_two_table_files_differing_in_case_are_an_error(tmp_path, capsys):
    tables = tmp_path / "tables"
    tables.mkdir()
    for name in ("t", "T"):
        (tables / f"{name}.csv").write_text("a:INT\n1\n")
    err = _explain_fails_cleanly(capsys, _query(tmp_path, "SELECT a FROM t"), tables)
    assert "T.csv" in err and "t.csv" in err


@pytest.mark.parametrize("target", ["directory", "missing parent"])
@pytest.mark.parametrize("command", ["run", "explain", "bench"])
def test_unwritable_out_is_an_error(tmp_path, capsys, command, target):
    out = tmp_path / "out"
    if target == "directory":
        out.mkdir()
    else:
        out = out / "report.json"
    if command == "bench":
        argv = ["bench", "--suite", str(_mini_suite(tmp_path))]
    else:
        argv = [command, "--query", _query(tmp_path, "SELECT a FROM t"),
                "--tables", str(_write_tables(tmp_path)), "--library", LIB, "--device", DEV]
    rc = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: cannot write report {out}: ")
    assert "Traceback" not in err


# --------------------------------------------------------------------------
# --seed and what each command imports
# --------------------------------------------------------------------------

@pytest.mark.parametrize("command, seed", [
    ("run", -1), ("run", 1 << 64), ("bench", -1), ("run", (1 << 64) - 1),
])
def test_seed_is_an_unsigned_64_bit_value(tmp_path, capsys, command, seed):
    """--seed seeds the bloom filter with a 64-bit unsigned value: any other
    ends the command with an error, before any input is read and with no
    report."""
    out = tmp_path / "report.json"
    if command == "bench":
        argv = ["bench", "--suite", str(_mini_suite(tmp_path))]
    else:
        argv = ["run", "--query", _query(tmp_path, "SELECT t.a, u.d FROM t JOIN u ON t.a = u.c"),
                "--tables", str(_write_tables(tmp_path)), "--library", LIB, "--device", DEV,
                "--join", "codesign"]
    rc = main([*argv, "--out", str(out), "--seed", str(seed)])
    err = capsys.readouterr().err
    if 0 <= seed < 1 << 64:
        assert (rc, err) == (0, "")
        assert json.loads(out.read_text())["seed"] == seed
    else:
        assert rc == 1
        assert err == f"error: --seed must be in [0, 2^64), got {seed}\n"
        assert not out.exists()


def test_explain_takes_no_seed(tmp_path, capsys):
    """explain runs nothing, so it has no seed to take."""
    with pytest.raises(SystemExit) as exit_:
        main(["explain", "--query", _query(tmp_path, "SELECT a FROM t"),
              "--tables", str(_write_tables(tmp_path)), "--library", LIB, "--device", DEV,
              "--seed", "7"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


def _fresh_python(code: str, *argv) -> str:
    """The stdout of `code` run in a new interpreter, which fails on any
    warning, with `argv` as its arguments."""
    import subprocess
    import sys

    result = subprocess.run([sys.executable, "-W", "error", "-c", code, *argv],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_importing_the_cli_loads_neither_oracle_nor_suite():
    assert _fresh_python("import sys, sqf.cli; "
                         "print(sorted({'sqf.oracle', 'sqf.suite'} & set(sys.modules)))"
                         ) == "[]\n"


@pytest.mark.parametrize("oracle", [False, True])
def test_run_imports_the_oracle_only_to_check(tmp_path, oracle):
    argv = ["run", "--query", _query(tmp_path, "SELECT a FROM t WHERE a > 10"),
            "--tables", str(_write_tables(tmp_path)), "--library", LIB, "--device", DEV,
            "--out", str(tmp_path / "r.json")] + (["--oracle"] if oracle else [])
    out = _fresh_python("import sys, sqf.cli; rc = sqf.cli.main(sys.argv[1:]); "
                        "print(rc, 'sqf.oracle' in sys.modules, 'sqf.suite' in sys.modules)",
                        *argv)
    assert out == f"0 {oracle} False\n"


def test_star_import_binds_every_public_name():
    """`from sqf import *` binds each name of `sqf.__all__` to the object
    the module that defines it holds under that name."""
    out = _fresh_python(
        "import importlib, sqf\n"
        "ns = {}\n"
        "exec('from sqf import *', ns)\n"
        "assert ns['__version__'] == sqf.__version__\n"
        "for name in sqf.__all__:\n"
        "    obj = ns[name]\n"
        "    if name != '__version__':\n"
        "        assert obj.__name__ == name, name\n"
        "        assert getattr(importlib.import_module(obj.__module__), name) is obj, name\n"
        "        assert getattr(sqf, name) is obj, name\n"
        "print(len(sqf.__all__))\n")
    assert out == "38\n"


def test_unknown_package_attribute_is_an_attribute_error():
    assert _fresh_python(
        "import sqf\n"
        "try:\n"
        "    sqf.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n") == "module 'sqf' has no attribute 'no_such_name'\n"
