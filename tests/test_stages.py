"""One stage list per candidate: the calculus prices the stages the engine
runs, in the order it runs them."""

from __future__ import annotations

import json

import pytest

from conftest import REPO, bind_sql, make_table, run_all_candidates, run_candidate
from sqf.cli import main
from sqf.errors import ArithmeticOverflow, DivisionByZero, ParamOutOfRange
from sqf.frontend.binder import BCmp, walk_bound
from sqf.library import ModuleKind
from sqf.oracle import first_multiset_diff, reference_execute
from sqf.planner import enumerate_pipelines, full_estimate, software_baseline
from sqf.relcore import load_csv, table_stats


def _comparisons(stage):
    """The comparisons of a stage's filters."""
    return sum(isinstance(node, BCmp) for _, pred in stage.predicates
               for node in walk_bound(pred))


def _terms(stage):
    """The comparisons a restriction evaluates: its module's `terms` on the
    fabric, its filters' comparisons on the host."""
    return stage.module.param("terms") if stage.module is not None else _comparisons(stage)


def _stage_names(cand, tables, stats, dev):
    """(estimated, executed) stage names of one candidate."""
    est = full_estimate(cand, stats, dev)
    _, report = run_candidate(cand, tables, dev, stats=stats)
    return [s.name for s in est.stages], [s.name for s in report.stages]


def _run_report(suite_dir, tmp_path, sql, *flags):
    """`sqf run --oracle` of one query on the suite tables: its report."""
    query = tmp_path / "q.sql"
    query.write_text(sql + "\n")
    out = tmp_path / "report.json"
    rc = main(["run", "--query", str(query), "--tables", str(suite_dir / "tables"),
               "--library", str(REPO / "library.default.json"),
               "--device", str(REPO / "device.default.json"),
               "--out", str(out), "--seed", "7", "--oracle", *flags])
    assert rc == 0, sql
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def suite(suite_dir):
    tables = {name: load_csv(suite_dir / "tables" / f"{name}.csv")
              for name in ("orders", "customers")}
    stats = {name: table_stats(t) for name, t in tables.items()}
    manifest = json.loads((suite_dir / "manifest.json").read_text())
    queries = {name: (suite_dir / name).read_text().strip() for name in manifest["queries"]}
    return tables, stats, queries


def test_suite_estimates_list_the_executed_stages(suite, default_library, default_device):
    tables, stats, queries = suite
    checked = 0
    for name, sql in queries.items():
        for cand in enumerate_pipelines(bind_sql(sql, tables), default_library,
                                        default_device):
            estimated, executed = _stage_names(cand, tables, stats, default_device)
            assert estimated == executed, (name, cand.tag)
            assert [s.role for s in cand.stages] == executed, (name, cand.tag)
            checked += 1
    assert checked == 37


def test_random_estimates_list_the_executed_stages(criterion_1_cases, default_library,
                                                   default_device):
    """Criterion 1's random queries; a candidate that faults reports no stages.
    Only restrictions filter, each holds a filter, a fabric restriction is
    sized for the comparisons of its filters, and no restriction follows the
    ALU or the aggregate."""
    checked = 0
    for case, (sql, tables, stats) in enumerate(criterion_1_cases):
        for cand in enumerate_pipelines(bind_sql(sql, tables), default_library,
                                        default_device):
            restrictions = [s for s in cand.stages if s.role == "restriction"]
            assert all(s.predicates for s in restrictions), (case, cand.tag, sql)
            assert all(s.module.param("terms") == _comparisons(s)
                       for s in restrictions if s.module), (case, cand.tag, sql)
            assert not any(s.predicates for s in cand.stages
                           if s.role != "restriction"), (case, cand.tag, sql)
            roles = [s.role for s in cand.stages]
            assert "restriction" not in roles[min(
                (roles.index(r) for r in ("alu", "aggregate") if r in roles),
                default=len(roles)):], (case, cand.tag, sql)
            try:
                estimated, executed = _stage_names(cand, tables, stats, default_device)
            except (ArithmeticOverflow, DivisionByZero):
                continue
            assert estimated == executed, (case, cand.tag, sql)
            checked += 1
    assert checked > 2000


_ORDERS_JOIN = ("SELECT orders.orderkey FROM orders JOIN customers"
                " ON orders.custkey = customers.custkey WHERE ")
# five comparisons read one side, four span both
_NINE_COMPARISONS = (
    "orders.qty > 5 AND orders.price < 90000 AND orders.status <> 'C'"
    " AND customers.nation < 20 AND customers.grade <> 'DD'"
    " AND (orders.price < customers.acct OR orders.qty > customers.nation)"
    " AND orders.orderkey <> customers.custkey AND orders.qty <= customers.acct")
# nine comparisons reading one side: more than one RESTRICTION module holds
_NINE_ONE_SIDE = " AND ".join(f"orders.qty > {k}" for k in range(1, 10))
_ORDERS = "SELECT orderkey FROM orders WHERE "
# nine conjuncts, each spanning both sides
_NINE_SPANNING = (
    "orders.qty > customers.nation AND orders.price < customers.acct"
    " AND orders.orderkey <> customers.custkey AND orders.qty <= customers.acct"
    " AND orders.custkey = customers.custkey AND orders.price > customers.nation"
    " AND orders.orderkey > customers.nation AND orders.custkey >= customers.custkey"
    " AND orders.qty < customers.acct")


@pytest.mark.parametrize("where, terms", [
    # one conjunct, spanning both sides: nothing to filter before the join
    ("orders.price > customers.acct", ([], [1])),
    ("orders.qty > 5 AND orders.price > customers.acct", ([1], [1])),
    (_NINE_COMPARISONS, ([5], [4])),
    # packed in order into a chain of links of at most eight terms
    (_NINE_ONE_SIDE, ([8, 1], [])),
], ids=["spanning", "mixed", "nine", "nine-one-side"])
def test_spanning_conjuncts_run_in_a_restriction_after_the_join(
        suite, default_library, default_device, where, terms):
    """(before the join, after it): the terms of each restriction, on every
    candidate."""
    tables, _, _ = suite
    for cand in enumerate_pipelines(bind_sql(_ORDERS_JOIN + where, tables),
                                    default_library, default_device):
        join = next(i for i, s in enumerate(cand.stages) if s.role.endswith("join"))
        assert tuple([_terms(s) for s in part if s.role == "restriction"]
                     for part in (cand.stages[:join], cand.stages[join:])) == terms, cand.tag


def test_a_conjunct_reading_no_column_filters_slot_0_before_the_join(
        default_library, default_device):
    """`1 = 1` reads neither side, so it filters the FROM table (slot 0)
    before the join, beside the JOIN table's own conjunct (slot 1)."""
    tables = {"t": make_table([("a", "INT"), ("b", "INT")], [(1, 2), (2, 3)]),
              "u": make_table([("c", "INT"), ("d", "INT")], [(1, 3), (2, 1)])}
    bp = bind_sql("SELECT t.a FROM t JOIN u ON t.a = u.c WHERE 1 = 1 AND u.d > 2", tables)
    for cand in enumerate_pipelines(bp, default_library, default_device):
        join = next(i for i, s in enumerate(cand.stages) if s.role.endswith("join"))
        before = [f for s in cand.stages[:join] for f in s.predicates]
        assert [slot for slot, _ in before] == [0, 1], cand.tag
        assert before[0][1] == bp.restriction.children[0], cand.tag
        assert not any(s.predicates for s in cand.stages[join:]), cand.tag


@pytest.mark.parametrize("join", ["auto", "hash", "merge", "codesign"])
def test_nine_comparisons_split_across_the_join_run(suite_dir, tmp_path, join):
    """No restriction holds more than a RESTRICTION module's eight terms:
    they split across the join, or chain, so the query runs and matches the
    reference."""
    for where in (_NINE_COMPARISONS, _NINE_ONE_SIDE):
        report = _run_report(suite_dir, tmp_path, _ORDERS_JOIN + where, "--join", join)
        assert report["oracle_match"] is True, where
        assert report["execution"]["result_rows"] > 0, where


@pytest.mark.parametrize("layout", ["auto", "row", "column"])
def test_nine_conjuncts_without_a_join_chain(suite, suite_dir, tmp_path, default_library,
                                             default_device, layout):
    """A plan without a join splits its WHERE into conjuncts by the same
    rule as a join plan, so nine of them chain and the query runs."""
    tables, _, _ = suite
    sql = _ORDERS + _NINE_ONE_SIDE.replace("orders.", "")
    for cand in enumerate_pipelines(bind_sql(sql, tables), default_library, default_device):
        assert [_terms(s) for s in cand.stages if s.role == "restriction"] == [8, 1], cand.tag
    report = _run_report(suite_dir, tmp_path, sql, "--layout", layout)
    assert report["oracle_match"] is True
    assert report["execution"]["result_rows"] > 0


def test_a_host_restriction_is_one_stage(suite, suite_dir, tmp_path, default_library,
                                         default_device):
    """Fabric restrictions chain in modules of at most eight terms; after
    the host join no module holds them, so one host restriction holds every
    filter."""
    tables, _, _ = suite
    sql = _ORDERS_JOIN + _NINE_SPANNING
    for cand in enumerate_pipelines(bind_sql(sql, tables), default_library, default_device):
        join = next(i for i, s in enumerate(cand.stages) if s.role.endswith("join"))
        restrictions = [[s for s in part if s.role == "restriction"]
                        for part in (cand.stages[:join], cand.stages[join:])]
        if cand.host_stage is None:
            assert [[_terms(s) for s in part] for part in restrictions] == [[], [8, 1]], cand.tag
        else:
            assert restrictions[0] == [] and len(restrictions[1]) == 1, cand.tag
            assert restrictions[1][0].module is None
            assert len(restrictions[1][0].predicates) == 9
    report = _run_report(suite_dir, tmp_path, sql, "--join", "codesign")
    assert report["chosen"] == "row/hash_codesign"
    assert report["oracle_match"] is True
    assert report["execution"]["result_rows"] > 0


@pytest.mark.parametrize("sql", [
    _ORDERS_JOIN + "(" + _NINE_ONE_SIDE.replace(" AND ", " OR ") + ")",
    _ORDERS_JOIN + _NINE_ONE_SIDE.replace("orders.qty > 1", "orders.qty * 2 > 1"),
    _ORDERS + "(" + _NINE_ONE_SIDE.replace(" AND ", " OR ") + ")",
    _ORDERS + _NINE_ONE_SIDE.replace("orders.qty > 1", "orders.qty * 2 > 1"),
], ids=["one-conjunct", "arithmetic", "one-conjunct-no-join", "arithmetic-no-join"])
def test_nine_comparisons_that_do_not_split_stay_an_error(suite, default_library,
                                                          default_device, sql):
    """Only separate conjuncts without arithmetic chain, with or without a
    join: one conjunct, or a predicate holding arithmetic, of nine
    comparisons needs a RESTRICTION of nine terms."""
    tables, _, _ = suite
    with pytest.raises(ParamOutOfRange, match=r"terms must be in \[1, 8\]"):
        enumerate_pipelines(bind_sql(sql, tables), default_library, default_device)


def test_q09_restriction_and_alu_run_after_the_join(suite, default_library,
                                                    default_device):
    """q09's predicate holds arithmetic, so it runs on the joined stream;
    on the co-design candidate that is on the host, after the host join."""
    tables, _, queries = suite
    cands = {c.tag: c for c in enumerate_pipelines(bind_sql(queries["q09.sql"], tables),
                                                   default_library, default_device)}
    K = ModuleKind
    assert [m.kind for m in cands["row/hash_fpga"].modules] == [
        K.HASH_JOIN, K.RESTRICTION, K.ALU, K.REORDER]
    assert [m.kind for m in cands["row/merge_fpga"].modules] == [
        K.SORT, K.SORT, K.MERGE_JOIN, K.RESTRICTION, K.ALU, K.REORDER]
    codesign = cands["row/hash_codesign"]
    assert [m.kind for m in codesign.modules] == [K.BLOOM_CASCADE, K.ALIGN]
    assert [(s.role, s.module) for s in codesign.stages[3:]] == [
        ("host_join", None), ("restriction", None), ("alu", None), ("reorder", None)]


def test_host_stages_are_priced(suite, default_library, default_device):
    """Stages after the host join run at host_tuples_per_s into host_seconds,
    and the software baseline counts every stage after the source."""
    tables, stats, queries = suite
    dev = default_device
    cand = next(c for c in enumerate_pipelines(bind_sql(queries["q08.sql"], tables),
                                               default_library, dev)
                if c.host_stage is not None)
    est = full_estimate(cand, stats, dev)
    host = [s for s in est.stages if s.rate_tps == dev.host_tuples_per_s]
    assert [s.name for s in host] == ["host_join", "aggregate", "sort"]
    assert all(s.blocking_seconds == 0.0 for s in host)
    assert est.host_seconds == pytest.approx(sum(s.input_tuples for s in host)
                                             / dev.host_tuples_per_s)
    seconds, _ = software_baseline(cand, est, stats, dev)
    assert seconds == pytest.approx(est.stages[0].seconds + sum(
        s.input_tuples for s in est.stages[1:]) / dev.host_tuples_per_s)


def test_host_join_reads_the_align_output(suite, default_library, default_device):
    """The host join's input is what align hands it, probe survivors plus the
    build side, in the estimate and in the executed counts alike."""
    tables, stats, queries = suite
    checked = 0
    for name, sql in queries.items():
        for cand in enumerate_pipelines(bind_sql(sql, tables), default_library,
                                        default_device):
            if cand.host_stage is None:
                continue
            est = {s.name: s for s in full_estimate(cand, stats, default_device).stages}
            assert est["host_join"].input_tuples == (
                est["align"].input_tuples * est["align"].selectivity), (name, cand.tag)
            _, report = run_candidate(cand, tables, default_device, stats=stats)
            ran = {s.name: s for s in report.stages}
            assert ran["host_join"].input_count == ran["align"].output_count, (name, cand.tag)
            checked += 1
    assert checked == 6


def test_predicate_arithmetic_takes_no_alu(default_library, default_device):
    """A predicate's arithmetic runs in its restriction: with no computed
    item there is no ALU stage to place, price or reconfigure."""
    t = make_table([("a", "INT"), ("b", "INT")], [(1, 9), (2, 2), (3, 4)])
    bp = bind_sql("SELECT a FROM t WHERE a * b > 5", {"t": t})
    cands = enumerate_pipelines(bp, default_library, default_device)
    assert cands
    for cand in cands:
        assert "alu" not in [s.role for s in cand.stages], cand.tag
        assert ModuleKind.ALU not in [m.kind for m in cand.modules], cand.tag


@pytest.mark.parametrize("sql, nodes", [
    ("SELECT a + b AS x FROM t WHERE a * b > 5", 1),
    ("SELECT a AS x FROM t", 1),
    ("SELECT s AS x, 5 AS y FROM t WHERE a * b > 1", 2),
])
def test_alu_nodes_count_computed_items(sql, nodes, default_library, default_device):
    """Each computed item takes its arithmetic nodes, and one node when it
    has none (a copied column or a literal), so the ALU stage that builds it
    exists and its result matches the reference."""
    t = make_table([("a", "INT"), ("b", "INT"), ("s", 2)],
                   [(1, 9, "ab"), (2, 2, "cd"), (3, 4, "")])
    results = run_all_candidates(sql, {"t": t}, default_library, default_device)
    expected = reference_execute(bind_sql(sql, {"t": t}), {"t": t})
    for cand, table, _ in results:
        alu = [s.module for s in cand.stages if s.role == "alu"]
        assert [m.param("nodes") for m in alu] == [nodes], cand.tag
        assert first_multiset_diff(table, expected) is None, cand.tag


@pytest.mark.parametrize("sql, reorders", [
    ("SELECT g, COUNT(*) AS n FROM t GROUP BY g", False),
    ("SELECT COUNT(*) AS n, g FROM t GROUP BY g", True),
    ("SELECT g, g FROM t GROUP BY g", True),
    ("SELECT COUNT(*) FROM t", False),
    ("SELECT g, a FROM t", False),
    ("SELECT a, g FROM t", True),
    ("SELECT a + 1 AS b FROM t", True),
])
def test_a_reorder_stage_runs_where_the_output_layout_differs(sql, reorders, default_library,
                                                               default_device):
    """Every candidate has a REORDER stage exactly when the output columns
    are not the stream's own: the grouped row (group keys, then aggregates)
    in a grouped plan, the table's columns in an ungrouped one."""
    t = make_table([("g", "INT"), ("a", "INT")], [(1, 2), (1, 3), (4, 5)])
    cands = enumerate_pipelines(bind_sql(sql, {"t": t}), default_library, default_device)
    assert cands
    for cand in cands:
        assert ("reorder" in [s.role for s in cand.stages]) is reorders, cand.tag
