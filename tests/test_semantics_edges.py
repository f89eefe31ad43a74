"""Edge-case semantics: every case runs all candidates against the oracle."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bind_sql, make_table, run_all_candidates
from sqf.errors import QuerySyntaxError, UnknownColumn
from sqf.frontend import parse_query
from sqf.oracle import first_multiset_diff, reference_execute
from sqf.relcore import _load_bulk, _load_rows, load_csv


def _check_all(sql, tables, default_library, default_device):
    """Every candidate gives the oracle's rows in the oracle's column
    dtypes: int64 for INT and `S<w>` for CHAR(w)."""
    bp = bind_sql(sql, tables)
    expected = reference_execute(bp, tables)
    dtypes = [col.dtype for col in expected.columns]
    results = run_all_candidates(sql, tables, default_library, default_device)
    assert results
    for cand, table, _ in results:
        assert first_multiset_diff(table, expected) is None, (sql, cand.tag)
        assert [col.dtype for col in table.columns] == dtypes, (sql, cand.tag)
    return expected, results


def test_char_literal_wider_than_column(default_library, default_device):
    t = make_table([("a", "INT"), ("s", 2)], [(1, "ab"), (2, "x")])
    expected, _ = _check_all("SELECT a FROM t WHERE s = 'abc'", {"t": t},
                             default_library, default_device)
    assert expected.row_count == 0  # 3-byte literal can never equal CHAR(2)
    expected, _ = _check_all("SELECT a FROM t WHERE s <> 'abc'", {"t": t},
                             default_library, default_device)
    assert expected.row_count == 2


def test_char_equality_ignores_trailing_pad(default_library, default_device):
    t = make_table([("a", "INT"), ("s", 4)], [(1, "ab"), (2, "ab  "), (3, "abx")])
    expected, _ = _check_all("SELECT a FROM t WHERE s = 'ab'", {"t": t},
                             default_library, default_device)
    assert sorted(r[0] for r in expected.rows) == [1, 2]


def test_a_short_char_cell_reads_back_padded_from_every_route(
        tmp_path, default_library, default_device):
    """`'ab'` in a CHAR(4) column reads back as `'ab  '` from both loads,
    `Table.from_rows`, every candidate and the oracle, whose rows are then
    equal with no canonicalisation."""
    text = b"k:INT,s:CHAR(4)\n1,ab\n2,abcd\n"
    path = tmp_path / "t.csv"
    path.write_bytes(text)
    want = ((1, "ab  "), (2, "abcd"))
    for table in (load_csv(path), _load_bulk(text), _load_rows(text)):
        assert table.rows == want
    t = make_table([("k", "INT"), ("s", 4)], [(1, "ab"), (2, "abcd")])
    u = make_table([("k", "INT"), ("c", 2)], [(1, "x"), (2, "yz")])
    assert t.rows == want
    for sql, rows in [
        ("SELECT s, k FROM t", [("ab  ", 1), ("abcd", 2)]),
        ("SELECT t.s, u.c FROM t JOIN u ON t.k = u.k", [("ab  ", "x "), ("abcd", "yz")]),
    ]:
        expected, results = _check_all(sql, {"t": t, "u": u}, default_library, default_device)
        assert Counter(expected.rows) == Counter(rows), sql
        for cand, table, _ in results:
            assert Counter(table.rows) == Counter(expected.rows), (sql, cand.tag)


def test_join_on_char_keys_of_different_widths(default_library, default_device):
    t = make_table([("k", 2), ("x", "INT")], [("a", 1), ("b", 2), ("a ", 3)])
    u = make_table([("j", 4), ("y", "INT")], [("a", 10), ("c", 20), ("b  ", 30)])
    sql = "SELECT t.x, u.y FROM t JOIN u ON t.k = u.j"
    expected, results = _check_all(sql, {"t": t, "u": u},
                                   default_library, default_device)
    # 'a' matches 'a' twice on the left (padded equal), 'b' matches 'b  '
    assert sorted(expected.rows) == [(1, 10), (2, 30), (3, 10)]
    assert any(c.join_algo == "hash_codesign" for c, _, _ in results)


def test_group_by_computed_attribute(default_library, default_device):
    # grouping over a computed value defined in the same select list
    t = make_table([("a", "INT")], [(1,), (2,), (3,), (4,), (5,)])
    sql = "SELECT a - a / 2 AS m, COUNT(*) AS n FROM t GROUP BY m ORDER BY m"
    expected, _ = _check_all(sql, {"t": t}, default_library, default_device)
    # a - trunc(a/2): 1->1, 2->1, 3->2, 4->2, 5->3
    assert list(expected.rows) == [(1, 2), (2, 2), (3, 1)]


def test_aggregate_over_computed_attribute(default_library, default_device):
    # aggregates may reference computed names defined in the same list
    t = make_table([("a", "INT"), ("b", "INT")], [(1, 10), (2, 20), (3, 30)])
    sql = "SELECT SUM(twice) AS s, a * 2 AS twice FROM t GROUP BY twice"
    expected, _ = _check_all(sql, {"t": t}, default_library, default_device)
    assert sorted(expected.rows) == [(2, 2), (4, 4), (6, 6)]


def test_literal_only_predicates(default_library, default_device):
    t = make_table([("a", "INT")], [(1,), (2,)])
    expected, _ = _check_all("SELECT a FROM t WHERE 1 = 1", {"t": t},
                             default_library, default_device)
    assert expected.row_count == 2
    expected, _ = _check_all("SELECT a FROM t WHERE 2 < 1", {"t": t},
                             default_library, default_device)
    assert expected.row_count == 0
    # literal-only conjunct on a join kills everything before the join
    u = make_table([("b", "INT")], [(1,)])
    expected, _ = _check_all(
        "SELECT t.a FROM t JOIN u ON t.a = u.b WHERE 2 < 1 AND t.a > 0",
        {"t": t, "u": u}, default_library, default_device)
    assert expected.row_count == 0


def test_join_with_empty_sides(default_library, default_device):
    full = make_table([("a", "INT"), ("x", "INT")], [(1, 5), (2, 6)])
    empty = make_table([("b", "INT"), ("y", "INT")], [])
    for tables in (
        {"t": full, "u": empty},
        {"t": make_table([("a", "INT"), ("x", "INT")], []), "u": empty},
    ):
        expected, _ = _check_all(
            "SELECT t.x, u.y FROM t JOIN u ON t.a = u.b",
            tables, default_library, default_device)
        assert expected.row_count == 0


def test_count_column_equals_count_star(default_library, default_device):
    t = make_table([("a", "INT")], [(1,), (1,), (2,)])
    expected, _ = _check_all("SELECT COUNT(a) AS c1, COUNT(*) AS c2 FROM t",
                             {"t": t}, default_library, default_device)
    assert expected.rows == ((3, 3),)


def test_min_max_on_char(default_library, default_device):
    t = make_table([("s", 3)], [("b",), ("ab",), ("ba",)])
    expected, _ = _check_all("SELECT MIN(s) AS lo, MAX(s) AS hi FROM t",
                             {"t": t}, default_library, default_device)
    assert expected.rows == (("ab ", "ba "),)


def test_star_over_join_with_name_collision(default_library, default_device):
    t = make_table([("id", "INT"), ("v", "INT")], [(1, 10), (2, 20)])
    u = make_table([("id", "INT"), ("w", "INT")], [(1, 7)])
    sql = "SELECT * FROM t JOIN u ON t.id = u.id"
    bp = bind_sql(sql, {"t": t, "u": u})
    assert bp.output_schema.names == ("id", "v", "u_id", "w")
    expected, _ = _check_all(sql, {"t": t, "u": u},
                             default_library, default_device)
    assert expected.rows == ((1, 10, 1, 7),)


def test_order_by_aggregate_alias(default_library, default_device):
    t = make_table([("g", "INT"), ("v", "INT")],
                   [(1, 5), (2, 1), (1, 2), (3, 9), (2, 2)])
    sql = "SELECT g, SUM(v) AS total FROM t GROUP BY g ORDER BY total DESC, g"
    expected, results = _check_all(sql, {"t": t}, default_library, default_device)
    assert list(expected.rows) == [(3, 9), (1, 7), (2, 3)]
    for _, table, _ in results:
        assert list(table.rows) == list(expected.rows)  # order fully specified


def test_qualified_order_by_rejected():
    t = make_table([("a", "INT")], [(1,)])
    with pytest.raises((QuerySyntaxError, UnknownColumn)):
        bind_sql("SELECT a FROM t ORDER BY t.a", {"t": t})


def test_deep_not_nesting(default_library, default_device):
    t = make_table([("a", "INT")], [(i,) for i in range(-5, 6)])
    expected, _ = _check_all("SELECT a FROM t WHERE NOT NOT a > 0 AND NOT a >= 4",
                             {"t": t}, default_library, default_device)
    assert sorted(r[0] for r in expected.rows) == [1, 2, 3]


def test_or_across_join_sides(default_library, default_device):
    t = make_table([("a", "INT"), ("x", "INT")],
                   [(i % 4, i) for i in range(20)])
    u = make_table([("b", "INT"), ("y", "INT")],
                   [(i % 4, -i) for i in range(12)])
    sql = ("SELECT t.x, u.y FROM t JOIN u ON t.a = u.b "
           "WHERE t.x > 10 OR u.y > -3")
    _check_all(sql, {"t": t, "u": u}, default_library, default_device)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="SELECTFROMWHEREJOIN abc012*,.()<>='+-/;\n", max_size=60))
def test_parser_never_reports_out_of_range_positions(text):
    try:
        parse_query(text)
    except QuerySyntaxError as err:
        assert 0 <= err.position <= len(text)
