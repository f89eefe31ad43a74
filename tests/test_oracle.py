from __future__ import annotations

import random

from conftest import bind_sql, make_table
from sqf.oracle import (
    canonical_multiset,
    first_multiset_diff,
    reference_execute,
)
from sqf.relcore import Table


def test_count_star():
    t = make_table([("a", "INT")], [(i,) for i in range(7)])
    result = reference_execute(bind_sql("SELECT COUNT(*) FROM t", {"t": t}), {"t": t})
    assert result.rows == ((7,),)


def test_group_sum():
    t = make_table([("a", "INT"), ("b", "INT")], [(1, 10), (1, 20), (2, 30)])
    bp = bind_sql("SELECT a, SUM(b) FROM t GROUP BY a", {"t": t})
    result = reference_execute(bp, {"t": t})
    assert set(result.rows) == {(1, 30), (2, 30)}
    # group keys appear in first-appearance order
    assert [r[0] for r in result.rows] == [1, 2]


def test_order_by_desc():
    t = make_table([("a", "INT")], [(1,), (3,), (2,)])
    bp = bind_sql("SELECT a FROM t ORDER BY a DESC", {"t": t})
    result = reference_execute(bp, {"t": t})
    assert [r[0] for r in result.rows] == [3, 2, 1]


def test_avg_truncates_toward_zero():
    t = make_table([("a", "INT")], [(-3,), (-4,)])
    bp = bind_sql("SELECT AVG(a) FROM t", {"t": t})
    # (-7)/2 truncates to -3, not -4
    assert reference_execute(bp, {"t": t}).rows == ((-3,),)


def test_global_aggregate_on_empty_table():
    t = make_table([("a", "INT")], [])
    count = reference_execute(bind_sql("SELECT COUNT(*) FROM t", {"t": t}), {"t": t})
    assert count.rows == ((0,),)
    summed = reference_execute(bind_sql("SELECT SUM(a) FROM t", {"t": t}), {"t": t})
    assert summed.rows == ()


def test_output_invariant_under_input_permutation():
    rng = random.Random(17)
    rows = [(rng.randint(0, 5), rng.randint(-9, 9)) for _ in range(40)]
    t1 = make_table([("a", "INT"), ("b", "INT")], rows)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    t2 = make_table([("a", "INT"), ("b", "INT")], shuffled)
    for sql in (
        "SELECT a, b FROM t WHERE b > 0",
        "SELECT a, SUM(b) FROM t GROUP BY a",
        "SELECT a, b FROM t ORDER BY a, b DESC",
    ):
        r1 = reference_execute(bind_sql(sql, {"t": t1}), {"t": t1})
        r2 = reference_execute(bind_sql(sql, {"t": t2}), {"t": t2})
        assert first_multiset_diff(r1, r2) is None
        if "ORDER BY" in sql:
            assert r1.rows == r2.rows


def test_first_multiset_diff_reports_deterministically():
    t1 = make_table([("a", "INT")], [(1,), (2,)])
    t2 = Table.from_rows(t1.schema, ((1,), (3,)))
    diff = first_multiset_diff(t1, t2)
    assert diff is not None
    row, in_a, in_b = diff
    assert row == (2,) and in_a == 1 and in_b == 0
    assert first_multiset_diff(t1, t1) is None
    assert canonical_multiset(t1)[(1,)] == 1
