"""Vector kernels against their scalar references: the row hash against
`fnv1a64(encode_row(...))` and the bloom function against the scalar
cascade of `_ref.py`, checked arithmetic against `sqf.arith`, and the
grouping and pairing kernels against naive loops."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _ref
from conftest import bind_sql, half_passing_bits, make_table, pair_positions, run_candidate
from sqf.arith import INT64_MAX, INT64_MIN, add64, div64, mul64, sub64
from sqf.engine.bloom import BloomCascadeConfig, bloom_build_probe
from sqf.engine.exec import _evaluate, result_checksum
from sqf.engine.kernels import (
    DIVZERO, OK, OVERFLOW, checked_arith, codes, group_extreme, group_extremes, group_ids,
    group_sums, pair_codes, rank, sort_order,
)
from sqf.errors import ArithmeticOverflow, DivisionByZero
from sqf.fabric import DeviceProfile
from sqf.library import MAX_BLOOM_STAGES
from sqf.frontend.ast import StrLiteral
from sqf.frontend.binder import BCmp, ValueRef
from sqf.hashing import MASK64, fnv1a64_rows
from sqf.oracle import first_multiset_diff, reference_execute
from sqf.planner import enumerate_pipelines
from sqf.relcore import (
    ColumnType, Schema, Table, TypeKind, encode_columns, encode_row, int_image,
    joint_codes, pad_bytes, table_stats,
)

EDGES = [INT64_MIN, INT64_MIN + 1, -(2**62), -(2**32), -7, -3, -2, -1, 0, 1, 2, 3, 7,
         2**31, 2**32, 2**62, INT64_MAX - 1, INT64_MAX]
int64s = st.one_of(st.sampled_from(EDGES), st.integers(INT64_MIN, INT64_MAX))


# ---------------------------------------------------------------------------
# row hash
# ---------------------------------------------------------------------------

@st.composite
def tables(draw):
    types = draw(st.lists(
        st.one_of(st.just(ColumnType.int64()),
                  st.integers(1, 8).map(ColumnType.char)),
        min_size=1, max_size=5))
    schema = Schema(tuple((f"c{i}", t) for i, t in enumerate(types)))
    cells = [int64s if t.kind.value == "INT"
             else st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E),
                          max_size=t.width_bytes)
             for t in types]
    rows = draw(st.lists(st.tuples(*cells), max_size=12))
    return Table.from_rows(schema, tuple(rows))


def _assert_rows_hash_like_scalar(table, seeds):
    hashes = fnv1a64_rows(encode_columns(table.columns), seeds)
    assert hashes.shape == (len(seeds), table.row_count)
    for per_seed, seed in zip(hashes.tolist(), seeds):
        for h, row in zip(per_seed, table.rows):
            assert h == _ref.fnv1a64(encode_row(row, table.schema), seed)


@settings(max_examples=150, deadline=None)
@given(tables(), st.lists(st.integers(0, MASK64), min_size=1, max_size=3))
def test_row_matrix_hash_matches_scalar(table, seeds):
    _assert_rows_hash_like_scalar(table, seeds)


FOLD_SEEDS = [0, 1, 0x5143_4845_434B_0001, MASK64]

# Tables whose byte columns are zero in every row, in runs the kernel folds
# into one multiply: each must still hash every row like the scalar reference.
FOLD_CASES = {
    "small non-negative INTs": ([("a", "INT")], [(0,), (1,), (255,), (256,), (70_000,)]),
    "small negative INTs": ([("a", "INT")], [(-1,), (-2,), (-300,), (-70_000,)]),
    "an all-zero column": ([("z", "INT"), ("s", 2)], [(0, "ab"), (0, "cd"), (0, "e")]),
    "a high byte in the last row only": (
        [("a", "INT"), ("b", "INT")],
        [(1, 2), (3, 4), (5, 6), (1 << 56, 0x0100_0000_0000)]),
    "zero runs at both ends of a row": (
        [("lead", "INT"), ("mid", "INT"), ("tail", "INT")],
        [(0, 7, 0), (0, 300, 0), (0, 0, 0)]),
    "zero bytes inside CHAR cells": (
        [("c3", 3), ("c8", 8), ("a", "INT")],
        [("\x00\x00a", "\x00" * 7 + "z", 0), ("\x00b", "\x00" * 6 + "yz", 1),
         ("c", "\x00" * 7 + "x", 2)]),
    "no rows": ([("a", "INT"), ("s", 3)], []),
}


@pytest.mark.parametrize("case", FOLD_CASES)
def test_row_hash_folds_zero_byte_columns_exactly(case):
    cols, rows = FOLD_CASES[case]
    _assert_rows_hash_like_scalar(make_table(cols, rows), FOLD_SEEDS)


# keys that span all 8 bytes
BLOOM_KEYS = np.concatenate([
    np.array([5, 0, 1 << 56, 0xFF << 48, MASK64, 1 << 63], dtype=np.uint64),
    np.random.default_rng(23).integers(0, 1 << 63, 40, dtype=np.uint64) * np.uint64(2),
])


def test_bloom_hashes_keys_of_all_eight_bytes_like_scalar():
    built = np.arange(len(BLOOM_KEYS)) % 3 == 0
    config = BloomCascadeConfig(3, half_passing_bits(int(built.sum()), 3, 2), 2, seed=9)
    mask = bloom_build_probe(config, BLOOM_KEYS, built)
    assert mask.tolist() == _ref.bloom_build_probe(config, BLOOM_KEYS.tolist(), built)
    assert mask[::3].all()


@pytest.mark.parametrize("built", ["none", "every other", "all"])
@pytest.mark.parametrize("hashes", [1, 2, 3, 5])
@pytest.mark.parametrize("stages", range(1, MAX_BLOOM_STAGES + 1))
def test_bloom_build_probe_matches_the_scalar_reference(stages, hashes, built):
    """The engine's one bloom function gives the pass mask of the spec's
    scalar cascade, over every stage count the library allows. The filter
    is sized so that a key not built passes with probability about 1/2,
    so a wrong seed or index changes the mask."""
    flags = {"none": np.arange(len(BLOOM_KEYS)) < 0, "all": np.arange(len(BLOOM_KEYS)) >= 0,
             "every other": np.arange(len(BLOOM_KEYS)) % 2 == 0}[built]
    n = len(BLOOM_KEYS) // 2
    bits = max(hashes, round(-n * hashes / math.log(1 - 0.5 ** (1 / (stages * hashes)))))
    config = BloomCascadeConfig(stages, bits, hashes, seed=0x51F)
    mask = bloom_build_probe(config, BLOOM_KEYS, flags)
    assert mask.tolist() == _ref.bloom_build_probe(config, BLOOM_KEYS.tolist(), flags)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.lists(st.integers(0, MASK64), max_size=40, unique=True),
       st.integers(1, 3))
def test_bloom_build_probe_is_a_build_and_a_probe(data, keys, stages):
    """One call over the keys, with the built ones flagged, passes every key
    that a call over the built keys followed by all the keys passes."""
    built = np.array(data.draw(st.lists(st.booleans(), min_size=len(keys),
                                        max_size=len(keys))), dtype=bool)
    keys = np.array(keys, dtype=np.uint64)
    config = BloomCascadeConfig(stages, 96, 2, seed=4)
    passed = bloom_build_probe(config, keys, built)
    n_built = int(built.sum())
    want = bloom_build_probe(config, np.concatenate([keys[built], keys]),
                             np.arange(n_built + len(keys)) < n_built)[n_built:]
    assert passed.tolist() == want.tolist()


@settings(max_examples=50, deadline=None)
@given(tables())
def test_checksum_is_sum_of_scalar_row_hashes(table):
    from sqf.hashing import CHECKSUM_SEED

    expected = sum(_ref.fnv1a64(encode_row(row, table.schema), CHECKSUM_SEED)
                   for row in table.rows) & MASK64
    assert result_checksum(table) == expected


def test_row_matrix_hash_of_empty_table():
    schema = Schema((("a", ColumnType.int64()), ("s", ColumnType.char(3))))
    table = Table.from_rows(schema, ())
    assert fnv1a64_rows(encode_columns(table.columns), [0, 1]).shape == (2, 0)
    assert result_checksum(table) == 0


# ---------------------------------------------------------------------------
# checked arithmetic
# ---------------------------------------------------------------------------

_SCALAR = {"+": add64, "-": sub64, "*": mul64, "/": div64}


def _scalar(op, a, b):
    try:
        return _SCALAR[op](a, b), OK
    except ArithmeticOverflow:
        return None, OVERFLOW
    except DivisionByZero:
        return None, DIVZERO


def _check_against_scalar(op, pairs):
    a = np.array([x for x, _ in pairs], dtype=np.int64)
    b = np.array([y for _, y in pairs], dtype=np.int64)
    values, faults = checked_arith(op, a, b)
    expected = [_scalar(op, x, y) for x, y in pairs]
    assert faults.tolist() == [kind for _, kind in expected]
    for got, (want, kind) in zip(values.tolist(), expected):
        if kind == OK:
            assert got == want
    # the first faulting ordinal and its kind, as the executor reports them
    first = next(((i, k) for i, (_, k) in enumerate(expected) if k != OK), None)
    hits = np.flatnonzero(faults)
    assert (first is None) == (hits.size == 0)
    if first is not None:
        assert (int(hits[0]), int(faults[hits[0]])) == first


@settings(max_examples=300, deadline=None)
@given(st.sampled_from("+-*/"), st.lists(st.tuples(int64s, int64s), max_size=20))
def test_checked_arith_matches_scalar(op, pairs):
    _check_against_scalar(op, pairs)


@pytest.mark.parametrize("op, pairs", [
    ("+", [(1, 2), (INT64_MAX, 1), (INT64_MIN, -1), (INT64_MAX, INT64_MIN)]),
    ("-", [(5, 7), (INT64_MIN, 1), (INT64_MAX, -1), (-1, INT64_MAX), (0, INT64_MIN)]),
    ("*", [(3, -4), (INT64_MIN, -1), (-1, INT64_MIN), (2**32, 2**31), (2**32, -(2**31)),
           (INT64_MAX, 2), (-1, INT64_MAX), (0, INT64_MIN)]),
    ("/", [(7, 2), (-7, 2), (7, -2), (-7, -2), (5, 0), (INT64_MIN, -1), (INT64_MIN, 1),
           (INT64_MIN, 2), (-1, INT64_MIN), (0, -3)]),
])
def test_checked_arith_edges(op, pairs):
    _check_against_scalar(op, pairs)


def test_checked_arith_truncates_toward_zero():
    values, faults = checked_arith("/", np.array([-7, 7, -8, -1]), np.array([2, -2, 3, 2]))
    assert values.tolist() == [-3, -3, -2, 0]
    assert faults.tolist() == [OK] * 4


_M = INT64_MAX // 7  # 7 * _M == INT64_MAX


@pytest.mark.parametrize("op, a, b, checked, fault_row", [
    # corners exactly at the bounds: no row can overflow, no per-row check
    ("+", [INT64_MAX - 1, 0], [1, 0], False, None),
    ("+", [INT64_MIN + 1, 0], [-1, 0], False, None),
    ("-", [-1, 0], [INT64_MAX, 0], False, None),
    ("-", [INT64_MAX - 3, 0], [-3, 0], False, None),
    ("*", [_M, 1], [7, 2], False, None),
    ("*", [2**62, 1], [-2, 1], False, None),
    ("*", [-(2**31), 1], [2**32, -(2**31)], False, None),  # alo * bhi == INT64_MIN
    # mixed-sign corners inside the bounds
    ("*", [-3, 5], [-7, 2], False, None),
    ("-", [-5, 9], [3, -4], False, None),
    # one step past a bound: the per-row check runs and finds the fault...
    ("+", [0, INT64_MAX], [0, 1], True, 1),
    ("+", [0, INT64_MIN], [0, -1], True, 1),
    ("-", [0, -2], [0, INT64_MAX], True, 1),
    ("*", [_M + 1, 1], [7, 1], True, 0),
    ("*", [2**62, 1], [2, 1], True, 0),
    ("*", [INT64_MIN, 1], [-1, 1], True, 0),
    ("*", [-(2**62), 1, -(2**62)], [-1, 4, 4], True, 2),  # only ahi * blo is past
    # ...or finds none, when no single row pairs the extremes
    ("+", [INT64_MAX, 0], [0, 1], True, None),
    ("-", [0, -2], [INT64_MAX, 0], True, None),
    ("*", [2**62, 1], [1, 4], True, None),
    ("*", [-(2**62), 1], [-1, 4], True, None),  # mixed signs: alo * bhi is past
    ("*", [5, -(2**62)], [4, -1], True, None),  # and here ahi * blo
])
def test_checked_arith_proves_batches_safe_at_the_bounds(monkeypatch, op, a, b, checked,
                                                         fault_row):
    """A batch whose result range lies inside int64 skips the per-row check;
    one whose range reaches past it is checked row by row, faulting or not."""
    from sqf.engine import kernels

    calls, real = [], kernels._checked_rows

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "_checked_rows", counted)
    _check_against_scalar(op, list(zip(a, b)))
    assert len(calls) == checked
    hits = np.flatnonzero(checked_arith(op, np.array(a), np.array(b))[1])
    assert hits[:1].tolist() == ([] if fault_row is None else [fault_row])


@pytest.mark.parametrize("expr, error", [
    ("(a * b) + (c / d)", ArithmeticOverflow),
    ("(c / d) + (a * b)", DivisionByZero),
])
def test_left_operand_fault_comes_first(default_library, expr, error):
    # row 1 faults in both operands; the one evaluated first is reported
    t = make_table([("a", "INT"), ("b", "INT"), ("c", "INT"), ("d", "INT")],
                   [(1, 1, 1, 1), (2**62, 4, 1, 0), (1, 1, 1, 0)])
    tables_ = {"t": t}
    bp = bind_sql(f"SELECT {expr} AS x FROM t", tables_)
    with pytest.raises(error) as oracle_err:
        reference_execute(bp, tables_)
    dev = DeviceProfile()
    stats = {"t": table_stats(t)}
    for cand in enumerate_pipelines(bp, default_library, dev):
        with pytest.raises(error) as engine_err:
            run_candidate(cand, tables_, dev, stats=stats)
        assert engine_err.value.row == oracle_err.value.row == 1


# ---------------------------------------------------------------------------
# grouping and pairing
# ---------------------------------------------------------------------------

def _streaming_fold(rows):
    """(per-group totals, first overflowing ordinal or -1) of add64 folds."""
    totals = {}
    for ordinal, (g, v) in enumerate(rows):
        try:
            totals[g] = add64(totals.get(g, 0), v)
        except ArithmeticOverflow:
            return totals, ordinal
    return totals, -1


def _check_group_sums(rows):
    gid = np.array([g for g, _ in rows], dtype=np.int64)
    groups = int(gid.max()) + 1
    totals, first_bad = _streaming_fold(rows)
    sums, fault = group_sums(np.array([v for _, v in rows], dtype=np.int64), gid, groups)
    faulting = np.flatnonzero(fault)
    assert (int(faulting[0]) if faulting.size else -1) == first_bad
    assert set(fault.tolist()) <= {OK, OVERFLOW}
    if first_bad < 0:
        assert {g: int(sums[g]) for g in totals} == totals


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), int64s), min_size=1, max_size=30))
def test_group_sums_match_a_streaming_fold(rows):
    _check_group_sums(rows)


@pytest.mark.parametrize("rows, sorts", [
    # n * max |v| == INT64_MAX: no running sum can overflow, so no scan
    ([(0, _M)] * 7, 0),
    ([(0, -_M)] * 7, 0),
    # one step past the bound: the scan runs, and finds the real overflow...
    ([(0, _M + 1)] * 7, 1),
    ([(0, -_M - 1)] * 7, 1),
    # ...or finds none
    ([(0, -_M)] * 6 + [(0, -_M - 1)], 1),  # ends on INT64_MIN exactly
    ([(0, _M + 1), (0, -_M - 1)] * 3 + [(0, _M + 1)], 1),
    ([(g % 2, _M + 1) for g in range(7)], 1),
    # a lone INT64_MIN: its magnitude is past INT64_MAX, but it fits
    ([(0, INT64_MIN)], 1),
    ([(0, INT64_MIN), (0, -1)], 1),
])
def test_group_sums_at_the_overflow_bound(monkeypatch, rows, sorts):
    assert 7 * _M == INT64_MAX
    calls = []
    argsort = np.argsort

    def counted(*args, **kwargs):
        calls.append(args)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    _check_group_sums(rows)
    assert len(calls) == sorts


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), int64s), max_size=30))
def test_int_min_max_are_the_per_id_extremes(default_library, rows):
    """An INT MIN or MAX is read off the per-id extremes, with no row search.
    Each equals the value at the row the search over ranks finds, and the
    engine's grouped and global MIN and MAX equal the oracle's."""
    gid = np.array([g for g, _ in rows], dtype=np.int64)
    values = np.array([v for _, v in rows], dtype=np.int64)
    held = np.unique(gid)
    for fn in ("MIN", "MAX") if rows else ():
        searched = values[group_extreme(rank(values), gid, 5, fn)]
        assert group_extremes(values, gid, 5, fn)[held].tolist() == searched[held].tolist()

    tables_ = {"t": make_table([("g", "INT"), ("v", "INT")], rows)}
    dev = DeviceProfile()
    stats = {"t": table_stats(tables_["t"])}
    for sql in ("SELECT g, MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY g",
                "SELECT MAX(v) AS hi, MIN(v) AS lo FROM t"):
        bp = bind_sql(sql, tables_)
        expected = reference_execute(bp, tables_)
        for cand in enumerate_pipelines(bp, default_library, dev):
            got, _ = run_candidate(cand, tables_, dev, stats=stats)
            assert first_multiset_diff(got, expected) is None, (sql, cand.tag)


def _first_appearance(rows):
    """(group id per row, first row of each group) by a dict lookup per row."""
    ids, first = {}, []
    for ordinal, row in enumerate(rows):
        if row not in ids:
            ids[row] = len(first)
            first.append(ordinal)
    return [ids[row] for row in rows], first


@st.composite
def key_kinds(draw, kinds=("narrow", "wide", "char")):
    """(cell strategy, dtype) of one key column. INT keys and padded CHAR
    keys of width 1-8 are coded on their int64 image (the INT value, or the
    big-endian integer of the CHAR bytes): by offset when its span is below
    the row count, else by sorting int64. Wider CHAR keys and uint64 keys are
    coded by sorting. Kinds: narrow INT (coded by offset), wide INT from
    EDGES (sorted), uint64 (sorted), or CHAR of width 1-9 over any byte
    0x00-0xFF, in one of three shapes: arbitrary cells (a span far above the
    row count), a two-byte alphabet in the first two bytes, space padded (a
    span of 1 at width 1 and 257 at width 2, so a few hundred rows outnumber
    it), or cells that differ only in the last byte (a span of 3)."""
    kind = draw(st.sampled_from(kinds))
    if kind == "narrow":
        return st.integers(-3, 3), np.int64
    if kind == "wide":
        return st.sampled_from(EDGES), np.int64
    if kind == "hash":
        return st.sampled_from([0, 1, 2**63, MASK64 - 1, MASK64]), np.uint64
    width = draw(st.integers(1, 9))
    shape = draw(st.sampled_from(["any", "two-letter", "last-byte"]))
    if shape == "any":
        return st.binary(min_size=width, max_size=width), f"S{width}"
    if shape == "two-letter":
        low = draw(st.integers(0, 254))
        letters = itertools.product((low, low + 1), repeat=min(width, 2))
        return st.sampled_from([bytes(p).ljust(width) for p in letters]), f"S{width}"
    prefix = draw(st.binary(min_size=width - 1, max_size=width - 1))
    low = draw(st.integers(0, 252))
    return st.sampled_from([prefix + bytes([low + i]) for i in range(4)]), f"S{width}"


def _draw_column(data, kind, min_size=0, max_size=15):
    cells, dtype = kind
    return np.array(data.draw(st.lists(cells, min_size=min_size, max_size=max_size)),
                    dtype=dtype)


def _check_group_ids(keys, n):
    """Row ids are codes, not renumbered: the ids in appearance order map
    each group's appearance number to its id, and the counts are per id."""
    gid, order, first, counts = group_ids(keys, n)
    want_gid, want_first = _first_appearance(list(zip(*[k.tolist() for k in keys]))
                                             if keys else [()] * n)
    assert gid.tolist() == order[np.array(want_gid, dtype=np.intp)].tolist()
    assert first.tolist() == want_first
    assert len(set(order.tolist())) == len(order)
    assert counts[order].tolist() == np.bincount(want_gid, minlength=len(order)).tolist()
    assert counts.sum() == n


@settings(max_examples=300, deadline=None)
@given(st.data(), st.lists(key_kinds(), max_size=3), st.integers(0, 12))
def test_group_ids_number_groups_by_first_appearance(data, kinds, n):
    _check_group_ids([_draw_column(data, kind, n, n) for kind in kinds], n)


def test_group_ids_redensify_when_the_key_product_exceeds_the_rows():
    # more key combinations than rows, whichever key comes first
    a = np.array([3, 1, 3, 0], dtype=np.int64)
    b = np.array([b"x", b"y", b"x", b"z"])
    c = np.array([INT64_MIN, 0, INT64_MIN, INT64_MAX], dtype=np.int64)
    _check_group_ids([a, b, c], 4)
    _check_group_ids([c, a, b, a], 4)


@pytest.mark.parametrize("keys", [
    # a new key in the last row, far past the first 4 x groups rows
    [np.array([7] * 1000 + [3], dtype=np.int64)],
    [np.array([b"aa"] * 1000 + [b"ab"])],
    [np.array([5] * 1000 + [5], dtype=np.int64), np.array([0] * 1000 + [1], dtype=np.int64)],
    # every row its own group, in descending and in scattered order
    [np.arange(300, 0, -1, dtype=np.int64)],
    [np.random.default_rng(3).permutation(500).astype(np.int64) * 2**40],
])
def test_group_ids_find_groups_that_first_appear_late(keys):
    _check_group_ids(keys, len(keys[0]))


def _forbid_sorting(monkeypatch):
    def unsorted(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", unsorted)


def match_pairs(outer, inner):
    """Pairs as a join makes them: the keys coded jointly, then paired on
    their codes."""
    (outer_code, inner_code), n_codes, _ = joint_codes([outer, inner])
    return pair_positions(outer_code, inner_code, n_codes)


def _pairs_by_nested_loop(outer, inner):
    return [(a, b) for a, x in enumerate(outer) for b, y in enumerate(inner) if x == y]


@settings(max_examples=300, deadline=None)
@given(st.data(), key_kinds(("narrow", "wide", "hash", "char")))
def test_match_pairs_is_the_ordered_nested_loop(data, kind):
    outer, inner = _draw_column(data, kind), _draw_column(data, kind)
    o, i = match_pairs(outer, inner)
    assert list(zip(o.tolist(), i.tolist())) == _pairs_by_nested_loop(outer.tolist(),
                                                                      inner.tolist())


@pytest.mark.parametrize("outer, inner, pairs", [
    ([3, 1, 3, 2], [2, 3, 5], [(0, 1), (2, 1), (3, 0)]),  # unique inner keys
    ([3, 1, 3, 2], [3, 2, 3], [(0, 0), (0, 2), (2, 0), (2, 2), (3, 1)]),  # a repeated key
    ([1, 2], [3, 4], []),  # no key matches
    ([1, 1], [1, 1], [(0, 0), (0, 1), (1, 0), (1, 1)]),  # one key on both sides
    ([], [1, 2], []),
    ([1, 2], [], []),
    ([], [], []),
])
def test_match_pairs_with_and_without_unique_inner_keys(outer, inner, pairs):
    o, i = match_pairs(np.array(outer, dtype=np.int64), np.array(inner, dtype=np.int64))
    assert list(zip(o.tolist(), i.tolist())) == pairs


@settings(max_examples=300, deadline=None)
@given(st.data(), key_kinds(("narrow", "wide", "hash", "char")), st.booleans())
def test_pair_codes_leave_out_the_outer_positions_of_one_partner_each(data, kind, from_inner):
    """The outer positions are None exactly when the inner keys are
    unique and every outer row has its partner; the inner positions are
    then each outer row's partner. With `from_inner`, the outer keys are
    drawn from the inner ones, so that every outer row matches, once or
    more."""
    inner = _draw_column(data, kind)
    if from_inner and len(inner):
        outer = np.array(data.draw(st.lists(st.sampled_from(inner.tolist()), max_size=15)),
                         dtype=inner.dtype)
    else:
        outer = _draw_column(data, kind)
    (outer_code, inner_code), n_codes, _ = joint_codes([outer, inner])
    o, i = pair_codes(outer_code, inner_code, n_codes)
    pairs = _pairs_by_nested_loop(outer.tolist(), inner.tolist())
    one_each = [a for a, _ in pairs] == list(range(len(outer)))
    unique_inner = len(np.unique(inner_code)) == len(inner_code)
    assert (o is None) == (one_each and unique_inner)
    if one_each:
        assert list(enumerate(i.tolist())) == pairs


@pytest.mark.parametrize("outer, inner, outer_pos, inner_pos", [
    ([3, 1, 3], [1, 3, 5], None, [1, 0, 1]),  # unique inner keys, each outer row matched
    ([3, 1, 4], [1, 3, 5], [0, 1], [1, 0]),  # an unmatched outer row
    ([3, 1], [3, 1, 3], [0, 0, 1], [0, 2, 1]),  # an outer row meets a repeated inner key
    ([1, 1], [3, 1, 3], [0, 1], [1, 1]),  # one partner each, but a repeated inner key
    ([], [1, 2], None, []),
    ([], [1, 1], [], []),
])
def test_pair_codes_with_one_partner_each_or_not(outer, inner, outer_pos, inner_pos):
    (outer_code, inner_code), n_codes, _ = joint_codes([np.array(outer, dtype=np.int64),
                                                        np.array(inner, dtype=np.int64)])
    o, i = pair_codes(outer_code, inner_code, n_codes)
    assert (None if o is None else o.tolist(), i.tolist()) == (outer_pos, inner_pos)


def _draw_key_sides(data, case):
    """Two key arrays of one dtype: both of a `key_kinds` kind; CHAR keys
    of two widths padded to the wider one, as the engine pads join keys;
    or one kind with one side or both empty."""
    if case == "padded":
        widths = sorted(data.draw(st.lists(st.integers(1, 9), min_size=2, max_size=2,
                                           unique=True)))
        cells = st.text("ab ", max_size=widths[0]).map(str.encode)
        sides = [np.array(data.draw(st.lists(cells, max_size=15)), dtype=f"S{w}")
                 for w in widths]
        return [pad_bytes(side, widths[1]) for side in sides]
    if case == "empty":
        kind = data.draw(key_kinds(("narrow", "wide", "hash", "char")))
        sizes = data.draw(st.sampled_from([(0, 0), (0, 15), (15, 0)]))
        return [_draw_column(data, kind, n, n) for n in sizes]
    kind = data.draw(key_kinds((case,)))
    return [_draw_column(data, kind), _draw_column(data, kind)]


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(["narrow", "wide", "hash", "char", "padded", "empty"]))
def test_joint_codes_code_two_sides_as_one_and_pair_on_codes(data, case):
    """Keys of either side share a code exactly when they are equal, codes
    lie in [0, n_codes) and order like the keys, and pairing on the codes
    is the ordered nested loop over the keys."""
    outer, inner = _draw_key_sides(data, case)
    (outer_code, inner_code), n_codes, _ = joint_codes([outer, inner])
    assert (outer_code.shape, inner_code.shape) == (outer.shape, inner.shape)
    keys = outer.tolist() + inner.tolist()
    code = outer_code.tolist() + inner_code.tolist()
    assert all(0 <= c < n_codes for c in code)
    for x, cx in zip(keys, code):
        for y, cy in zip(keys, code):
            assert ((x == y), (x < y)) == ((cx == cy), (cx < cy))
    o, i = pair_positions(outer_code, inner_code, n_codes)
    assert list(zip(o.tolist(), i.tolist())) == _pairs_by_nested_loop(outer.tolist(),
                                                                      inner.tolist())


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(["narrow", "wide", "hash", "char", "padded", "empty"]))
def test_joint_codes_name_the_base_of_offset_codes(data, case):
    """Offset codes come with their base, the joint minimum image: each
    value's image is the base plus its code. Sorted codes have no base."""
    sides = _draw_key_sides(data, case)
    codes_, n_codes, base = joint_codes(sides)
    images = [int_image(side) for side in sides]
    if base is None:
        return
    assert base == min(int(i.min()) for i in images if len(i))
    for image, code in zip(images, codes_):
        assert (image - base).tolist() == code.tolist()


@pytest.mark.parametrize("outer, inner, dtype, want, sorts", [
    # a joint span of 7 below 7 rows: coded by offset from the joint minimum
    ([5, 3, 9], [4, 3, 8, 7], np.int64, ([2, 0, 6], [1, 0, 5, 4], 7), False),
    ([b"b", b"a"], [b"c", b"c"], "S1", ([1, 0], [2, 2], 3), False),
    ([], [2, 1], np.int64, ([], [1, 0], 2), False),
    # a joint span at least the row count: coded by sorting
    ([0, 2**40], [5, 0], np.int64, ([0, 2], [1, 0], 3), True),
    ([b"abcdefghi"], [b"abcdefghh", b"abcdefghi"], "S9", ([1], [0, 1], 2), True),
    ([], [], np.int64, ([], [], 0), True),
])
def test_joint_codes_by_offset_neither_sort_nor_concatenate(monkeypatch, outer, inner, dtype,
                                                            want, sorts):
    sides = [np.array(outer, dtype=dtype), np.array(inner, dtype=dtype)]
    calls = []
    for name in ("unique", "concatenate"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, _real=real, _name=name, **k:
                            calls.append(_name) or _real(*a, **k))
    (outer_code, inner_code), n_codes, _ = joint_codes(sides)
    assert (outer_code.tolist(), inner_code.tolist(), n_codes) == want
    assert calls == (["concatenate", "unique"] if sorts else [])


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 9), st.booleans())
def test_int_image_is_the_big_endian_integer_of_the_bytes(data, width, strided):
    """Each cell's image is the big-endian integer of its w bytes minus
    2**(8w - 1), for any byte, read in place or through a stride; CHAR wider
    than 8 has none."""
    cells = data.draw(st.lists(st.binary(min_size=width, max_size=width), max_size=12))
    values = np.array(cells, dtype=f"S{width}")
    if strided:  # every other cell of a twice-as-long array
        junk = data.draw(st.lists(st.binary(min_size=width, max_size=width),
                                  min_size=len(cells), max_size=len(cells)))
        both = np.empty(2 * len(cells), dtype=f"S{width}")
        both[::2], both[1::2] = cells, junk
        values = both[::2]
    image = int_image(values)
    if width > 8:
        assert image is None
        return
    want = []
    for cell in cells:
        word = 0
        for byte in cell:
            word = word * 256 + byte
        want.append(word - 2 ** (8 * width - 1))
    assert image.dtype == np.int64
    assert image.tolist() == want


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(["=", "<>"]), st.integers(1, 9), st.integers(0, 9),
       st.booleans())
def test_char_comparison_is_the_padded_byte_comparison(data, op, width, other, literal):
    """A CHAR comparison of width at most 8 runs on int64 images, a wider
    one on the bytes; either way it compares both sides' bytes space-padded
    to the wider width, for any byte and with either side the wider."""
    cells = data.draw(st.lists(st.binary(min_size=width, max_size=width), max_size=12))
    columns = [np.array(cells, dtype=f"S{width}")]
    if literal:  # printable ASCII, padded to at least one byte
        text = data.draw(st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E),
                                 min_size=other, max_size=other))
        rhs, right = StrLiteral(text), [text.ljust(1).encode("ascii")] * len(cells)
    else:
        other = max(other, 1)
        right = data.draw(st.lists(st.binary(min_size=other, max_size=other),
                                   min_size=len(cells), max_size=len(cells)))
        columns.append(np.array(right, dtype=f"S{other}"))
        rhs = ValueRef("column", 0, 1, ColumnType.char(other))
    wide = max(width, other, 1)
    cmp = BCmp(op, ValueRef("column", 0, 0, ColumnType.char(width)), rhs, TypeKind.CHAR, wide)
    values, fault = _evaluate(cmp, lambda ref: columns[ref.index])
    want = [(a.ljust(wide) == b.ljust(wide)) == (op == "=") for a, b in zip(cells, right)]
    assert fault is None
    assert np.broadcast_to(values, (len(cells),)).tolist() == want


# ---------------------------------------------------------------------------
# coding and ordering keys
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.data(), key_kinds(("narrow", "wide", "hash", "char")))
def test_codes_are_ordered_and_in_range(data, kind):
    cells = data.draw(st.lists(kind[0], max_size=300))
    code, n_codes = codes(np.array(cells, dtype=kind[1]))
    assert code.shape == (len(cells),)
    assert all(0 <= c < n_codes for c in code.tolist())
    assert n_codes <= max(len(cells), 1)
    # equal cells share a code, and codes order like the cells
    by_cell = sorted(set(zip(cells, code.tolist())))
    assert [c for _, c in by_cell] == sorted({c for _, c in by_cell})
    assert len({cell for cell, _ in by_cell}) == len(by_cell)


@pytest.mark.parametrize("width", [1, 2, 8])
@pytest.mark.parametrize("prefix", [0x00, 0xFF])
def test_codes_of_a_char_key_denser_than_its_span_do_not_sort(monkeypatch, width, prefix):
    # last bytes across 0x7F/0x80; a 0xFF prefix puts width 8 at the top of int64
    cells = [bytes([prefix] * (width - 1) + [b]) for b in (0x81, 0x80, 0x7F, 0x81, 0x80)]
    values = np.array(cells, dtype=f"S{width}")

    _forbid_sorting(monkeypatch)
    code, n_codes = codes(values)
    assert (code.tolist(), n_codes) == ([2, 1, 0, 2, 1], 3)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.lists(st.booleans(), min_size=1, max_size=3))
def test_sort_order_of_char_keys_is_pythons_stable_sort(data, ascending):
    n = data.draw(st.integers(0, 40))
    keys = []
    for asc in ascending:
        cell, dtype = data.draw(key_kinds(("char",)))
        cells = data.draw(st.lists(cell, min_size=n, max_size=n))
        keys.append((cells, np.array(cells, dtype=dtype), asc))
    expected = list(range(n))
    for cells, _, asc in reversed(keys):  # least significant key first
        expected.sort(key=cells.__getitem__, reverse=not asc)
    assert sort_order([(values, asc) for _, values, asc in keys]).tolist() == expected


@settings(max_examples=300, deadline=None)
@given(st.data(), st.lists(st.tuples(key_kinds(("narrow", "wide", "char")), st.booleans()),
                           min_size=1, max_size=3), st.booleans())
def test_sort_order_is_pythons_stable_multi_key_sort(data, kinds, all_int):
    """INT keys (narrow with ties, or from EDGES, INT64_MIN and INT64_MAX
    among them) alone or mixed with CHAR keys, in mixed directions, order
    like Python's stable sort by each key, least significant first."""
    n = data.draw(st.integers(0, 40))
    if all_int:
        kinds = [(data.draw(key_kinds(("narrow", "wide"))), asc) for _, asc in kinds]
    keys = []
    for (cell, dtype), asc in kinds:
        cells = data.draw(st.lists(cell, min_size=n, max_size=n))
        keys.append((cells, np.array(cells, dtype=dtype), asc))
    expected = list(range(n))
    for cells, _, asc in reversed(keys):
        expected.sort(key=cells.__getitem__, reverse=not asc)
    assert sort_order([(values, asc) for _, values, asc in keys]).tolist() == expected


@pytest.mark.parametrize("keys, lexsorts", [
    # spans 4 and 3 over 5 rows: packed into one int64
    ([([3, 0, 3, 1, 0], True), ([b"b", b"a", b"a", b"c", b"b"], False)], False),
    # 3 rows times a span of INT64_MAX // 3: the largest packed value is
    # just inside int64
    ([([INT64_MIN, INT64_MIN + INT64_MAX // 3 - 1, INT64_MIN], False)], False),
    # one row more than fits
    ([([INT64_MIN, INT64_MIN + INT64_MAX // 3 - 1, INT64_MIN, INT64_MIN], False)], True),
    # a key spanning all of int64, ties broken by a narrow one
    ([([INT64_MAX, INT64_MIN, INT64_MAX, 0], True), ([1, 0, 0, 1], False)], True),
])
def test_sort_order_packs_its_keys_while_they_fit_int64(monkeypatch, keys, lexsorts):
    """Keys whose row count times spans fits int64 are sorted as one packed
    key, with no `np.lexsort`; wider ones fall back to it, in the same order."""
    calls = []
    real = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda *a, **k: calls.append(1) or real(*a, **k))
    columns = [(np.array(cells, dtype=np.int64 if isinstance(cells[0], int) else "S1"), asc)
               for cells, asc in keys]
    expected = list(range(len(keys[0][0])))
    for cells, asc in reversed(keys):
        expected.sort(key=cells.__getitem__, reverse=not asc)
    assert sort_order(columns).tolist() == expected
    assert bool(calls) == lexsorts
