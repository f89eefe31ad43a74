from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqf.arith import INT64_MAX, INT64_MIN
from sqf.errors import CharOverflow, CsvError, MalformedCell
from sqf.relcore import (
    ColumnStat,
    ColumnStats,
    ColumnType,
    Schema,
    Table,
    _load_rows,
    canon_cell,
    column_cells,
    dump_csv,
    load_csv,
    table_stats,
)
from test_cli_fuzz import FUZZ, _edits, _mutate


def test_load_csv_basic(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id:INT,name:CHAR(8)\n1,ann\n")
    table = load_csv(path)
    assert table.row_count == 1
    assert table.schema.arity == 2
    assert table.schema.tuple_bytes == 16
    assert table.rows[0] == (1, "ann     ")  # a CHAR cell reads back padded


@pytest.mark.parametrize("index, cell", [(0, 9), (1, b"bob")])
def test_a_loaded_tables_columns_are_read_only(tmp_path, index, cell):
    # the engine reads unfiltered columns in place, so no kernel may write them
    path = tmp_path / "t.csv"
    path.write_text("id:INT,name:CHAR(8)\n1,ann\n")
    values = load_csv(path).columns[index]
    with pytest.raises(ValueError, match="read-only"):
        values[0] = cell


def test_load_csv_header_only(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id:INT\n")
    assert load_csv(path).row_count == 0


def test_load_csv_malformed_cell_position(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id:INT\nx\n")
    with pytest.raises(MalformedCell) as err:
        load_csv(path)
    assert err.value.line == 2
    assert err.value.column == 1


@pytest.mark.parametrize("data, line, column, shown", [
    (b"a:INT,b:CHAR(2)\r\n1,xy\r\n", 1, 2, "`b:CHAR(2)\\x0d`"),
    (b"a:INT,b:CHAR(2)\n1,xy\r\n", 2, 2, "control byte"),
    (b"a:INT,b:CHAR(2)\n1,x\ry\n", 2, 2, "control byte"),
], ids=["crlf", "crlf-data-line", "bare-cr"])
def test_load_csv_rejects_carriage_returns(tmp_path, data, line, column, shown):
    """Only `\\n` ends a line; a `\\r` is a bad byte where it stands."""
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    with pytest.raises(MalformedCell) as err:
        load_csv(path)
    assert (err.value.line, err.value.column) == (line, column)
    assert shown in str(err.value)


def test_header_error_shows_control_bytes(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"a:INT,b\x00\x1f:INT\n1,2\n")
    with pytest.raises(MalformedCell, match=r"`b\\x00\\x1f:INT`"):
        load_csv(path)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "absent.csv")


def test_char_overflow_strict_vs_lenient(tmp_path):
    """A CHAR cell wider than its column is an error; nothing truncates it."""
    path = tmp_path / "t.csv"
    path.write_text("tag:CHAR(2)\nabc\n")
    with pytest.raises(CharOverflow) as err:
        load_csv(path)
    assert (err.value.line, err.value.column) == (2, 1)


def test_non_ascii_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes("tag:CHAR(4)\nab\tc\n".encode("ascii"))
    with pytest.raises(MalformedCell):
        load_csv(path)


def test_int_range_is_checked(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(f"id:INT\n{2**63}\n")
    with pytest.raises(MalformedCell):
        load_csv(path)
    path.write_text(f"id:INT\n{-(2**63)}\n")
    assert load_csv(path).rows == ((-(2**63),),)


def test_load_then_dump_is_byte_identical(tmp_path):
    """The dump is the file with each CHAR cell padded to its width, and
    loading the dump gives the same rows."""
    text = "id:INT,name:CHAR(8)\n1,ann\n-5,\n7,with  sp\n8,tail \n9,   \n"
    padded = ("id:INT,name:CHAR(8)\n1,ann     \n-5,        \n7,with  sp\n"
              "8,tail    \n9,        \n")
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="ascii")
    table = load_csv(path)
    assert dump_csv(table) == padded
    path.write_text(padded, encoding="ascii")
    assert load_csv(path).rows == table.rows


def test_table_stats_examples():
    t = make([3, 1, 2])
    s = table_stats(t)
    assert s.row_count == 3
    assert s.columns[0].distinct_count == 3
    assert s.columns[0].min_value == 1
    assert s.columns[0].max_value == 3

    empty = Table.from_rows(t.schema, ())
    s0 = table_stats(empty)
    assert s0.row_count == 0
    assert s0.columns[0].min_value is None and s0.columns[0].max_value is None

    assert table_stats(make([5, 5, 5])).columns[0].distinct_count == 1


def make(values):
    return Table.from_rows(Schema((("a", ColumnType.int64()),)), tuple((v,) for v in values))


_table_strategy = st.builds(
    lambda ints, chars: _build_table(ints, chars),
    st.lists(st.one_of(st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 2**63 - 1]),
                       st.integers(min_value=-(2**63), max_value=2**63 - 1)), max_size=60),
    st.lists(st.one_of(st.sampled_from(["", " ", "      ", "ab ", "a  "]),
                       st.text(alphabet="abcXYZ 09_", min_size=0, max_size=6)), max_size=60),
)


def _build_table(ints, chars):
    n = min(len(ints), len(chars))
    schema = Schema((("a", ColumnType.int64()), ("s", ColumnType.char(6))))
    return Table.from_rows(schema, tuple((ints[i], chars[i]) for i in range(n)))


@settings(max_examples=60, deadline=None)
@given(_table_strategy)
def test_dump_load_round_trip(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    text = dump_csv(table)
    path.write_text(text, encoding="ascii")
    again = load_csv(path)
    assert again.schema == table.schema
    assert again.rows == table.rows
    # byte-identical data section on re-serialization
    assert dump_csv(again) == text


@settings(max_examples=60, deadline=None)
@given(_table_strategy)
def test_stats_properties(table):
    stats = table_stats(table)
    assert stats.row_count == table.row_count
    for idx, stat in enumerate(stats.columns):
        ctype = table.schema.columns[idx][1]
        canon = [canon_cell(row[idx], ctype) for row in table.rows]
        assert stat.distinct_count == len(set(canon))
        if canon:
            assert (stat.min_value, stat.max_value) == (min(canon), max(canon))
            assert type(stat.min_value) is type(stat.max_value) is type(canon[0])
        else:
            assert stat.min_value is None and stat.max_value is None


def _stats_by_sorting(table):
    """table_stats by its definition: each column's sorted distinct values."""
    stats = []
    for col in table.columns:
        distinct = np.unique(col)
        ends = column_cells(distinct[[0, -1]]) if len(distinct) else [None, None]
        stats.append(ColumnStat(len(distinct), *ends))
    return ColumnStats(table.row_count, tuple(stats))


_PRINTABLE = st.characters(min_codepoint=0x20, max_codepoint=0x7E)


@st.composite
def _stats_columns(draw, rows):
    """(column type, cells) of one column with `rows` cells: INT of a narrow
    span at either end of int64 or anywhere, INT over the whole range, one
    repeated value, or CHAR of width 1-9 with cells that differ only in the
    last byte (a span below the row count) or in any byte."""
    kind = draw(st.sampled_from(["narrow-int", "any-int", "one-value", "narrow-char", "char"]))
    if kind == "narrow-int":
        low = draw(st.sampled_from([INT64_MIN, INT64_MAX - 3, -2]) | st.integers(-1000, 1000))
        return ColumnType.int64(), draw(st.lists(st.integers(low, low + 3), min_size=rows,
                                                 max_size=rows))
    if kind == "any-int":
        cell = st.sampled_from([INT64_MIN, INT64_MAX, 0]) | st.integers(INT64_MIN, INT64_MAX)
        return ColumnType.int64(), draw(st.lists(cell, min_size=rows, max_size=rows))
    width = draw(st.integers(1, 9))
    if kind == "one-value":
        value = draw(st.sampled_from([INT64_MIN, INT64_MAX]) | st.text(_PRINTABLE, max_size=width))
        ctype = ColumnType.int64() if isinstance(value, int) else ColumnType.char(width)
        return ctype, [value] * rows
    if kind == "narrow-char":
        prefix = draw(st.text(_PRINTABLE, min_size=width - 1, max_size=width - 1))
        cell = st.sampled_from([prefix + c for c in "~}|"])
    else:
        cell = st.text(_PRINTABLE, max_size=width)
    return ColumnType.char(width), draw(st.lists(cell, min_size=rows, max_size=rows))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(0, 40), st.integers(1, 4))
def test_table_stats_match_sorting_each_column(data, rows, arity):
    columns = [data.draw(_stats_columns(rows)) for _ in range(arity)]
    schema = Schema(tuple((f"c{i}", ctype) for i, (ctype, _) in enumerate(columns)))
    table = Table.from_rows(schema, zip(*(cells for _, cells in columns)))
    stats = table_stats(table)
    assert stats == _stats_by_sorting(table)
    assert all(type(stat.distinct_count) is int for stat in stats.columns)


# ---------------------------------------------------------------------------
# bulk ingest: load_csv against the row loop it falls back to
# ---------------------------------------------------------------------------

PARITY_CSV = b"a:INT,s:CHAR(16),b:INT\n" + b"".join(
    b"%d,%s,%d\n" % row for row in [
        (0, b"abc def", -7), (-12, b"", 999999999999999999), (7, b"a  ", -999999999999999999),
        (123456789012345678, b"        ", 42), (-1, b"x_9 yz", 5), (10, b"zz", 9)])
# bytes that keep a cell valid are listed thrice, so more mutated files load
PARITY_BYTES = [b"\r", b"\n", b",", b"\x00", b"\xff", b"\x7f", b"-", b"+", b"0" * 17,
                b"9" * 17] + [b"0", b"7", b"9", b" ", b"a"] * 3
# the first byte of every CHAR cell: most edits there keep the file valid
CHAR_CELLS = [m.end() for m in re.finditer(rb"\n[^,]*,", PARITY_CSV)]


def _load_outcome(path):
    """(bulk load_csv, row loop) results of one file: a Table, or the error's
    (type, message, line, column)."""
    outcomes = []
    for load in (load_csv, lambda p: _load_rows(p.read_bytes())):
        try:
            outcomes.append(load(path))
        except CsvError as err:
            outcomes.append((type(err), str(err), err.line, err.column))
    return outcomes


def _assert_same_load(path):
    bulk, rows = _load_outcome(path)
    if not isinstance(rows, Table):
        assert bulk == rows
        return rows
    assert isinstance(bulk, Table), bulk
    assert bulk.schema == rows.schema
    for got, want in zip(bulk.columns, rows.columns):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    return rows


def test_bulk_load_matches_row_loop(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(PARITY_CSV)
    assert _assert_same_load(path).row_count == 6  # the unmutated file loads

    @FUZZ
    @given(_edits(PARITY_CSV, PARITY_BYTES, CHAR_CELLS))
    def check(mutations):
        path.write_bytes(_mutate(PARITY_CSV, mutations))
        _assert_same_load(path)

    check()


@pytest.mark.parametrize("cell, value", [
    (b"007", 7), (b"-0", 0), (b"-9223372036854775808", -(2**63)),
    (b"1000000000000000000", 10**18), (b"9223372036854775807", 2**63 - 1),
    (b"-000000000000000000001", -1),
])
def test_bulk_load_int_cells(tmp_path, cell, value):
    path = tmp_path / "t.csv"
    path.write_bytes(b"a:INT,s:CHAR(1)\n1,x\n" + cell + b",y\n")
    assert _assert_same_load(path).rows == ((1, "x"), (value, "y"))


@pytest.mark.parametrize("cell", [b"9223372036854775808", b"+5", b"-", b"", b" 5", b"5 ",
                                  b"--5", b"1-"])
def test_bulk_load_rejects_int_cells(tmp_path, cell):
    path = tmp_path / "t.csv"
    path.write_bytes(b"a:INT,s:CHAR(1)\n1,x\n" + cell + b",y\n")
    rows = _assert_same_load(path)
    assert rows[0] is MalformedCell and rows[2:] == (3, 1)


def test_bulk_load_char_cells_keep_their_spaces(tmp_path):
    text = b"s:CHAR(4),a:INT\n,1\n    ,2\nab ,3\n a,4\nabcd,5\n"
    path = tmp_path / "t.csv"
    path.write_bytes(text)
    table = _assert_same_load(path)
    assert [row[0] for row in table.rows] == ["    ", "    ", "ab  ", " a  ", "abcd"]
    assert table.columns[0].tolist() == [b"    ", b"    ", b"ab  ", b" a  ", b"abcd"]


@pytest.mark.parametrize("data, rows", [
    (b"a:INT,s:CHAR(2)\n1,x\n2,yy", ((1, "x "), (2, "yy"))),
    (b"a:INT,s:CHAR(2)\n", ()),
    (b"a:INT,s:CHAR(2)", ()),
    (b"s:CHAR(2)\nab\n\n", (("ab",), ("  ",))),
])
def test_bulk_load_line_ends(tmp_path, data, rows):
    """No final newline, a header-only file with and without its newline,
    and an empty last line of a one-column CHAR table."""
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    assert _assert_same_load(path).rows == rows


@pytest.mark.parametrize("bad", [b"\r", b"\xc3\xa9", b"\x7f"])
def test_bulk_load_reports_a_late_bad_byte_at_its_line(tmp_path, bad):
    body = b"".join(b"%d,ab\n" % i for i in range(60))
    data = b"a:INT,s:CHAR(4)\n" + body + b"61,a" + bad + b"\n62,cd\n"
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    err = _assert_same_load(path)
    assert err[0] is MalformedCell and err[2:] == (62, 2)


@pytest.mark.parametrize("data, line, column", [
    (b"a:INT,b:INT\n1\n2,3,4\n", 2, 1),
    (b"a:INT,b:INT\n1,2,3\n4\n", 2, 3),
    (b"a:INT,b:INT\n1,2\n3\n", 3, 1),
])
def test_bulk_load_checks_each_line_arity(tmp_path, data, line, column):
    """A file whose separator count fits the arity can still have a short
    line and a long one."""
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    err = _assert_same_load(path)
    assert err[0] is MalformedCell and err[2:] == (line, column)
