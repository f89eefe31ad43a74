from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqf.errors import CharOverflow, MalformedCell
from sqf.relcore import (
    ColumnType,
    Schema,
    Table,
    canon_cell,
    dump_csv,
    load_csv,
    table_stats,
)


def test_load_csv_basic(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id:INT,name:CHAR(8)\n1,ann\n")
    table = load_csv(path)
    assert table.row_count == 1
    assert table.schema.arity == 2
    assert table.schema.tuple_bytes == 16
    assert table.rows[0] == (1, "ann")


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
    """Rows carry each CHAR cell as read, not padded: trailing spaces stay."""
    text = "id:INT,name:CHAR(8)\n1,ann\n-5,\n7,with  sp\n8,tail \n9,   \n"
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="ascii")
    assert dump_csv(load_csv(path)) == text


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
