"""Relational data model: typed columns, immutable tables, CSV ingest, statistics.

The data model is deliberately small: 64-bit signed integers and fixed-width
ASCII CHAR(n) cells. A table is stored as its columns, one numpy array per
schema column: int64 for INT, `S<n>` for CHAR(n). The schema is the one
record of each column's name and type; row tuples are a view read off the
arrays. A CHAR cell has one representation, its bytes space-padded to the
column width, so rows, results and dumps carry it padded, as SQL CHAR(n)
values are.
Tables are immutable after load and safe to share across concurrently
executing pipelines.

CSV dialect: comma separator, no quoting, no escapes, `\\n` line terminators,
printable ASCII only. The first line is a typed header such as
`orderkey:INT,status:CHAR(1),total:INT`; a CHAR cell wider than its column
is an error.

Ingest is bulk: the body's bytes are checked and parsed as one uint8 array
(printable bytes, separator positions, per-line separator counts, INT
digits, CHAR widths), with no Python per cell. Errors come from the row
loop: when any bulk check fails, or an INT cell has 19 or more digits and
needs the exact range check, the file is loaded again cell by cell, and
that loop raises at the first bad cell with its line and column.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .arith import INT64_MAX, INT64_MIN
from .errors import CharOverflow, MalformedCell

CHAR_MAX_WIDTH = 64

IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"  # column, table and query names alike

_IDENT_RE = re.compile(rf"{IDENTIFIER}\Z")
_INT_CELL_RE = re.compile(r"-?[0-9]+\Z")
_HEADER_COL_RE = re.compile(rf"({IDENTIFIER}):(INT|CHAR\(([0-9]+)\))\Z")


class TypeKind(enum.Enum):
    INT = "INT"
    CHAR = "CHAR"


@dataclass(frozen=True)
class ColumnType:
    kind: TypeKind
    width_bytes: int

    def __post_init__(self):
        if self.kind is TypeKind.INT:
            if self.width_bytes != 8:
                raise ValueError("INT columns are always 8 bytes wide")
        elif not 1 <= self.width_bytes <= CHAR_MAX_WIDTH:
            raise ValueError(f"CHAR width must be in [1, {CHAR_MAX_WIDTH}]")

    @staticmethod
    def int64() -> "ColumnType":
        return ColumnType(TypeKind.INT, 8)

    @staticmethod
    def char(width: int) -> "ColumnType":
        return ColumnType(TypeKind.CHAR, width)

    def render(self) -> str:
        if self.kind is TypeKind.INT:
            return "INT"
        return f"CHAR({self.width_bytes})"


@dataclass(frozen=True)
class Schema:
    """Ordered (name, type) columns; names are unique case-insensitively."""

    columns: tuple[tuple[str, ColumnType], ...]

    def __post_init__(self):
        if len(self.columns) < 1:
            raise ValueError("schema needs at least one column")
        seen = set()
        for name, _ in self.columns:
            if not _IDENT_RE.match(name):
                raise ValueError(f"bad column name `{name}`")
            low = name.lower()
            if low in seen:
                raise ValueError(f"duplicate column name `{name}`")
            seen.add(low)

    @property
    def arity(self) -> int:
        return len(self.columns)

    @property
    def tuple_bytes(self) -> int:
        return sum(t.width_bytes for _, t in self.columns)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.columns)

    def index_of(self, name: str) -> int:
        index = self._index.get(name.lower())
        if index is None:
            raise KeyError(name)
        return index

    @cached_property
    def _index(self) -> dict:
        """Each column's position by its lower-cased name."""
        return {col.lower(): i for i, (col, _) in enumerate(self.columns)}

    def header_text(self) -> str:
        return ",".join(f"{name}:{ctype.render()}" for name, ctype in self.columns)


def pad_char(value: str, width: int) -> str:
    """Canonical CHAR content: space-padded to the declared width."""
    return value.ljust(width)


def canon_cell(value, ctype: ColumnType):
    """Cell in its comparison domain (CHAR padded, INT as-is)."""
    if ctype.kind is TypeKind.CHAR:
        return pad_char(value, ctype.width_bytes)
    return value


def encode_cell(value, ctype: ColumnType) -> bytes:
    if ctype.kind is TypeKind.INT:
        return (value & ((1 << 64) - 1)).to_bytes(8, "little")
    return pad_char(value, ctype.width_bytes).encode("ascii")


def encode_row(row: tuple, schema: Schema) -> bytes:
    """Fixed-width byte image of a tuple (INT little-endian, CHAR padded)."""
    return b"".join(encode_cell(v, t) for v, (_, t) in zip(row, schema.columns))


def pad_bytes(values: np.ndarray, width: int) -> np.ndarray:
    """Space-pad an `S<n>` array (n <= width) to `S<width>`."""
    if values.dtype.itemsize == width:
        return values
    n, size = len(values), values.dtype.itemsize
    out = np.full((n, width), 0x20, dtype=np.uint8)
    out[:, :size] = values.view(np.uint8).reshape(n, size)
    return out.view(f"S{width}").reshape(-1)


def int_image(values: np.ndarray) -> np.ndarray | None:
    """An int64 array that orders like `values`, or None: int64 values as
    they are; an `S<w>` array with w <= 8 as the big-endian integer of each
    cell's w bytes minus 2**(8w - 1), so that it orders as numpy compares
    the bytes (unsigned, 0x80-0xFF included) and equal cells share an
    image. Wider CHAR cells have none.

    At widths 1, 2, 4 and 8 each cell is read as one big-endian unsigned
    word (`>u<w>`), strided input included; at width 8 the subtraction is
    a flip of the top bit. Widths 3, 5, 6 and 7 shift in one byte at a
    time."""
    if values.dtype == np.int64:
        return values
    width = values.dtype.itemsize
    if values.dtype.kind != "S" or width > 8:
        return None
    if width == 8:
        image = values.view(">i8").astype(np.int64)
        image ^= np.int64(-(1 << 63))
        return image
    if width in (1, 2, 4):
        image = values.view(f">u{width}").astype(np.int64)
        image -= 1 << (8 * width - 1)
        return image
    cells = np.ascontiguousarray(values).view(np.uint8).reshape(-1, width)
    image = cells[:, 0].astype(np.int64) - 0x80  # keeps 8 bytes inside int64
    for k in range(1, width):
        image <<= 8
        image |= cells[:, k]
    return image


def joint_codes(arrays: list) -> tuple[list, int, int | None]:
    """(code per value of each array, number of codes, base) of arrays of
    one dtype, coded as one: equal values of any of them share a code,
    codes order like the values, and every code is in [0, number of codes).
    An INT key or a CHAR key of width at most 8 is coded on its int64 image
    (`int_image`): by its offset from the joint minimum, the base, when the
    images' joint span is below their total row count (a code's image is
    then the base plus the code, and codes may skip values no row holds),
    with no concatenation; else by sorting the images, and anything else by
    sorting the values, with base None."""
    images = [int_image(values) for values in arrays]
    if images[0] is not None:
        held = [image for image in images if len(image)]
        if held:
            lo = min(int(image.min()) for image in held)
            span = max(int(image.max()) for image in held) - lo
            if span < sum(map(len, images)):
                return [image - lo for image in images], span + 1, lo
        arrays = images
    values = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    distinct, code = np.unique(values, return_inverse=True)
    ends = np.cumsum([len(array) for array in arrays])
    return np.split(code.reshape(-1), ends[:-1]), len(distinct), None


def codes(values: np.ndarray) -> tuple[np.ndarray, int]:
    """`joint_codes` of one array: (code per value, number of codes)."""
    (code,), n_codes, _ = joint_codes([values])
    return code, n_codes


def column_array(ctype: ColumnType, values) -> np.ndarray:
    """A column's array from its Python cells: int64 for INT; for CHAR(w),
    an `S<w>` array of each cell's bytes space-padded to w, the one form a
    CHAR cell takes: it compares and hashes as the padded content, and
    reads back as the padded text."""
    if ctype.kind is TypeKind.INT:
        return np.array(values, dtype=np.int64)
    width = ctype.width_bytes
    if any(len(v) > width for v in values):
        raise ValueError(f"CHAR({width}) column holds a longer value")
    return np.array([pad_char(v, width) for v in values], dtype=f"S{width}")


def column_cells(values: np.ndarray) -> list:
    """A column's cells as Python values: ints, or the padded CHAR text."""
    return (values.astype(str) if values.dtype.kind == "S" else values).tolist()


def encode_columns(columns) -> list[np.ndarray]:
    """One (rows, cell bytes) uint8 view per column; row i of the views,
    concatenated, is encode_row of row i. No bytes are copied for a
    contiguous little-endian column."""
    n = len(columns[0])
    views = []
    for col in columns:
        values = np.ascontiguousarray(col)
        if values.dtype.kind == "i":
            values = values.astype("<i8", copy=False)
        views.append(values.view(np.uint8).reshape(n, values.dtype.itemsize))
    return views


@dataclass(frozen=True, eq=False)
class Table:
    """An immutable table: one array per schema column (`column_array`'s
    dtypes), all of one length. The arrays are made read-only, so a column
    handed out to be read in place cannot be written through. Tables
    compare by identity; compare results with `rows` or the oracle's
    multisets."""

    schema: Schema
    columns: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.columns) != self.schema.arity:
            raise ValueError(f"{len(self.columns)} columns, schema has {self.schema.arity}")
        if len(set(map(len, self.columns))) != 1:
            raise ValueError("columns differ in length")
        for col in self.columns:
            col.flags.writeable = False

    @property
    def row_count(self) -> int:
        return len(self.columns[0])

    @cached_property
    def rows(self) -> tuple[tuple, ...]:
        """Row tuples read off the columns (CHAR cells as their padded
        text), built on first use and kept."""
        return tuple(zip(*map(column_cells, self.columns)))

    @classmethod
    def from_rows(cls, schema: Schema, rows) -> "Table":
        """Table of the given row tuples; a CHAR cell is text of at most its
        column width, and is stored padded."""
        arity = schema.arity
        rows = tuple(rows)
        if set(map(len, rows)) - {arity}:
            i, row = next((i, r) for i, r in enumerate(rows) if len(r) != arity)
            raise ValueError(f"row {i} has {len(row)} cells, schema has {arity}")
        cells = list(zip(*rows)) or [()] * arity
        return cls(schema, tuple(column_array(ctype, list(values))
                                 for values, (_, ctype) in zip(cells, schema.columns)))


def _show(text: str) -> str:
    """Text as read, with each control or non-ASCII byte shown as `\\xNN`."""
    return "".join(chr(b) if 0x20 <= b <= 0x7E else f"\\x{b:02x}"
                   for b in text.encode("ascii", "surrogateescape"))


def parse_header(line: str) -> Schema:
    """Parse `name:TYPE[,name:TYPE...]`; a bad column raises MalformedCell
    at line 1 and that column."""
    cols = []
    seen = set()
    for col_no, part in enumerate(line.split(","), start=1):
        m = _HEADER_COL_RE.match(part)
        if not m:
            raise MalformedCell(1, col_no, f"bad header column `{_show(part)}`")
        name, spec, width = m.group(1), m.group(2), m.group(3)
        if name.lower() in seen:
            raise MalformedCell(1, col_no, f"duplicate column name `{name}`")
        seen.add(name.lower())
        if spec == "INT":
            cols.append((name, ColumnType.int64()))
        else:
            w = int(width)
            if not 1 <= w <= CHAR_MAX_WIDTH:
                raise MalformedCell(1, col_no, f"CHAR width {w} out of range")
            cols.append((name, ColumnType.char(w)))
    return Schema(tuple(cols))


def _parse_cell(text: str, ctype: ColumnType, line_no: int, col_no: int):
    # on the surrogateescape decode, exactly the bytes 0x20-0x7E are printable
    if not text.isprintable():
        raise MalformedCell(line_no, col_no, "non-ASCII or control byte in cell")
    if ctype.kind is TypeKind.INT:
        if not _INT_CELL_RE.match(text):
            raise MalformedCell(line_no, col_no, f"`{text}` is not an INT")
        value = int(text)
        if value < INT64_MIN or value > INT64_MAX:
            raise MalformedCell(line_no, col_no, f"`{text}` exceeds 64-bit range")
        return value
    if len(text) > ctype.width_bytes:
        raise CharOverflow(line_no, col_no, ctype.width_bytes, len(text))
    return text


def load_csv(path) -> Table:
    """Load a typed CSV file, whose first line is its typed header, into an
    immutable Table. The first bad cell raises with its line and column."""
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such table file: {p}")
    data = p.read_bytes()
    table = _load_bulk(data)
    return _load_rows(data) if table is None else table


def _load_rows(data: bytes) -> Table:
    """The row loop: every cell through `_parse_cell`, in file order, so the
    first bad cell raises with its line and column."""
    # bytes, not text: universal newlines would turn `\r\n` and a bare `\r`
    # into `\n`. A `\r` and a non-ASCII byte (decoded to a surrogate) both
    # reach the header and cell checks, which reject them with their line
    # and column.
    text = data.decode("ascii", errors="surrogateescape")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise MalformedCell(1, 1, "empty file has no header")

    schema = parse_header(lines[0])
    types = [ctype for _, ctype in schema.columns]
    values = [[] for _ in types]
    arity = schema.arity
    for line_no, line in enumerate(lines[1:], start=2):  # header is line 1
        cells = line.split(",")
        if len(cells) != arity:
            raise MalformedCell(line_no, len(cells), f"expected {arity} cells, got {len(cells)}")
        for col_no, (cell, ctype, out) in enumerate(zip(cells, types, values), start=1):
            out.append(_parse_cell(cell, ctype, line_no, col_no))
    return Table(schema, tuple(column_array(ctype, column)
                               for ctype, column in zip(types, values)))


_INT_BULK_DIGITS = 18  # 10**18 - 1 < INT64_MAX; longer cells need int()


def _load_bulk(data: bytes) -> Table | None:
    """The table `_load_rows` returns, built from whole-array checks on the
    body's bytes; None where any check fails or an INT cell is too long to
    parse in bulk, so the row loop loads the file or locates its error."""
    head_end = data.find(b"\n")
    if head_end < 0:
        return None  # empty, or a header without its `\n`
    try:
        schema = parse_header(data[:head_end].decode("ascii", errors="surrogateescape"))
    except MalformedCell:
        return None
    body = np.frombuffer(data, dtype=np.uint8, offset=head_end + 1)
    if body.size and body[-1] != ord("\n"):
        body = np.append(body, np.uint8(ord("\n")))  # the last line lacks its `\n`
    newline = body == ord("\n")
    # printable ASCII is 0x20-0x7E; a byte below 0x20 wraps around past it
    if not ((body - np.uint8(0x20) < 0x5F) | newline).all():
        return None
    seps = np.flatnonzero(newline | (body == ord(",")))
    arity = schema.arity
    if seps.size % arity:
        return None
    # line i's separators are row i of `ends`: arity - 1 commas, then its `\n`
    ends = seps.reshape(-1, arity)
    expected = np.full(arity, ord(","), dtype=np.uint8)
    expected[-1] = ord("\n")
    if not (body[ends] == expected).all():
        return None
    starts = np.empty_like(seps)
    starts[:1] = 0
    starts[1:] = seps[:-1] + 1
    starts = starts.reshape(-1, arity)

    columns = []
    for j, (_, ctype) in enumerate(schema.columns):
        bulk = _bulk_int if ctype.kind is TypeKind.INT else _bulk_char
        column = bulk(body, starts[:, j], ends[:, j], ctype)
        if column is None:
            return None
        columns.append(column)
    return Table(schema, tuple(columns))


def _bulk_int(body, start, end, ctype: ColumnType) -> np.ndarray | None:
    """Cells `body[start:end]` matching `-?[0-9]{1,18}` as an int64 array,
    else None. Digits accumulate one position at a time across all cells."""
    negative = body[start] == ord("-")  # an empty cell reads its separator
    first = start + negative
    digits = end - first
    if digits.size and not (digits.min() >= 1 and digits.max() <= _INT_BULK_DIGITS):
        return None
    value = np.zeros(len(start), dtype=np.int64)
    for k in range(int(digits.max()) if digits.size else 0):
        live = digits > k
        digit = body[np.minimum(first + k, end)] - np.uint8(ord("0"))  # wraps below `0`
        if (live & (digit > 9)).any():
            return None
        value = np.where(live, value * 10 + digit, value)
    return np.where(negative, -value, value)


def _bulk_char(body, start, end, ctype: ColumnType) -> np.ndarray | None:
    """Cells `body[start:end]` of at most the declared width as an
    `S<width>` array, else None."""
    width = ctype.width_bytes
    length = end - start
    if length.size and length.max() > width:
        return None
    cells = np.zeros((len(start), width), dtype=np.uint8)
    for k in range(int(length.max()) if length.size else 0):
        cells[:, k] = body[np.minimum(start + k, end)]
    cells[np.arange(width) >= length[:, None]] = 0x20
    return cells.view(f"S{width}").reshape(-1)


def dump_csv(table: Table) -> str:
    """Serialize with a normalized header; the inverse of load_csv up to CHAR
    padding, as each CHAR cell is written padded to its column width."""
    out = [table.schema.header_text()]
    out += (",".join(map(str, row)) for row in table.rows)
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class ColumnStat:
    distinct_count: int
    min_value: object | None
    max_value: object | None


@dataclass(frozen=True)
class ColumnStats:
    """Exact per-table statistics; the planner's selectivity inputs.
    `columns` holds one stat per schema column, in schema order, so a
    column's stat is found by the index its `ValueRef` carries."""

    row_count: int
    columns: tuple[ColumnStat, ...]


def table_stats(table: Table) -> ColumnStats:
    """Exact counts, no sampling, one stat per column of `table.columns`.
    CHAR min/max compare on padded content. Each column is counted on its
    `codes`, which order like its values."""
    stats = []
    for col in table.columns:
        if not len(col):
            stats.append(ColumnStat(0, None, None))
            continue
        code, n_codes = codes(col)
        count = int(np.count_nonzero(np.bincount(code, minlength=n_codes)))
        ends = [int(code.argmin()), int(code.argmax())]
        stats.append(ColumnStat(count, *column_cells(col[ends])))
    return ColumnStats(table.row_count, tuple(stats))
