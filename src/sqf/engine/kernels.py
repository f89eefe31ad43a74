"""Vector kernels of the columnar engine: checked 64-bit arithmetic, pair
matching for joins, grouping, and ordering.

Arithmetic returns a per-row fault code beside the values instead of
raising, so the executor can report the first faulting row in stream order.
A faulted row's value is unspecified. The scalar primitives in `sqf.arith`
are the reference these kernels are tested against. `+`, `-` and `*` first
try a per-batch proof (interval arithmetic over the operands' min and max):
when every corner of the result range lies inside int64, no row can
overflow and the plain numpy result is returned without a per-row check.

Joins, grouping and the co-design join's bloom stage (which hashes one key
per code) address keys by a code (`relcore.codes`), and ordering by an
int64 rank. An INT key, and a padded CHAR key of width at most 8, has an
order-preserving int64 image (`relcore.int_image`: the INT value, or the
big-endian integer of the CHAR bytes), which is its rank. An image whose
span is smaller than its row count is coded by its offset from the
minimum, with no sort; a wider image is coded by sorting int64, and a
wider CHAR key by sorting its bytes. A join is one coding step, the two
sides' canonical keys coded jointly (`relcore.joint_codes`, with no
concatenation when they are coded by offset), plus one pairing kernel on
the codes, `pair_codes`, which returns pair indices, not rows; when the
inner codes are unique it maps each outer row to its one inner row with a
single gather, and when every outer row then has its partner it returns
no outer indices at all (None: every row, in order). Every join
strategy pairs rows this way, and codes its keys once: the co-design host
join pairs on the codes its bloom stage made.

Ordering packs each row's ranks into one int64 sort key (a normalized
key): the row's position, plus each key's offset from its minimum rank
weighted by the row count and the spans of the less significant keys.
The packed keys are distinct, so one `np.sort` of them, modulo the row
count, is the stable multi-key order; keys whose spans leave no room in
int64 are sorted by `np.lexsort`.

Aggregation runs in code space: a row's group id is the code its keys
give, never renumbered, and every aggregate folds into one entry per id.
Only the per-group results are put in first-appearance order. An INT
MIN or MAX is its per-id extreme; a CHAR one is the value at the row of
its extreme rank. SUM skips its running-sum overflow scan only when the
row count times the largest magnitude proves that no running sum can
leave int64.
"""

from __future__ import annotations

import math

import numpy as np

from ..arith import INT64_MAX, INT64_MIN
from ..relcore import codes, int_image

OK, OVERFLOW, DIVZERO = 0, 1, 2  # per-row fault codes

_MIN = np.int64(INT64_MIN)
_PLAIN = {"+": np.add, "-": np.subtract, "*": np.multiply}  # ops with a range proof


def checked_arith(op: str, a, b) -> tuple[np.ndarray, np.ndarray]:
    """(values, fault codes) of `a op b` over int64 operands, elementwise.

    Overflow is detected exactly. For `+`, `-` and `*` the batch is first
    proven safe from the operands' ranges: if every corner of the result
    range (the two extreme sums or differences, or the four products of
    the operands' min and max) lies inside int64, no row can overflow, and
    the plain numpy result comes back with all-OK codes. Otherwise each row
    is checked. Division truncates toward zero, as `sqf.arith.div64` does;
    a zero divisor is DIVZERO and INT64_MIN / -1 is OVERFLOW.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if op in _PLAIN and _fits_int64(op, a, b):
        r = _PLAIN[op](a, b)
        return r, np.zeros(r.shape, dtype=np.uint8)
    return _checked_rows(op, a, b)


def _fits_int64(op: str, a: np.ndarray, b: np.ndarray) -> bool:
    """Whether `a op b` stays inside int64 on every row, by interval
    arithmetic over the operands' min and max as Python ints."""
    if not a.size or not b.size:
        return True
    alo, ahi, blo, bhi = int(a.min()), int(a.max()), int(b.min()), int(b.max())
    if op == "+":
        corners = (alo + blo, ahi + bhi)
    elif op == "-":
        corners = (alo - bhi, ahi - blo)
    else:
        corners = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return INT64_MIN <= min(corners) and max(corners) <= INT64_MAX


def _checked_rows(op: str, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`checked_arith` with an exact check of every row."""
    with np.errstate(all="ignore"):  # wrapped results are flagged, not used
        if op == "+":
            r = a + b
            fault = ((a ^ r) & (b ^ r)) < 0
        elif op == "-":
            r = a - b
            fault = ((a ^ b) & (a ^ r)) < 0
        elif op == "*":
            r = a * b
            # a wrapped product fails r // a == b; a == -1 is kept out of the
            # division because INT64_MIN // -1 itself wraps
            plain = (a != 0) & (a != -1)
            q = r // np.where(plain, a, 1)
            fault = (plain & (q != b)) | ((a == -1) & (b == _MIN))
        elif op == "/":
            zero = b == 0
            wraps = (a == _MIN) & (b == -1)
            q, rem = np.divmod(a, np.where(zero | wraps, 1, b))
            # numpy floors; step back toward zero when the signs differ
            r = q + ((rem != 0) & ((a < 0) != (b < 0)))
            return r, np.where(zero, DIVZERO, wraps * OVERFLOW).astype(np.uint8)
        else:
            raise ValueError(f"unknown operator {op!r}")
    return r, fault.astype(np.uint8)


def pair_codes(outer_code: np.ndarray, inner_code: np.ndarray,
               n_codes: int) -> tuple[np.ndarray | None, np.ndarray]:
    """All (outer position, inner position) pairs with equal joint codes in
    [0, n_codes), ordered by outer position, then inner position.

    When no inner code repeats, each outer row has at most one partner, so
    one gather of an inner row per code pairs them; if every outer row then
    has its partner, the outer positions are every outer row in order and
    come back as None instead of an index (as with no outer rows at all).
    Otherwise the inner rows are grouped by code and each outer row is
    repeated once per partner; the outer positions are always an index
    there, even where each outer row meets one inner row."""
    per_key = np.bincount(inner_code, minlength=n_codes)
    if per_key.max(initial=0) <= 1:
        row_of = np.full(n_codes, -1, dtype=np.intp)  # the inner row of each code
        row_of[inner_code] = np.arange(len(inner_code))
        partner = row_of[outer_code]
        if partner.min(initial=0) >= 0:  # no outer row unmatched
            return None, partner
        outer_pos = np.flatnonzero(partner >= 0)
        return outer_pos, partner[outer_pos]
    order = np.argsort(inner_code, kind="stable")  # inner rows grouped by code
    counts = per_key[outer_code]
    lo = (np.cumsum(per_key) - per_key)[outer_code]
    outer_pos = np.repeat(np.arange(len(outer_code)), counts)
    first = np.cumsum(counts) - counts  # each outer row's first pair
    inner_pos = order[np.repeat(lo - first, counts) + np.arange(counts.sum())]
    return outer_pos, inner_pos


def rank(values: np.ndarray) -> np.ndarray:
    """Int64 values that order like `values`: their int64 image where they
    have one (INT, or CHAR of width at most 8), else their code."""
    image = int_image(values)
    return codes(values)[0] if image is None else image


def group_ids(keys: list, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(id per row, ids in order of first appearance, each group's first
    row, row count per id). No keys means one group holding every row.

    A row's id is the code its keys give, with no renumbering, so ids may
    skip values no row holds; the counts (one `bincount`) are 0 there. The
    first rows come from a prefix of the rows that starts at 4 x the number
    of groups and grows 4x until every id that holds a row has one; at
    worst it covers every row.
    """
    if not keys:
        one = np.zeros(min(n, 1), dtype=np.int64)
        return np.zeros(n, dtype=np.int64), one, one, np.array([n], dtype=np.int64)
    gid, n_ids = codes(keys[0])
    for key in keys[1:]:
        code, n_codes = codes(key)
        gid, n_ids = gid * n_codes + code, n_ids * n_codes
        if n_ids > n:  # keep ids below n, so the next product stays in int64
            gid, n_ids = codes(gid)
    counts = np.bincount(gid, minlength=n_ids)
    groups = int(np.count_nonzero(counts))
    first = np.full(n_ids, n, dtype=np.int64)
    found = end = 0
    while found < groups:
        start, end = end, min(n, 4 * max(end, groups))
        np.minimum.at(first, gid[start:end], np.arange(start, end))
        found = int(np.count_nonzero(first < n))
    order = np.argsort(first)[:groups]  # absent ids hold n, so sort last
    return gid, order, first[order], counts


def group_sums(values: np.ndarray, gid: np.ndarray, groups: int) -> tuple[np.ndarray, np.ndarray]:
    """(sums per group id, fault codes per row), accumulated in stream
    order over ids in [0, groups); entries of ids that hold no row are
    unspecified.

    A row faults when its group's running sum leaves the int64 range there.
    When n rows of magnitude at most m have n * m <= INT64_MAX, no running
    sum can, and the sums are added directly. Otherwise each value is split
    into 32-bit halves so that running sums stay exact in int64.
    """
    n = len(values)
    # Python ints: -INT64_MIN does not fit in int64
    if n == 0 or n * max(-int(values.min()), int(values.max())) <= INT64_MAX:
        sums = np.zeros(groups, dtype=np.int64)
        np.add.at(sums, gid, values)
        return sums, np.zeros(n, dtype=np.uint8)
    order = np.argsort(gid, kind="stable")
    v = values[order]
    ordered_gid = gid[order]
    starts = np.searchsorted(ordered_gid, np.arange(groups))
    hi = np.cumsum(v >> 32)
    lo = np.cumsum(v & 0xFFFFFFFF)
    hi -= np.concatenate(([0], hi))[starts][ordered_gid]  # restart per group
    lo -= np.concatenate(([0], lo))[starts][ordered_gid]
    hi += lo >> 32  # exact running sum = hi * 2^32 + (lo mod 2^32)
    lo &= 0xFFFFFFFF
    fault = np.zeros(len(v), dtype=np.uint8)
    fault[order[(hi < -(1 << 31)) | (hi >= 1 << 31)]] = OVERFLOW
    ends = np.searchsorted(ordered_gid, np.arange(groups), "right") - 1
    return (hi[ends] << 32) + lo[ends], fault


def group_extremes(values: np.ndarray, gid: np.ndarray, n_ids: int, fn: str) -> np.ndarray:
    """Per id, the MIN or MAX of its rows' int64 `values`. Entries of ids
    that hold no row are unspecified."""
    if fn == "MIN":
        extreme = np.full(n_ids, INT64_MAX, dtype=np.int64)
        np.minimum.at(extreme, gid, values)
    else:
        extreme = np.full(n_ids, INT64_MIN, dtype=np.int64)
        np.maximum.at(extreme, gid, values)
    return extreme


def group_extreme(code: np.ndarray, gid: np.ndarray, n_ids: int, fn: str) -> np.ndarray:
    """Per id, a row that holds its group's MIN or MAX.

    `code` is the argument's `rank` at each row, so one ranking serves both
    MIN and MAX of one argument. Rows of equal rank hold equal values, so
    any row at the extreme serves and none is searched for first. Entries
    of ids that hold no row are unspecified."""
    extreme = group_extremes(code, gid, n_ids, fn)
    rows = np.flatnonzero(code == extreme[gid])
    row_of = np.zeros(n_ids, dtype=np.intp)
    row_of[gid[rows]] = rows
    return row_of


def sort_order(keys) -> np.ndarray:
    """Stable permutation by (values, ascending) keys, first key major.

    Each key is ranked (`rank`, inverted for a descending key), and the
    ranks are packed into one int64 per row: the row's position plus each
    key's rank offset from its minimum, times the row count and the spans
    of the less significant keys. Every packed value is distinct, so one
    sort of them, modulo the row count, is the stable lexicographic order.
    When the row count times the spans leaves int64, the keys are sorted
    by `np.lexsort` instead."""
    ranks = [rank(values) if asc else ~rank(values) for values, asc in keys]
    n = len(ranks[0])
    if n == 0:
        return np.arange(0)
    # Python ints: a span may exceed int64
    lows = [int(r.min()) for r in ranks]
    spans = [int(r.max()) - low + 1 for r, low in zip(ranks, lows)]
    if n * math.prod(spans) > INT64_MAX:
        return np.lexsort(ranks[::-1])
    packed = ranks[0] - lows[0]
    for r, low, span in zip(ranks[1:], lows[1:], spans[1:]):
        packed = packed * span + (r - low)
    packed = packed * n + np.arange(n)
    return np.sort(packed) % n
