"""Naive reference evaluator: the ground truth for engine equivalence.

Deliberately simple and fully materialized at every step: nested-loop
equi-join, tree-walking expression interpreter, per-group row lists folded
at the end. No indexes, no shortcuts. Row order is deterministic: input
order, then group keys in first-appearance order, then ORDER BY last.

Shared with the engine by design: the CHAR padding rules. The engine's
vector `checked_arith` is tested against the oracle's scalar `sqf.arith`
primitives, so both routes fault identically. Everything else (evaluation,
joins, grouping, sorting) is implemented independently.
Predicates evaluate all operands, mirroring the engine's no-short-circuit
rule, so faults do not depend on operand order.
"""

from __future__ import annotations

from collections import Counter

from .arith import add64, div64, mul64, sub64
from .errors import ArithmeticOverflow, DivisionByZero
from .frontend.ast import Arith, BoolOp, IntLiteral, StrLiteral
from .frontend.binder import BCmp, BoundPlan, FromAggregate, FromGroupKey, ValueRef
from .relcore import Table, TypeKind, canon_cell, encode_row, pad_char


def _eval(expr, row, bp: BoundPlan):
    if isinstance(expr, ValueRef):
        return row[bp.flat_index(expr)]
    if isinstance(expr, IntLiteral):
        return expr.value
    if isinstance(expr, StrLiteral):
        return expr.value
    if isinstance(expr, Arith):
        lhs = _eval(expr.lhs, row, bp)
        rhs = _eval(expr.rhs, row, bp)
        if expr.op == "+":
            return add64(lhs, rhs)
        if expr.op == "-":
            return sub64(lhs, rhs)
        if expr.op == "*":
            return mul64(lhs, rhs)
        return div64(lhs, rhs)
    if isinstance(expr, BCmp):
        lhs = _eval(expr.lhs, row, bp)
        rhs = _eval(expr.rhs, row, bp)
        if expr.kind is TypeKind.CHAR:
            lhs = pad_char(lhs, expr.width)
            rhs = pad_char(rhs, expr.width)
            return lhs == rhs if expr.op == "=" else lhs != rhs
        return {
            "=": lhs == rhs,
            "<>": lhs != rhs,
            "<": lhs < rhs,
            "<=": lhs <= rhs,
            ">": lhs > rhs,
            ">=": lhs >= rhs,
        }[expr.op]
    if isinstance(expr, BoolOp):
        values = [_eval(c, row, bp) for c in expr.children]
        if expr.op == "NOT":
            return not values[0]
        if expr.op == "AND":
            return all(values)
        return any(values)
    raise TypeError(f"not an expression: {expr!r}")


def _eval_at(expr, row, ordinal, bp):
    try:
        return _eval(expr, row, bp)
    except ArithmeticOverflow:
        raise ArithmeticOverflow(ordinal) from None
    except DivisionByZero:
        raise DivisionByZero(ordinal) from None


def reference_execute(bp: BoundPlan, tables: dict) -> Table:
    """Evaluate the plan the slow, obvious way."""
    left = tables[bp.tables[0]]
    if bp.has_join:
        right = tables[bp.tables[1]]
        key_type = bp.join_key_type
        li, ri = bp.join_keys
        keyed = [(canon_cell(rrow[ri], key_type), rrow) for rrow in right.rows]
        rows = []
        for lrow in left.rows:
            lkey = canon_cell(lrow[li], key_type)
            for rkey, rrow in keyed:
                if lkey == rkey:
                    rows.append(lrow + rrow)
    else:
        rows = list(left.rows)

    if bp.restriction is not None:
        rows = [
            row
            for ordinal, row in enumerate(rows)
            if _eval_at(bp.restriction, row, ordinal, bp)
        ]

    if bp.computed:
        extended = []
        for ordinal, row in enumerate(rows):
            extras = tuple(
                _eval_at(comp.expr, row, ordinal, bp) for comp in bp.computed
            )
            extended.append(row + extras)
        rows = extended

    if bp.grouped:
        out_rows = _grouped_rows(bp, rows)
    else:
        out_rows = [
            tuple(row[bp.flat_index(source.ref)] for source in bp.output)
            for row in rows
        ]

    for idx, ascending in reversed(bp.order_by):
        ctype = bp.output_schema.columns[idx][1]
        out_rows.sort(key=lambda r, i=idx, t=ctype: canon_cell(r[i], t),
                      reverse=not ascending)
    return Table.from_rows(bp.output_schema, out_rows)


def _grouped_rows(bp: BoundPlan, rows):
    key_refs = [(bp.flat_index(ref), ref.ctype) for ref in bp.group_by]
    groups: dict = {}
    for ordinal, row in enumerate(rows):
        key = tuple(canon_cell(row[i], t) for i, t in key_refs)
        if key not in groups:
            groups[key] = (tuple(row[i] for i, _ in key_refs), [])
        groups[key][1].append((ordinal, row))

    if not bp.group_by and not groups:
        if bp.aggregates and all(a.fn == "COUNT" for a in bp.aggregates):
            agg_row = tuple(0 for _ in bp.aggregates)
            return [_shape_output(bp, (), agg_row)]
        return []

    # every group folds in full; the query faults on the earliest row that
    # overflows any group's running sum, as a streaming fold would
    out = []
    faults = []
    for raw_keys, members in groups.values():
        agg_values = []
        for agg in bp.aggregates:
            try:
                agg_values.append(_fold(bp, agg, members))
            except ArithmeticOverflow as exc:
                faults.append(exc.row)
                agg_values.append(None)
        out.append(_shape_output(bp, raw_keys, tuple(agg_values)))
    if faults:
        raise ArithmeticOverflow(min(faults))
    return out


def _fold(bp: BoundPlan, agg, members):
    if agg.fn == "COUNT":
        return len(members)
    idx = bp.flat_index(agg.arg)
    if agg.fn in ("SUM", "AVG"):
        total = 0
        for ordinal, row in members:
            try:
                total = add64(total, row[idx])
            except ArithmeticOverflow:
                raise ArithmeticOverflow(ordinal) from None
        return total if agg.fn == "SUM" else div64(total, len(members))
    best_canon = best_raw = None
    for _, row in members:
        canon = canon_cell(row[idx], agg.arg.ctype)
        if best_canon is None:
            best_canon, best_raw = canon, row[idx]
        elif agg.fn == "MIN" and canon < best_canon:
            best_canon, best_raw = canon, row[idx]
        elif agg.fn == "MAX" and canon > best_canon:
            best_canon, best_raw = canon, row[idx]
    return best_raw


def _shape_output(bp: BoundPlan, raw_keys, agg_values):
    cells = []
    for source in bp.output:
        if isinstance(source, FromGroupKey):
            cells.append(raw_keys[source.index])
        elif isinstance(source, FromAggregate):
            cells.append(agg_values[source.index])
        else:  # pragma: no cover - binder prevents this
            raise AssertionError("plain value in grouped projection")
    return tuple(cells)


# --------------------------------------------------------------------------
# result comparison helpers (used by the CLI's --oracle check and tests)
# --------------------------------------------------------------------------

def canonical_multiset(table: Table) -> Counter:
    return Counter(table.rows)


def first_multiset_diff(a: Table, b: Table):
    """Deterministic first differing row between two results, or None.

    Returns (row, count_in_a, count_in_b) for the difference that sorts
    first by the row's byte encoding.
    """
    ca, cb = canonical_multiset(a), canonical_multiset(b)
    diffs = []
    for row in set(ca) | set(cb):
        if ca.get(row, 0) != cb.get(row, 0):
            diffs.append((encode_row(row, a.schema), row, ca.get(row, 0), cb.get(row, 0)))
    if not diffs:
        return None
    diffs.sort(key=lambda d: d[0])
    _, row, na, nb = diffs[0]
    return row, na, nb


def order_keys(table: Table, keys) -> list:
    """The ORDER BY key tuples of a result in row order; `keys` are the
    output column indices of the ORDER BY items."""
    return [tuple(row[i] for i in keys) for row in table.rows]


def first_order_diff(a: Table, b: Table, keys):
    """(position, key in a, key in b) at the first row where two results'
    ORDER BY key tuples differ, or None. Rows with equal keys may come in
    any order, so two orderings of tied rows do not differ."""
    for position, (ka, kb) in enumerate(zip(order_keys(a, keys), order_keys(b, keys))):
        if ka != kb:
            return position, ka, kb
    return None
