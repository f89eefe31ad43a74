"""Name resolution and type checking: QueryPlan -> BoundPlan.

Binding resolves each column reference to a ValueRef (slot, column index,
type) and types each comparison as a BCmp; every other expression node (the
literals, Arith and BoolOp) passes through as the parser's own class. A bound
plan's output is one source per column of its fully determined output
schema, which alone names and types the output columns. Binding is a pure
function of (plan, catalog): binding one parsed plan twice yields equal
BoundPlans.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AmbiguousColumn, QueryTypeError, UnknownColumn, UnknownTable
from ..relcore import CHAR_MAX_WIDTH, ColumnType, Schema, TypeKind
from .ast import (
    AggItem,
    AggSpec,
    Arith,
    BoolOp,
    Cmp,
    ColumnRef,
    Expr,
    IntLiteral,
    QueryPlan,
    Star,
    StrLiteral,
    render_expr,
    unique_name,
)


@dataclass(frozen=True)
class ValueRef:
    """A resolved value source: a table column or a computed attribute."""

    kind: str  # "column" | "computed"
    slot: int  # 0 = FROM table, 1 = JOIN table; -1 for computed
    index: int
    ctype: ColumnType


@dataclass(frozen=True)
class BCmp:
    op: str
    lhs: "BExpr"
    rhs: "BExpr"
    kind: TypeKind
    width: int  # CHAR comparison width (both sides padded to it); 0 for INT


# The parsed tree with each ColumnRef replaced by a ValueRef and each Cmp by a BCmp.
BExpr = object  # ValueRef | IntLiteral | StrLiteral | Arith | BCmp | BoolOp


@dataclass(frozen=True)
class BoundComputed:
    name: str
    expr: BExpr
    ctype: ColumnType


@dataclass(frozen=True)
class BoundAgg:
    fn: str
    arg: ValueRef | None  # None = `*`
    name: str
    ctype: ColumnType


@dataclass(frozen=True)
class FromValue:
    ref: ValueRef


@dataclass(frozen=True)
class FromGroupKey:
    index: int


@dataclass(frozen=True)
class FromAggregate:
    index: int


@dataclass(frozen=True)
class BoundPlan:
    """A plan resolved against its tables. `tables`, `schemas` and `join_keys`
    (each side's key column, empty without a join) are indexed by slot, as
    `ValueRef.slot` is: slot 0 is the FROM table and slot 1 the JOIN table.
    `tables` names each table by its catalog key, whatever the query's case.
    `output` holds the source of each `output_schema` column, in order."""

    tables: tuple[str, ...]
    schemas: tuple[Schema, ...]
    join_keys: tuple[int, ...]
    join_key_type: ColumnType | None
    restriction: BExpr | None
    computed: tuple[BoundComputed, ...]
    group_by: tuple[ValueRef, ...]
    aggregates: tuple[BoundAgg, ...]
    output: tuple[object, ...]  # FromValue | FromGroupKey | FromAggregate
    order_by: tuple[tuple[int, bool], ...]  # (output column index, ascending)
    output_schema: Schema

    @property
    def has_join(self) -> bool:
        return len(self.tables) == 2

    @property
    def grouped(self) -> bool:
        return bool(self.aggregates) or bool(self.group_by)

    def flat_index(self, ref: ValueRef) -> int:
        """Index of a ValueRef in the flattened row: the sides' columns in
        slot order, then the computed attributes."""
        before = ref.slot if ref.kind == "column" else len(self.schemas)
        return sum(schema.arity for schema in self.schemas[:before]) + ref.index

    def table_names(self) -> tuple[str, ...]:
        return self.tables


def walk_bound(expr):
    """Yield every node of a bound expression tree."""
    yield expr
    if isinstance(expr, (Arith, BCmp)):
        yield from walk_bound(expr.lhs)
        yield from walk_bound(expr.rhs)
    elif isinstance(expr, BoolOp):
        for child in expr.children:
            yield from walk_bound(child)


def split_conjuncts(expr) -> list:
    """Top-level AND conjuncts of a bound predicate."""
    if isinstance(expr, BoolOp) and expr.op == "AND":
        out = []
        for child in expr.children:
            out.extend(split_conjuncts(child))
        return out
    return [expr]


def needs_reorder(bp: "BoundPlan") -> bool:
    """True when the output layout differs from the natural stream layout,
    i.e. attributes are reordered, inserted, or removed."""
    if bp.grouped:
        canonical = [FromGroupKey(i) for i in range(len(bp.group_by))]
        canonical += [FromAggregate(i) for i in range(len(bp.aggregates))]
        return list(bp.output) != canonical
    if bp.computed:
        return True
    natural = [FromValue(ValueRef("column", slot, idx, ctype))
               for slot, schema in enumerate(bp.schemas)
               for idx, (_, ctype) in enumerate(schema.columns)]
    return list(bp.output) != natural


class _Binder:
    def __init__(self, plan: QueryPlan, catalog: dict):
        self.plan = plan
        self.catalog = catalog
        key, schema = self._lookup_table(plan.source)
        self.tables = (key,)
        self.schemas = (schema,)
        if plan.join:
            if plan.join.table.lower() == plan.source.lower():
                raise QueryTypeError("FROM", "self-joins are not supported")
            key, schema = self._lookup_table(plan.join.table)
            self.tables += (key,)
            self.schemas += (schema,)
        self.computed: list[BoundComputed] = []
        self.computed_index: dict[str, int] = {}

    def _lookup_table(self, name: str) -> tuple[str, Schema]:
        """The catalog's key for `name` (an exact match first, then any
        case-insensitive one) and its schema."""
        if name in self.catalog:
            return name, self.catalog[name]
        for key, schema in self.catalog.items():
            if key.lower() == name.lower():
                return key, schema
        raise UnknownTable(name)

    # -- reference resolution ----------------------------------------------

    def resolve_column(self, ref: ColumnRef) -> ValueRef:
        """Resolve against table columns only (restriction/computed/join keys).
        A qualified reference searches its own table only."""
        slots = range(len(self.tables))
        if ref.qualifier is not None:
            slots = (self._slot_for_qualifier(ref.qualifier),)
        hits = []
        for slot in slots:
            schema = self.schemas[slot]
            try:
                idx = schema.index_of(ref.name)
            except KeyError:
                continue
            hits.append(ValueRef("column", slot, idx, schema.columns[idx][1]))
        if len(hits) > 1:
            raise AmbiguousColumn(ref.name)
        if not hits:
            raise UnknownColumn(ref.render())
        return hits[0]

    def resolve_value(self, ref: ColumnRef) -> ValueRef:
        """Columns first, then computed attributes (group/aggregate/projection scope)."""
        try:
            return self.resolve_column(ref)
        except UnknownColumn:
            pass
        if ref.qualifier is None and ref.name.lower() in self.computed_index:
            k = self.computed_index[ref.name.lower()]
            return ValueRef("computed", -1, k, self.computed[k].ctype)
        raise UnknownColumn(ref.render())

    def _slot_for_qualifier(self, qualifier: str) -> int:
        for slot, table in enumerate(self.tables):
            if qualifier.lower() == table.lower():
                return slot
        raise UnknownTable(qualifier)

    # -- expression typing ---------------------------------------------------

    def bind_value_expr(self, expr: Expr,
                        parent: Expr | None = None) -> tuple[BExpr, ColumnType]:
        """Bind `expr` as a value. A condition is an error, reported at the
        operator `parent` when `expr` is one of its operands."""
        bound, tag = self.bind_expr(expr)
        if tag == "bool":
            if parent is None:
                raise QueryTypeError(render_expr(expr), "expected a value, got a condition")
            raise QueryTypeError(render_expr(parent), "condition used as a value")
        return bound, tag

    def bind_bool_expr(self, expr: Expr) -> BExpr:
        bound, tag = self.bind_expr(expr)
        if tag != "bool":
            raise QueryTypeError(render_expr(expr), "expected a condition, got a value")
        return bound

    def bind_expr(self, expr: Expr):
        """Returns (bound node, tag) where tag is "bool" or a ColumnType."""
        if isinstance(expr, ColumnRef):
            ref = self.resolve_column(expr)
            return ref, ref.ctype
        if isinstance(expr, IntLiteral):
            return expr, ColumnType.int64()
        if isinstance(expr, StrLiteral):
            if len(expr.value) > CHAR_MAX_WIDTH:
                raise QueryTypeError(render_expr(expr),
                                     f"string literal longer than {CHAR_MAX_WIDTH} bytes")
            return expr, ColumnType.char(max(1, len(expr.value)))
        if isinstance(expr, Arith):
            lhs, lt = self.bind_value_expr(expr.lhs, expr)
            rhs, rt = self.bind_value_expr(expr.rhs, expr)
            if lt.kind is not TypeKind.INT or rt.kind is not TypeKind.INT:
                raise QueryTypeError(render_expr(expr), "arithmetic needs INT operands")
            return Arith(expr.op, lhs, rhs), ColumnType.int64()
        if isinstance(expr, Cmp):
            lhs, lt = self.bind_value_expr(expr.lhs, expr)
            rhs, rt = self.bind_value_expr(expr.rhs, expr)
            if lt.kind is not rt.kind:
                raise QueryTypeError(render_expr(expr), "cannot compare INT with CHAR")
            if lt.kind is TypeKind.CHAR:
                if expr.op not in ("=", "<>"):
                    raise QueryTypeError(
                        render_expr(expr), "CHAR supports only = and <> comparisons"
                    )
                width = max(lt.width_bytes, rt.width_bytes)
                return BCmp(expr.op, lhs, rhs, TypeKind.CHAR, width), "bool"
            return BCmp(expr.op, lhs, rhs, TypeKind.INT, 0), "bool"
        if isinstance(expr, BoolOp):
            children = tuple(self.bind_bool_expr(c) for c in expr.children)
            return BoolOp(expr.op, children), "bool"
        raise TypeError(f"not an expression: {expr!r}")

    # -- plan binding ---------------------------------------------------------

    def bind(self) -> BoundPlan:
        plan = self.plan
        join_keys, join_type = (), None
        if plan.join:
            join_keys, join_type = self._bind_join_keys(plan.join.left_key,
                                                        plan.join.right_key)
        restriction = None
        if plan.restriction is not None:
            restriction = self.bind_bool_expr(plan.restriction)

        for name, expr in plan.computed:
            self._check_computed_name(name)
            bound, ctype = self.bind_value_expr(expr)
            self.computed_index[name.lower()] = len(self.computed)
            self.computed.append(BoundComputed(name, bound, ctype))

        group_by = tuple(self.resolve_value(ref) for ref in plan.group_by)
        aggregates = tuple(self._bind_aggregate(spec) for spec in plan.aggregates)
        output, schema = self._bind_projection(plan, group_by, aggregates)
        order_by = self._bind_order(plan, schema)
        return BoundPlan(
            tables=self.tables,
            schemas=self.schemas,
            join_keys=join_keys,
            join_key_type=join_type,
            restriction=restriction,
            computed=tuple(self.computed),
            group_by=group_by,
            aggregates=aggregates,
            output=output,
            order_by=order_by,
            output_schema=schema,
        )

    def _bind_join_keys(self, left: ColumnRef, right: ColumnRef):
        a = self.resolve_column(left)
        b = self.resolve_column(right)
        if a.slot == b.slot:
            raise QueryTypeError(
                f"{left.render()} = {right.render()}",
                "join keys must come from different tables",
            )
        if a.slot == 1:
            a, b = b, a
        if a.ctype.kind is not b.ctype.kind:
            raise QueryTypeError(
                f"{left.render()} = {right.render()}", "join key types differ"
            )
        if a.ctype.kind is TypeKind.CHAR:
            key_type = ColumnType.char(max(a.ctype.width_bytes, b.ctype.width_bytes))
        else:
            key_type = ColumnType.int64()
        return (a.index, b.index), key_type

    def _check_computed_name(self, name: str):
        low = name.lower()
        for schema in self.schemas:
            if any(col.lower() == low for col in schema.names):
                raise QueryTypeError(name, "computed name collides with a column")
        if low in self.computed_index:
            raise QueryTypeError(name, "computed name defined twice")

    def _bind_aggregate(self, spec: AggSpec) -> BoundAgg:
        if spec.arg is None:
            if spec.fn != "COUNT":
                raise QueryTypeError(spec.render(), f"{spec.fn}(*) is not allowed")
            return BoundAgg("COUNT", None, spec.name, ColumnType.int64())
        ref = self.resolve_value(spec.arg)
        if spec.fn in ("SUM", "AVG") and ref.ctype.kind is not TypeKind.INT:
            raise QueryTypeError(spec.render(), f"{spec.fn} needs an INT column")
        if spec.fn in ("COUNT", "SUM", "AVG"):
            ctype = ColumnType.int64()
        else:
            ctype = ref.ctype
        return BoundAgg(spec.fn, ref, spec.name, ctype)

    def _bind_projection(self, plan, group_by, aggregates):
        """(source of each output column, output schema)."""
        sources, columns = [], []
        taken: set[str] = set()

        def add(name: str, source, ctype: ColumnType, qualifier: str | None):
            if name.lower() in taken and qualifier:
                name = f"{qualifier}_{name}"
            final = unique_name(name, taken)
            taken.add(final.lower())
            sources.append(source)
            columns.append((final, ctype))

        grouped = bool(plan.aggregates or plan.group_by)
        for item in plan.projection:
            if isinstance(item, Star):
                if grouped:
                    raise QueryTypeError("*", "star projection cannot be mixed with grouping")
                for slot, (table, schema) in enumerate(zip(self.tables, self.schemas)):
                    for idx, (name, ctype) in enumerate(schema.columns):
                        add(name, FromValue(ValueRef("column", slot, idx, ctype)),
                            ctype, table)
            elif isinstance(item, AggItem):  # only a grouped plan has aggregates
                agg = aggregates[item.index]
                add(agg.name, FromAggregate(item.index), agg.ctype, None)
            else:
                ref = self.resolve_value(item.ref)
                source = FromValue(ref)
                if grouped:
                    if ref not in group_by:
                        raise QueryTypeError(item.ref.render(),
                                             "projection must use group columns or aggregates")
                    source = FromGroupKey(group_by.index(ref))
                add(item.ref.name, source, ref.ctype, item.ref.qualifier)
        return tuple(sources), Schema(tuple(columns))

    def _bind_order(self, plan, schema: Schema):
        order = []
        for key in plan.order_by:
            try:
                order.append((schema.index_of(key.name), key.ascending))
            except KeyError:
                raise UnknownColumn(key.name, "ORDER BY keys must name output columns") from None
        return tuple(order)


def bind(plan: QueryPlan, catalog: dict) -> BoundPlan:
    """Resolve and type-check a parsed plan against `{table name: Schema}`."""
    return _Binder(plan, catalog).bind()
