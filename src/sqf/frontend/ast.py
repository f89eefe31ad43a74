"""Logical query plan and expression tree produced by the parser.

Everything here is an immutable value object; structural equality is used by
the parse/pretty-print round-trip tests (`pretty_print` is in tests/_ref.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

AGG_FNS = ("COUNT", "SUM", "MIN", "MAX", "AVG")


@dataclass(frozen=True)
class ColumnRef:
    qualifier: str | None
    name: str

    def render(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class IntLiteral:
    value: int


@dataclass(frozen=True)
class StrLiteral:
    value: str


@dataclass(frozen=True)
class Arith:
    op: str
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Cmp:
    op: str
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class BoolOp:
    op: str
    children: tuple["Expr", ...]


Expr = Union[ColumnRef, IntLiteral, StrLiteral, Arith, Cmp, BoolOp]


@dataclass(frozen=True)
class Star:
    """`SELECT *` marker; expanded left-then-right at bind time."""


@dataclass(frozen=True)
class AggItem:
    """Projection of aggregate number `index` in QueryPlan.aggregates."""

    index: int


# A projection item: `*`, a column or computed attribute named by its
# ColumnRef, or one of the aggregates.
ProjItem = Union[Star, ColumnRef, AggItem]


@dataclass(frozen=True)
class AggSpec:
    fn: str
    arg: ColumnRef | None  # None means `*`
    name: str

    def render(self) -> str:
        arg = self.arg.render() if self.arg is not None else "*"
        return f"{self.fn}({arg}) AS {self.name}"


@dataclass(frozen=True)
class JoinSpec:
    table: str
    left_key: ColumnRef
    right_key: ColumnRef


@dataclass(frozen=True)
class OrderItem:
    name: str
    ascending: bool


@dataclass(frozen=True)
class QueryPlan:
    """Parsed but unresolved query."""

    source: str
    join: JoinSpec | None
    restriction: Expr | None
    computed: tuple[tuple[str, Expr], ...]
    group_by: tuple[ColumnRef, ...]
    aggregates: tuple[AggSpec, ...]
    projection: tuple[ProjItem, ...]
    order_by: tuple[OrderItem, ...]


def unique_name(base: str, taken: set) -> str:
    """`base`, else the first of `base_2`, `base_3`, ... whose lower case is
    not in `taken` (a set of lower-cased names)."""
    name = base
    k = 2
    while name.lower() in taken:
        name = f"{base}_{k}"
        k += 1
    return name


def render_expr(expr: Expr) -> str:
    """Fully parenthesized text form; reparsing it reproduces the tree."""
    if isinstance(expr, ColumnRef):
        return expr.render()
    if isinstance(expr, IntLiteral):
        return str(expr.value)
    if isinstance(expr, StrLiteral):
        return f"'{expr.value}'"
    if isinstance(expr, (Arith, Cmp)):
        return f"({render_expr(expr.lhs)} {expr.op} {render_expr(expr.rhs)})"
    if isinstance(expr, BoolOp):
        if expr.op == "NOT":
            return f"(NOT {render_expr(expr.children[0])})"
        body = f" {expr.op} ".join(render_expr(c) for c in expr.children)
        return f"({body})"
    raise TypeError(f"not an expression: {expr!r}")
