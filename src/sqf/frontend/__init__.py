"""SQL subset frontend: parser, plan types, and binder."""

from .ast import (
    AggItem,
    AggSpec,
    Arith,
    BoolOp,
    Cmp,
    ColumnRef,
    Expr,
    IntLiteral,
    JoinSpec,
    OrderItem,
    QueryPlan,
    Star,
    StrLiteral,
    render_expr,
)
from .binder import (
    BCmp,
    BoundAgg,
    BoundComputed,
    BoundPlan,
    ValueRef,
    bind,
)
from .parser import parse_query, tokenize

__all__ = [
    "AggItem", "AggSpec", "Arith", "BoolOp", "Cmp", "ColumnRef", "Expr",
    "IntLiteral", "JoinSpec", "OrderItem", "QueryPlan", "Star",
    "StrLiteral", "render_expr",
    "BCmp", "BoundAgg", "BoundComputed", "BoundPlan", "ValueRef", "bind",
    "parse_query", "tokenize",
]
