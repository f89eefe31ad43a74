"""Tokenizer and recursive-descent parser for the supported SQL subset.

Grammar:

    query  := SELECT items FROM name [JOIN name ON colref = colref]
              [WHERE expr] [GROUP BY colref {, colref}]
              [ORDER BY name [ASC|DESC] {, ...}] [;]
    items  := '*' | item {, item}
    item   := AGGFN ( '*' | colref ) [AS name]
            | expr [AS name]          -- non-column expressions require AS
    expr   := or-, and-, NOT-, comparison-, additive-, multiplicative
              levels with the usual precedence; parentheses allowed

Tokens are ASCII: integers `[0-9]+`, identifiers `[A-Za-z_][A-Za-z0-9_]*`,
single-quoted strings of printable ASCII, and the symbols below, separated
by spaces, tabs, CRs and LFs. Any other character outside a string literal
is a syntax error at its position. Reserved words are case-insensitive.
Errors carry the character position of the offending token and the set of
things that would have been accepted.

Expressions nest at most MAX_NESTING deep, counting both the tree depth of
operators and the nesting of parentheses and NOT, so no later stage ever
walks a tree deep enough to exhaust the interpreter's stack.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..arith import INT64_MAX, INT64_MIN
from ..errors import QuerySyntaxError
from ..relcore import IDENTIFIER
from .ast import (
    AGG_FNS,
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
    unique_name,
)


KEYWORDS = frozenset(
    ["SELECT", "FROM", "JOIN", "ON", "WHERE", "GROUP", "BY",
     "ORDER", "ASC", "DESC", "AND", "OR", "NOT", "AS"]
)

MAX_NESTING = 32

_SYMBOLS = ("<=", ">=", "<>", ",", "(", ")", "*", ".", ";", "+", "-", "/", "=", "<", ">")

# Every token class once, all ASCII, each after the whitespace that leads
# it, so one match is one token; whitespace that ends the text matches with
# no group. Any other character falls through to `other` and is reported
# where it stands. A string body is printable ASCII except the quote itself.
_STRING_BODY = re.compile(r"[ -&(-~]*")
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:"
    r"(?P<int>[0-9]+)"
    rf"|(?P<ident>{IDENTIFIER})"
    rf"|(?P<string>'{_STRING_BODY.pattern}')"
    rf"|(?P<sym>{'|'.join(map(re.escape, _SYMBOLS))})"
    r"|(?P<other>.)"
    r"|\Z)",
    re.DOTALL,
)


class Token(NamedTuple):
    kind: str  # "kw", "ident", "int", "string", "sym", "eof"
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:  # whitespace at the end
            continue
        word, i = m[kind], m.start(kind)
        if kind == "other":  # or a quote that opens no valid string literal
            if word != "'":
                raise QuerySyntaxError(i, ("a token",), repr(word))
            j = _STRING_BODY.match(text, i + 1).end()
            if j == len(text):
                raise QuerySyntaxError(i, ("closing quote",), "end of input")
            raise QuerySyntaxError(j, ("printable ASCII character",), repr(text[j]))
        if kind == "ident" and word.upper() in KEYWORDS:
            tokens.append(Token("kw", word.upper(), i))
        elif kind == "string":
            tokens.append(Token("string", word[1:-1], i))
        else:
            tokens.append(Token(kind, word, i))
    tokens.append(Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.nesting = 0  # open parentheses and NOTs
        self.depths: dict[int, int] = {}  # id(operator node) -> operator levels
        self.computed: list[tuple[str, Expr]] = []
        self.aggregates: list[AggSpec] = []

    # -- token helpers ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, *expected: str):
        tok = self.peek()
        found = tok.text if tok.kind != "eof" else "end of input"
        raise QuerySyntaxError(tok.pos, tuple(sorted(expected)), found)

    def eat(self, text: str) -> bool:
        """Consume the keyword or symbol `text` if it is next."""
        tok = self.tokens[self.pos]
        if tok.text == text and tok.kind in ("kw", "sym"):
            self.pos += 1
            return True
        return False

    def expect(self, text: str):
        if not self.eat(text):
            self.fail(text if text in KEYWORDS else f"`{text}`")

    def too_deep(self, tok: Token):
        raise QuerySyntaxError(tok.pos, (f"at most {MAX_NESTING} levels of nesting",),
                               tok.text)

    def enter(self, tok: Token):
        """Open one level of parentheses or NOT at `tok`."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            self.too_deep(tok)

    def node(self, tok: Token, node, *children):
        """Record an operator node made at `tok` and check its tree depth."""
        depth = 1 + max(self.depths.get(id(child), 0) for child in children)
        if depth > MAX_NESTING:
            self.too_deep(tok)
        self.depths[id(node)] = depth
        return node

    def expect_ident(self, what: str = "identifier") -> str:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(what)
        self.advance()
        return tok.text

    # -- grammar ------------------------------------------------------------

    def parse(self) -> QueryPlan:
        self.expect("SELECT")
        if self.eat("*"):
            projection = (Star(),)
        else:
            projection = self.parse_list(self.parse_item)
        self.expect("FROM")
        source = self.expect_ident("table name")
        join = None
        if self.eat("JOIN"):
            table = self.expect_ident("table name")
            self.expect("ON")
            left = self.parse_colref()
            self.expect("=")
            right = self.parse_colref()
            join = JoinSpec(table, left, right)
        restriction = None
        if self.eat("WHERE"):
            restriction = self.parse_expr()
        group_by: tuple = ()
        if self.eat("GROUP"):
            self.expect("BY")
            group_by = self.parse_list(self.parse_colref)
        order_by: tuple = ()
        if self.eat("ORDER"):
            self.expect("BY")
            order_by = self.parse_list(self.parse_order_key)
        self.eat(";")
        if self.peek().kind != "eof":
            self.fail("end of input")

        return QueryPlan(
            source=source,
            join=join,
            restriction=restriction,
            computed=tuple(self.computed),
            group_by=group_by,
            aggregates=tuple(self.aggregates),
            projection=projection,
            order_by=order_by,
        )

    def parse_list(self, parse_one) -> tuple:
        """One or more `parse_one` separated by commas."""
        items = [parse_one()]
        while self.eat(","):
            items.append(parse_one())
        return tuple(items)

    def parse_order_key(self) -> OrderItem:
        name = self.expect_ident("output column name")
        ascending = True
        if self.eat("DESC"):
            ascending = False
        else:
            self.eat("ASC")
        return OrderItem(name, ascending)

    def parse_item(self):
        """One select item: a computed or aggregate item is appended to its
        list, and the item's projection entry is returned."""
        tok = self.peek()
        if (
            tok.kind == "ident"
            and tok.text.upper() in AGG_FNS
            and self.tokens[self.pos + 1].kind == "sym"
            and self.tokens[self.pos + 1].text == "("
        ):
            fn = tok.text.upper()
            self.advance()
            self.expect("(")
            if self.eat("*"):
                arg = None
            else:
                arg = self.parse_colref()
            self.expect(")")
            alias = None
            if self.eat("AS"):
                alias = self.expect_ident("alias")
            base = f"{fn.lower()}_{arg.name if arg is not None else 'star'}"
            name = alias or unique_name(base, {agg.name.lower() for agg in self.aggregates})
            self.aggregates.append(AggSpec(fn, arg, name))
            return AggItem(len(self.aggregates) - 1)
        expr = self.parse_expr()
        if self.eat("AS"):
            alias = self.expect_ident("alias")
            self.computed.append((alias, expr))
            return ColumnRef(None, alias)
        if isinstance(expr, ColumnRef):
            return expr
        self.fail("AS")

    def parse_colref(self) -> ColumnRef:
        first = self.expect_ident("column name")
        if self.eat("."):
            return ColumnRef(first, self.expect_ident("column name"))
        return ColumnRef(None, first)

    # Expression precedence: OR < AND < NOT < comparison < additive < multiplicative.

    def parse_expr(self):
        return self.parse_or()

    def parse_or(self):
        return self.parse_bool("OR", self.parse_and)

    def parse_and(self):
        return self.parse_bool("AND", self.parse_not)

    def parse_bool(self, op: str, parse_child):
        tok = self.peek()
        children = [parse_child()]
        while self.eat(op):
            children.append(parse_child())
        if len(children) == 1:
            return children[0]
        return self.node(tok, BoolOp(op, tuple(children)), *children)

    def parse_not(self):
        tok = self.peek()
        if self.eat("NOT"):
            self.enter(tok)
            child = self.parse_not()
            self.nesting -= 1
            return self.node(tok, BoolOp("NOT", (child,)), child)
        return self.parse_cmp()

    def parse_cmp(self):
        lhs = self.parse_add()
        tok = self.peek()
        if tok.kind == "sym" and tok.text in ("=", "<>", "<", "<=", ">", ">="):
            self.advance()
            rhs = self.parse_add()
            return self.node(tok, Cmp(tok.text, lhs, rhs), lhs, rhs)
        return lhs

    def parse_add(self):
        return self.parse_arith(("+", "-"), self.parse_mul)

    def parse_mul(self):
        return self.parse_arith(("*", "/"), self.parse_primary)

    def parse_arith(self, ops: tuple[str, ...], parse_operand):
        """A left-associative chain of `ops` over operands."""
        node = parse_operand()
        while True:
            tok = self.peek()
            if not (tok.kind == "sym" and tok.text in ops):
                return node
            self.advance()
            rhs = parse_operand()
            node = self.node(tok, Arith(tok.text, node, rhs), node, rhs)

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return self.int_literal(tok, negative=False)
        if self.eat("-"):
            num = self.peek()
            if num.kind != "int":
                self.fail("integer literal")
            self.advance()
            return self.int_literal(num, negative=True)
        if tok.kind == "string":
            self.advance()
            return StrLiteral(tok.text)
        if tok.kind == "ident":
            return self.parse_colref()
        if self.eat("("):
            self.enter(tok)
            inner = self.parse_expr()
            self.expect(")")
            self.nesting -= 1
            return inner
        self.fail("integer literal", "string literal", "column name", "`(`")

    @staticmethod
    def int_literal(tok: Token, negative: bool) -> IntLiteral:
        value = -int(tok.text) if negative else int(tok.text)
        if value < INT64_MIN or value > INT64_MAX:
            raise QuerySyntaxError(tok.pos, ("64-bit integer literal",), tok.text)
        return IntLiteral(value)


def parse_query(text: str) -> QueryPlan:
    """Parse one SELECT statement into a QueryPlan."""
    return _Parser(text).parse()
