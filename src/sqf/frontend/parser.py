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

Reserved words are case-insensitive. Errors carry the character position of
the offending token and the set of things that would have been accepted.

Expressions nest at most MAX_NESTING deep, counting both the tree depth of
operators and the nesting of parentheses and NOT, so no later stage ever
walks a tree deep enough to exhaust the interpreter's stack.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arith import INT64_MAX, INT64_MIN
from ..errors import QuerySyntaxError
from .ast import (
    AGG_FNS,
    AggItem,
    AggSpec,
    Arith,
    BoolOp,
    Cmp,
    ColumnRef,
    IntLiteral,
    JoinSpec,
    NamedItem,
    OrderItem,
    QueryPlan,
    Star,
    StrLiteral,
)


KEYWORDS = frozenset(
    ["SELECT", "FROM", "JOIN", "ON", "WHERE", "GROUP", "BY",
     "ORDER", "ASC", "DESC", "AND", "OR", "NOT", "AS"]
)

MAX_NESTING = 32

_SYMBOLS = ("<=", ">=", "<>", ",", "(", ")", "*", ".", ";", "+", "-", "/", "=", "<", ">")


@dataclass(frozen=True)
class Token:
    kind: str  # "kw", "ident", "int", "string", "sym", "eof"
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word.upper() in KEYWORDS:
                tokens.append(Token("kw", word.upper(), i))
            else:
                tokens.append(Token("ident", word, i))
            i = j
            continue
        if ch == "'":
            j = i + 1
            while j < n and text[j] != "'":
                if not (0x20 <= ord(text[j]) <= 0x7E):
                    raise QuerySyntaxError(j, ("printable ASCII character",), repr(text[j]))
                j += 1
            if j >= n:
                raise QuerySyntaxError(i, ("closing quote",), "end of input")
            tokens.append(Token("string", text[i + 1 : j], i))
            i = j + 1
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token("sym", sym, i))
                i += len(sym)
                break
        else:
            raise QuerySyntaxError(i, ("a token",), repr(ch))
    tokens.append(Token("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.nesting = 0  # open parentheses and NOTs
        self.depths: dict[int, int] = {}  # id(operator node) -> operator levels

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

    def at_kw(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.text == word

    def eat_kw(self, word: str) -> bool:
        if self.at_kw(word):
            self.advance()
            return True
        return False

    def expect_kw(self, word: str):
        if not self.eat_kw(word):
            self.fail(word)

    def at_sym(self, sym: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == sym

    def eat_sym(self, sym: str) -> bool:
        if self.at_sym(sym):
            self.advance()
            return True
        return False

    def expect_sym(self, sym: str):
        if not self.eat_sym(sym):
            self.fail(f"`{sym}`")

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
        self.expect_kw("SELECT")
        raw_items = self.parse_items()
        self.expect_kw("FROM")
        source = self.expect_ident("table name")
        join = None
        if self.eat_kw("JOIN"):
            table = self.expect_ident("table name")
            self.expect_kw("ON")
            left = self.parse_colref()
            self.expect_sym("=")
            right = self.parse_colref()
            join = JoinSpec(table, left, right)
        restriction = None
        if self.eat_kw("WHERE"):
            restriction = self.parse_expr()
        group_by: tuple = ()
        if self.eat_kw("GROUP"):
            self.expect_kw("BY")
            cols = [self.parse_colref()]
            while self.eat_sym(","):
                cols.append(self.parse_colref())
            group_by = tuple(cols)
        order_by: tuple = ()
        if self.eat_kw("ORDER"):
            self.expect_kw("BY")
            keys = [self.parse_order_key()]
            while self.eat_sym(","):
                keys.append(self.parse_order_key())
            order_by = tuple(keys)
        self.eat_sym(";")
        if self.peek().kind != "eof":
            self.fail("end of input")

        computed, aggregates, projection = self.shape_items(raw_items)
        return QueryPlan(
            source=source,
            join=join,
            restriction=restriction,
            computed=computed,
            group_by=group_by,
            aggregates=aggregates,
            projection=projection,
            order_by=order_by,
        )

    def parse_order_key(self) -> OrderItem:
        name = self.expect_ident("output column name")
        ascending = True
        if self.eat_kw("DESC"):
            ascending = False
        else:
            self.eat_kw("ASC")
        return OrderItem(name, ascending)

    def parse_items(self) -> list:
        if self.eat_sym("*"):
            return [Star()]
        items = [self.parse_item()]
        while self.eat_sym(","):
            items.append(self.parse_item())
        return items

    def parse_item(self):
        tok = self.peek()
        if (
            tok.kind == "ident"
            and tok.text.upper() in AGG_FNS
            and self.tokens[self.pos + 1].kind == "sym"
            and self.tokens[self.pos + 1].text == "("
        ):
            fn = tok.text.upper()
            self.advance()
            self.expect_sym("(")
            if self.eat_sym("*"):
                arg = None
            else:
                arg = self.parse_colref()
            self.expect_sym(")")
            alias = None
            if self.eat_kw("AS"):
                alias = self.expect_ident("alias")
            return ("agg", fn, arg, alias)
        expr = self.parse_expr()
        if self.eat_kw("AS"):
            alias = self.expect_ident("alias")
            return ("computed", alias, expr)
        if isinstance(expr, ColumnRef):
            return ("column", expr)
        self.fail("AS")

    def shape_items(self, raw_items):
        """Split parsed select items into computed defs, aggregates, projection."""
        computed: list = []
        aggregates: list = []
        projection: list = []
        agg_names = set()
        for item in raw_items:
            if isinstance(item, Star):
                projection.append(item)
                continue
            tag = item[0]
            if tag == "column":
                projection.append(NamedItem(item[1]))
            elif tag == "computed":
                name, expr = item[1], item[2]
                computed.append((name, expr))
                projection.append(NamedItem(ColumnRef(None, name)))
            else:  # aggregate
                _, fn, arg, alias = item
                name = alias or self.default_agg_name(fn, arg, agg_names)
                agg_names.add(name.lower())
                projection.append(AggItem(len(aggregates)))
                aggregates.append(AggSpec(fn, arg, name))
        return tuple(computed), tuple(aggregates), tuple(projection)

    @staticmethod
    def default_agg_name(fn: str, arg: ColumnRef | None, taken: set) -> str:
        base = f"{fn.lower()}_{arg.name if arg is not None else 'star'}"
        name = base
        k = 2
        while name.lower() in taken:
            name = f"{base}_{k}"
            k += 1
        return name

    def parse_colref(self) -> ColumnRef:
        first = self.expect_ident("column name")
        if self.eat_sym("."):
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
        while self.eat_kw(op):
            children.append(parse_child())
        if len(children) == 1:
            return children[0]
        return self.node(tok, BoolOp(op, tuple(children)), *children)

    def parse_not(self):
        tok = self.peek()
        if self.eat_kw("NOT"):
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
        if self.at_sym("-"):
            self.advance()
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
        if self.eat_sym("("):
            self.enter(tok)
            inner = self.parse_expr()
            self.expect_sym(")")
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
