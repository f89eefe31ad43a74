from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _ref import pretty_print
from conftest import make_table, run_candidate
from sqf.errors import (
    AmbiguousColumn,
    QuerySyntaxError,
    QueryTypeError,
    UnknownColumn,
    UnknownTable,
)
from sqf.frontend import (
    AggItem,
    Arith,
    BCmp,
    BoolOp,
    Cmp,
    ColumnRef,
    IntLiteral,
    NamedItem,
    StrLiteral,
    ValueRef,
    bind,
    parse_query,
    tokenize,
)
from sqf.frontend.binder import FromValue, walk_bound
from sqf.frontend.parser import _SYMBOLS, KEYWORDS
from sqf.oracle import first_multiset_diff, reference_execute
from sqf.planner import enumerate_pipelines, select_best
from sqf.relcore import table_stats


def test_parse_simple_select():
    plan = parse_query("SELECT a FROM t")
    assert plan.source == "t"
    assert plan.projection == (NamedItem(ColumnRef(None, "a")),)
    assert plan.join is None and plan.restriction is None


def test_parse_count_with_arith_restriction():
    plan = parse_query("SELECT COUNT(*) FROM t WHERE a > 3 + b")
    assert plan.restriction == Cmp(
        ">", ColumnRef(None, "a"), Arith("+", IntLiteral(3), ColumnRef(None, "b"))
    )
    assert len(plan.aggregates) == 1
    assert plan.aggregates[0].fn == "COUNT" and plan.aggregates[0].arg is None
    assert plan.projection == (AggItem(0),)


def test_parse_error_at_end_of_input():
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("SELECT * FROM")
    assert err.value.position == len("SELECT * FROM")
    assert err.value.found == "end of input"


def test_nesting_limit_is_pinned():
    from sqf.frontend.parser import MAX_NESTING

    assert MAX_NESTING == 32
    # a chain of n additions is an operator tree n deep
    parse_query("SELECT a" + " + a" * MAX_NESTING + " AS x FROM t")
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("SELECT a" + " + a" * (MAX_NESTING + 1) + " AS x FROM t")
    assert err.value.found == "+"
    assert err.value.position == len("SELECT a" + " + a" * MAX_NESTING) + 1
    parse_query("SELECT a FROM t WHERE " + "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
                + " > 1")
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("SELECT a FROM t WHERE " + "(" * 3000 + "a > 1" + ")" * 3000)
    assert err.value.position == len("SELECT a FROM t WHERE ") + MAX_NESTING
    assert err.value.found == "("


def test_parse_error_positions_are_token_boundaries():
    bad = ["SELECT", "SELECT a FROM t WHERE", "SELECT a FROM t ORDER", "SELECT ,",
           "SELECT a FROM t GROUP a", "SELECT a b FROM t", "SELECT a FROM t WHERE a <"]
    for text in bad:
        with pytest.raises(QuerySyntaxError) as err:
            parse_query(text)
        assert 0 <= err.value.position <= len(text)


@pytest.mark.parametrize("text, char", [
    ("SELECT a FROM t WHERE a = ²", "²"),
    ("SELECT a FROM t WHERE a = 1²", "²"),
    ("SELECT a FROM t WHERE a = ٣", "٣"),
    ("SELECT é FROM t", "é"),
    ("ſELECT a FROM t ORDER BY a DESC", "ſ"),
])
def test_non_ascii_outside_a_string_is_a_syntax_error(text, char):
    with pytest.raises(QuerySyntaxError) as err:
        parse_query(text)
    assert err.value.position == text.index(char)
    assert err.value.expected == ("a token",)
    assert err.value.found == repr(char)


@pytest.mark.parametrize("literal, char", [("'é'", "é"), ("'a\x01b'", "\x01")])
def test_string_literal_must_be_printable_ascii(literal, char):
    text = f"SELECT a FROM t WHERE s = {literal}"
    with pytest.raises(QuerySyntaxError) as err:
        parse_query(text)
    assert err.value.position == text.index(char)
    assert err.value.expected == ("printable ASCII character",)
    assert err.value.found == repr(char)


def test_unterminated_string_fails_at_its_quote():
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("SELECT a FROM t WHERE s = 'ab")
    assert err.value.position == len("SELECT a FROM t WHERE s = ")
    assert err.value.expected == ("closing quote",)
    assert err.value.found == "end of input"


@pytest.mark.parametrize("text", ["", " ", " \t\r\n  "])
def test_empty_or_blank_query_is_only_end_of_input(text):
    assert [(t.kind, t.text, t.pos) for t in tokenize(text)] == [("eof", "", len(text))]
    with pytest.raises(QuerySyntaxError) as err:
        parse_query(text)
    assert (err.value.position, err.value.expected, err.value.found) == (
        len(text), ("SELECT",), "end of input")


def test_whitespace_after_the_semicolon_is_ignored():
    text = "SELECT a FROM t; \t\r\n "
    assert [(t.kind, t.text, t.pos) for t in tokenize(text)][-2:] == [
        ("sym", ";", 15), ("eof", "", len(text))]
    assert parse_query(text) == parse_query("SELECT a FROM t")


@pytest.mark.parametrize("tail, at, expected, found", [
    (" \t ²", 3, ("a token",), "'²'"),
    ("\n\n'a\x01b'", 4, ("printable ASCII character",), "'\\x01'"),
    ("  \r\n'ab", 4, ("closing quote",), "end of input"),
    # a minus sign must start an integer literal
    (" -b", 2, ("integer literal",), "b"),
])
def test_whitespace_before_a_bad_token_keeps_its_position(tail, at, expected, found):
    """Whitespace leading a bad character, a bad quote or an unterminated
    string moves no error: each is reported where it stands."""
    head = "SELECT a FROM t WHERE s ="
    with pytest.raises(QuerySyntaxError) as err:
        parse_query(head + tail)
    assert (err.value.position, err.value.expected, err.value.found) == (
        len(head) + at, expected, found)


_KEYWORD_TEXT = st.sampled_from(sorted(KEYWORDS)).flatmap(
    lambda word: st.tuples(*(st.sampled_from((c.lower(), c)) for c in word))
).map("".join)
_TOKENS = st.one_of(
    st.tuples(st.just("kw"), _KEYWORD_TEXT),
    st.tuples(st.just("ident"), st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True)
              .filter(lambda word: word.upper() not in KEYWORDS)),
    st.tuples(st.just("int"), st.from_regex(r"[0-9]+", fullmatch=True)),
    st.tuples(st.just("string"), st.from_regex(r"[ -&(-~]*", fullmatch=True)),
    st.tuples(st.just("sym"), st.sampled_from(_SYMBOLS)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_TOKENS, st.from_regex(r"[ \t\r\n]+", fullmatch=True)),
                max_size=12),
       st.from_regex(r"[ \t\r\n]*", fullmatch=True))
def test_tokenize_round_trip(tokens, lead):
    """Valid tokens joined by whitespace come back as the same (kind, text)
    sequence, each at its first character."""
    text, expected = lead, []
    for (kind, word), gap in tokens:
        expected.append((kind, word.upper() if kind == "kw" else word, len(text)))
        text += (f"'{word}'" if kind == "string" else word) + gap
    got = tokenize(text)
    assert [(t.kind, t.text, t.pos) for t in got[:-1]] == expected
    assert (got[-1].kind, got[-1].pos) == ("eof", len(text))


def test_keywords_case_insensitive():
    a = parse_query("select a from t where a > 1 order by a desc")
    b = parse_query("SELECT a FROM t WHERE a > 1 ORDER BY a DESC")
    assert a == b


def test_computed_requires_alias():
    with pytest.raises(QuerySyntaxError):
        parse_query("SELECT a + 1 FROM t")
    plan = parse_query("SELECT a + 1 AS b FROM t")
    assert plan.computed == (("b", Arith("+", ColumnRef(None, "a"), IntLiteral(1))),)


def test_parse_join_clause():
    plan = parse_query("SELECT * FROM t JOIN u ON t.a = u.b")
    assert plan.join.table == "u"
    assert plan.join.left_key == ColumnRef("t", "a")
    assert plan.join.right_key == ColumnRef("u", "b")


ROUND_TRIP_QUERIES = [
    "SELECT a FROM t",
    "SELECT * FROM t",
    "SELECT a, b FROM t WHERE a > 3 AND b = 'xy' OR NOT a < 1",
    "SELECT a + b * 2 AS c, a FROM t WHERE (a + 1) * 2 <> 4",
    "SELECT COUNT(*), SUM(a) AS total FROM t WHERE a >= -5",
    "SELECT b, COUNT(a) FROM t GROUP BY b ORDER BY b DESC",
    "SELECT t.a, u.d FROM t JOIN u ON t.a = u.c WHERE u.d < 9 ORDER BY a ASC, d DESC",
    "SELECT MIN(a) AS lo, MAX(a) AS hi FROM t",
]


@pytest.mark.parametrize("text", ROUND_TRIP_QUERIES)
def test_pretty_print_round_trip(text):
    plan = parse_query(text)
    assert parse_query(pretty_print(plan)) == plan


def test_pretty_print_round_trip_suite(suite_dir):
    for path in sorted(suite_dir.glob("q*.sql")):
        plan = parse_query(path.read_text())
        assert parse_query(pretty_print(plan)) == plan, path.name


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_pretty_print_round_trip_random(data):
    text = _random_query_text(data)
    plan = parse_query(text)
    assert parse_query(pretty_print(plan)) == plan


def _random_query_text(data) -> str:
    names = ["a", "b", "c"]
    col = lambda: data.draw(st.sampled_from(names))
    lit = lambda: str(data.draw(st.integers(-99, 99)))

    def atom():
        kind = data.draw(st.sampled_from(["col", "lit", "add", "mul"]))
        if kind == "col":
            return col()
        if kind == "lit":
            return lit()
        op = "+" if kind == "add" else "*"
        return f"({col()} {op} {lit()})"

    def cmp():
        op = data.draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        return f"{atom()} {op} {atom()}"

    def pred(depth=0):
        if depth >= 2 or data.draw(st.booleans()):
            return cmp()
        op = data.draw(st.sampled_from(["AND", "OR"]))
        parts = [pred(depth + 1) for _ in range(data.draw(st.integers(2, 3)))]
        body = f" {op} ".join(parts)
        return f"(NOT ({body}))" if data.draw(st.booleans()) else f"({body})"

    items = ", ".join(dict.fromkeys(col() for _ in range(data.draw(st.integers(1, 3)))))
    text = f"SELECT {items} FROM t"
    if data.draw(st.booleans()):
        text += f" WHERE {pred()}"
    if data.draw(st.booleans()):
        keys = ", ".join(
            f"{name} {data.draw(st.sampled_from(['ASC', 'DESC']))}"
            for name in dict.fromkeys(items.split(", "))
        )
        text += f" ORDER BY {keys}"
    return text


# ---------------------------------------------------------------------------
# binding
# ---------------------------------------------------------------------------

T = make_table([("a", "INT"), ("b", 4), ("d", "INT")], [(1, "x", 2)])
U = make_table([("c", "INT"), ("e", 4)], [(1, "y")])
CATALOG = {"t": T.schema, "u": U.schema}


def test_bind_unknown_column():
    with pytest.raises(UnknownColumn) as err:
        bind(parse_query("SELECT zzz FROM t"), CATALOG)
    assert err.value.name == "zzz"


def test_bind_unknown_table():
    with pytest.raises(UnknownTable):
        bind(parse_query("SELECT a FROM nope"), CATALOG)


def test_bind_type_error_char_arith():
    with pytest.raises(QueryTypeError):
        bind(parse_query("SELECT a + b AS x FROM t"), CATALOG)


def test_bind_char_only_equality():
    with pytest.raises(QueryTypeError):
        bind(parse_query("SELECT a FROM t WHERE b < 'x'"), CATALOG)
    bound = bind(parse_query("SELECT a FROM t WHERE b <> 'x'"), CATALOG)
    assert bound.restriction is not None


def test_bind_join_keys_resolved():
    bp = bind(parse_query("SELECT t.a, u.e FROM t JOIN u ON t.a = u.c"), CATALOG)
    assert bp.join_keys == (0, 0)  # (t.a, u.c)
    assert bp.tables == ("t", "u")


def test_bound_plan_names_tables_as_the_catalog_does(default_library, default_device):
    orders = make_table([("id", "INT"), ("cust", "INT")], [(1, 7), (2, 8), (3, 7)])
    customers = make_table([("cid", "INT"), ("name", 3)], [(7, "ann"), (8, "bob")])
    tables = {"orders": orders, "customers": customers}
    bp = bind(parse_query("SELECT ORDERS.id, Customers.name FROM ORDERS "
                          "JOIN Customers ON ORDERS.cust = Customers.cid"),
              {name: t.schema for name, t in tables.items()})
    assert bp.tables == ("orders", "customers")
    stats = {name: table_stats(t) for name, t in tables.items()}
    cand, _ = select_best(enumerate_pipelines(bp, default_library, default_device),
                          stats, default_device)
    result, _ = run_candidate(cand, tables, default_device)
    assert first_multiset_diff(result, reference_execute(bp, tables)) is None


def test_bind_ambiguous_column():
    v = make_table([("a", "INT")], [(1,)])
    with pytest.raises(AmbiguousColumn):
        bind(parse_query("SELECT a FROM t JOIN v ON t.a = v.a"),
             {"t": T.schema, "v": v.schema})


def test_bind_star_expansion_order_and_dedup():
    v = make_table([("a", "INT"), ("z", "INT")], [(1, 2)])
    bp = bind(parse_query("SELECT * FROM t JOIN v ON t.a = v.a"),
              {"t": T.schema, "v": v.schema})
    assert bp.output_schema.names == ("a", "b", "d", "v_a", "z")


@pytest.mark.parametrize("items, names", [
    ("a, a", ("a", "a_2")),
    ("COUNT(*), COUNT(*)", ("count_star", "count_star_2")),
])
def test_bind_suffixes_a_repeated_output_name(items, names):
    assert bind(parse_query(f"SELECT {items} FROM t"), CATALOG).output_schema.names == names


def test_bind_is_idempotent():
    plan = parse_query("SELECT t.a, u.e FROM t JOIN u ON t.a = u.c WHERE t.d > 0")
    assert bind(plan, CATALOG) == bind(plan, CATALOG)


def test_bound_expressions_reuse_the_parser_nodes():
    plan = parse_query("SELECT a * 2 AS x FROM t "
                       "WHERE NOT (a + 1 > d) AND (b = 'x' OR d < -3)")
    bp = bind(plan, CATALOG)
    nodes = [*walk_bound(bp.restriction), *walk_bound(bp.computed[0].expr)]
    kinds = {type(node) for node in nodes}
    assert kinds == {BoolOp, Arith, IntLiteral, StrLiteral, ValueRef, BCmp}
    assert {k for k in kinds if k.__module__ == "sqf.frontend.binder"} == {ValueRef, BCmp}
    assert bind(plan, CATALOG) == bp


def test_bind_grouping_projection_rule():
    with pytest.raises(QueryTypeError):
        bind(parse_query("SELECT a, COUNT(*) FROM t GROUP BY d"), CATALOG)
    bp = bind(parse_query("SELECT d, COUNT(*) FROM t GROUP BY d"), CATALOG)
    assert len(bp.aggregates) == 1


def test_bind_order_by_must_name_output():
    with pytest.raises(UnknownColumn):
        bind(parse_query("SELECT a FROM t ORDER BY d"), CATALOG)


def test_bind_sum_needs_int():
    with pytest.raises(QueryTypeError):
        bind(parse_query("SELECT SUM(b) FROM t"), CATALOG)


@pytest.mark.parametrize("text, error, message", [
    ("SELECT a FROM t JOIN T ON t.a = T.a", QueryTypeError,
     "FROM: self-joins are not supported"),
    ("SELECT a FROM t JOIN u ON t.a = t.d", QueryTypeError,
     "t.a = t.d: join keys must come from different tables"),
    ("SELECT a FROM t JOIN u ON t.b = u.c", QueryTypeError,
     "t.b = u.c: join key types differ"),
    ("SELECT x.a FROM t", UnknownTable, "unknown table `x`"),
    ("SELECT a > 1 AS x FROM t", QueryTypeError,
     "(a > 1): expected a value, got a condition"),
    ("SELECT a FROM t WHERE (a > 1) + 1 > 0", QueryTypeError,
     "((a > 1) + 1): condition used as a value"),
    ("SELECT a FROM t WHERE a + 1", QueryTypeError,
     "(a + 1): expected a condition, got a value"),
    ("SELECT a FROM t WHERE b = '" + "x" * 65 + "'", QueryTypeError,
     "'" + "x" * 65 + "': string literal longer than 64 bytes"),
    ("SELECT a FROM t WHERE a = b", QueryTypeError,
     "(a = b): cannot compare INT with CHAR"),
    ("SELECT a + 1 AS D FROM t", QueryTypeError,
     "D: computed name collides with a column"),
    ("SELECT a + 1 AS x, a + 2 AS X FROM t", QueryTypeError,
     "X: computed name defined twice"),
    ("SELECT SUM(*) FROM t", QueryTypeError,
     "SUM(*) AS sum_star: SUM(*) is not allowed"),
    ("SELECT * FROM t GROUP BY a", QueryTypeError,
     "*: star projection cannot be mixed with grouping"),
], ids=["self-join", "keys-one-table", "key-types-differ", "unknown-qualifier",
        "condition-as-value", "condition-as-operand", "value-as-condition",
        "long-string", "int-vs-char", "computed-collides", "computed-twice",
        "sum-star", "star-with-group-by"])
def test_bind_error_names_its_rule(text, error, message):
    with pytest.raises(error) as err:
        bind(parse_query(text), CATALOG)
    assert type(err.value) is error
    assert str(err.value) == message


def test_bind_projection_sources():
    bp = bind(parse_query("SELECT d, a FROM t"), CATALOG)
    assert bp.output_schema.names == ("d", "a")
    assert all(isinstance(source, FromValue) for source in bp.output)
