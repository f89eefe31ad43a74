"""Randomized (query, tables) generator for the oracle-equivalence gate.

Cases are valid by construction (they parse, bind, and instantiate within
the default fabric's slot budget) but are otherwise adversarial: empty
tables, skewed keys, CHAR paddings, arithmetic that can legitimately fault
(division by zero, overflow), joins with fanout, grouping over computed
attributes, and multi-key ordering.
"""

from __future__ import annotations

import random
import string

from sqf.relcore import ColumnType, Schema, Table, table_stats

_CHAR_POOL = ["a", "b", "xy", "zz", "ab ", "q_1", "LONGTAIL"]


def _char_values(rng: random.Random, width: int, k: int):
    values = []
    for _ in range(k):
        n = rng.randint(0, width)
        values.append("".join(rng.choice(string.ascii_lowercase) for _ in range(n)))
    return values or [""]


def _column(rng: random.Random, name: str, key_kind=None):
    if key_kind == "INT" or (key_kind is None and rng.random() < 0.75):
        return name, ColumnType.int64()
    if key_kind == "CHAR":
        return name, ColumnType.char(4)  # matches the shared key domain width
    width = rng.choice([1, 2, 4, 8])
    return name, ColumnType.char(width)


def _table(rng: random.Random, prefix: str, n_rows: int, key_kind=None,
           key_domain=None):
    n_cols = rng.randint(2, 6)
    cols = []
    pools = []
    for i in range(n_cols):
        # column 1 is always INT so predicates and aggregates have material
        kind = key_kind if i == 0 else ("INT" if i == 1 else None)
        name, ctype = _column(rng, f"{prefix}{i}", kind)
        cols.append((name, ctype))
        if ctype.kind.value == "INT":
            if i == 0 and key_domain is not None:
                pools.append(("int", key_domain))
            elif rng.random() < 0.2:
                pools.append(("int", (0, 10_000)))
            else:
                pools.append(("int", (-20, 20)))
        else:
            k = rng.randint(1, 5)
            if i == 0 and key_domain is not None:
                pools.append(("char", key_domain))
            else:
                pools.append(("char", _char_values(rng, ctype.width_bytes, k)))
    rows = []
    for _ in range(n_rows):
        row = []
        for kind, pool in pools:
            if kind == "int":
                row.append(rng.randint(pool[0], pool[1]))
            else:
                row.append(rng.choice(pool))
        rows.append(tuple(row))
    return Table.from_rows(Schema(tuple(cols)), tuple(rows))


class _QueryBuilder:
    def __init__(self, rng: random.Random, tables: dict, joined: bool):
        self.rng = rng
        self.tables = tables
        self.joined = joined
        self.terms = 0
        self.arith_nodes = 0
        self.computed: list[tuple[str, str]] = []

    def int_columns(self):
        out = []
        for name, table in self.tables.items():
            for col, ctype in table.schema.columns:
                if ctype.kind.value == "INT":
                    out.append((name, col))
        return out

    def char_columns(self):
        out = []
        for name, table in self.tables.items():
            for col, ctype in table.schema.columns:
                if ctype.kind.value == "CHAR":
                    out.append((name, col, ctype.width_bytes))
        return out

    def ref(self, table: str, col: str) -> str:
        if self.joined and self.rng.random() < 0.25:
            return f"{table}.{col}"
        return col

    def comparison(self) -> str:
        rng = self.rng
        ints = self.int_columns()
        chars = self.char_columns()
        self.terms += 1
        if chars and rng.random() < 0.3:
            table, col, width = rng.choice(chars)
            value = rng.choice(_char_values(rng, width, 3) + [""])
            op = rng.choice(["=", "<>"])
            return f"{self.ref(table, col)} {op} '{value}'"
        table, col = rng.choice(ints)
        op = rng.choice(["=", "<>", "<", "<=", ">", ">="])
        roll = rng.random()
        if roll < 0.55 or self.arith_nodes >= 3:
            return f"{self.ref(table, col)} {op} {rng.randint(-25, 25)}"
        if roll < 0.75:
            t2, c2 = rng.choice(ints)
            return f"{self.ref(table, col)} {op} {self.ref(t2, c2)}"
        self.arith_nodes += 1
        t2, c2 = rng.choice(ints)
        if roll < 0.92:
            return f"{self.ref(table, col)} + {rng.randint(-9, 9)} {op} {self.ref(t2, c2)}"
        return f"{self.ref(table, col)} / {self.ref(t2, c2)} {op} {rng.randint(-3, 3)}"

    def predicate(self) -> str:
        rng = self.rng
        n = rng.randint(1, 3)
        parts = []
        while len(parts) < n and self.terms < 4:
            roll = rng.random()
            if roll < 0.6:
                parts.append(self.comparison())
            elif roll < 0.8 and self.terms <= 2:
                a, b = self.comparison(), self.comparison()
                parts.append(f"({a} OR {b})")
            else:
                parts.append(f"NOT {self.comparison()}")
        return " AND ".join(parts)

    def computed_item(self, index: int) -> str:
        rng = self.rng
        ints = self.int_columns()
        name = f"c{index}"
        table, col = rng.choice(ints)
        if rng.random() < 0.5 or self.arith_nodes >= 3:
            self.arith_nodes += 1
            expr = f"{self.ref(table, col)} + {rng.randint(-5, 5)}"
        else:
            self.arith_nodes += 2
            t2, c2 = rng.choice(ints)
            expr = f"({self.ref(table, col)} * {rng.randint(1, 3)}) + {self.ref(t2, c2)}"
        self.computed.append((name, expr))
        return f"{expr} AS {name}"


def criterion_1_cases(n: int = 1000) -> list:
    """Criterion 1's first `n` cases, from seed 0xC0FFEE: (sql text,
    {table name: Table}, {table name: ColumnStats}) each."""
    rng = random.Random(0xC0FFEE)
    cases = []
    for _ in range(n):
        sql, tables = random_case(rng)
        cases.append((sql, tables, {name: table_stats(t) for name, t in tables.items()}))
    return cases


def random_case(rng: random.Random):
    """Returns (sql text, {table name: Table})."""
    joined = rng.random() < 0.5
    if joined:
        if rng.random() < 0.8:
            key_kind, key_domain = "INT", (0, rng.choice([4, 12, 30]))
        else:
            key_kind = "CHAR"
            key_domain = _char_values(rng, 4, rng.randint(2, 5))
        n_left = rng.choice([0, 1, rng.randint(2, 80), rng.randint(80, 250)])
        n_right = rng.choice([0, 1, rng.randint(2, 60), rng.randint(60, 120)])
        left = _table(rng, "a", n_left, key_kind, key_domain)
        right = _table(rng, "b", n_right, key_kind, key_domain)
        tables = {"t": left, "u": right}
    else:
        n = rng.choice([0, 1, rng.randint(2, 120), rng.randint(120, 600),
                        rng.randint(2000, 10_000)])
        tables = {"t": _table(rng, "a", n)}

    builder = _QueryBuilder(rng, tables, joined)
    where = f" WHERE {builder.predicate()}" if rng.random() < 0.7 else ""

    grouped = rng.random() < 0.35
    items: list[str] = []
    order_names: list[str] = []
    if grouped:
        ints = builder.int_columns()
        computed_key = None
        if rng.random() < 0.25:
            # group over a computed attribute defined in the select list
            table, col = rng.choice(ints)
            builder.arith_nodes += 1
            computed_key = f"{builder.ref(table, col)} / {rng.randint(2, 5)}"
            items.append(f"{computed_key} AS gk")
            group_cols = ["gk"]
            order_names.append("gk")
        else:
            candidates = [(t, c) for t, table in tables.items()
                          for c, _ in table.schema.columns]
            group_refs = rng.sample(candidates,
                                    rng.randint(1, min(2, len(candidates))))
            group_cols = [builder.ref(t, c) for t, c in group_refs]
            items.extend(group_cols)
            order_names.extend(c for _, c in group_refs)
        n_aggs = rng.randint(1, 2)
        for i in range(n_aggs):
            fn = rng.choice(["COUNT", "SUM", "MIN", "MAX", "AVG"])
            alias = f"g{i}"
            if fn == "COUNT" and rng.random() < 0.5:
                items.append(f"COUNT(*) AS {alias}")
            elif computed_key is not None and rng.random() < 0.3:
                items.append(f"{fn}(gk) AS {alias}")
            else:
                table, col = rng.choice(ints)
                items.append(f"{fn}({builder.ref(table, col)}) AS {alias}")
            order_names.append(alias)
        text = f"SELECT {', '.join(items)} FROM t"
        if joined:
            text += _join_clause(tables)
        text += where
        text += " GROUP BY " + ", ".join(group_cols)
    else:
        if rng.random() < 0.12:
            text = "SELECT * FROM t"
            if joined:
                text += _join_clause(tables)
            text += where
            order_names = []
            for table in tables.values():
                order_names.extend(table.schema.names)
            # star output may rename right-side duplicates; keep only left names
            order_names = list(tables["t"].schema.names)
        else:
            candidates = [(t, c) for t, table in tables.items()
                          for c, _ in table.schema.columns]
            picks = rng.sample(candidates, rng.randint(1, min(4, len(candidates))))
            for t, c in picks:
                items.append(builder.ref(t, c))
                order_names.append(c)
            for i in range(rng.choice([0, 0, 1, 2])):
                items.append(builder.computed_item(i))
                order_names.append(f"c{i}")
            text = f"SELECT {', '.join(items)} FROM t"
            if joined:
                text += _join_clause(tables)
            text += where

    if order_names and rng.random() < 0.4:
        keys = rng.sample(order_names, rng.randint(1, min(2, len(order_names))))
        parts = [f"{k} {rng.choice(['ASC', 'DESC'])}" for k in keys]
        text += " ORDER BY " + ", ".join(parts)
    return text, tables


def _join_clause(tables) -> str:
    left_key = tables["t"].schema.names[0]
    right_key = tables["u"].schema.names[0]
    return f" JOIN u ON t.{left_key} = u.{right_key}"
