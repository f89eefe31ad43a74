"""Seeded benchmark inputs: scaled suite copies and the plan_stream queries.

Everything here is a pure function of (seed, scale), so two runs with the
same seed see byte-identical tables and the same query stream. Nothing is
written outside the caller's working directory; the repository's `suite/`
is only read.
"""

from __future__ import annotations

import contextlib
import copy
import filecmp
import io
import json
import random
import shutil
from pathlib import Path

import sqf
import sqf.suite
from sqf.frontend import Star


def _scaled_rows(rows: int, scale: float) -> int:
    return max(1, round(rows * scale))


def scaled_manifest(manifest: dict, suite_dir: Path, seed: int, scale: float) -> dict:
    """A copy of `manifest` with every table's rows multiplied by `scale`.

    A `randint` column named like another table's `serial` key is a foreign
    key into that table (orders.custkey -> customers.custkey); its domain
    grows with the referenced table so join selectivity stays comparable.
    Profile paths are made absolute so the copy can live anywhere.
    """
    out = copy.deepcopy(manifest)
    out["seed"] = seed
    for key in ("library", "device", "baseline_device"):
        out[key] = str((suite_dir / manifest[key]).resolve())
    serial_keys = {}
    for name, spec in manifest["tables"].items():
        for col in spec["columns"]:
            if col["gen"]["kind"] == "serial":
                serial_keys[col["name"]] = (name, spec["rows"])
    for name, spec in out["tables"].items():
        spec["rows"] = _scaled_rows(spec["rows"], scale)
        for col in spec["columns"]:
            gen = col["gen"]
            ref = serial_keys.get(col["name"])
            if gen["kind"] != "randint" or ref is None or ref[0] == name:
                continue
            old_rows = ref[1]
            new_rows = _scaled_rows(old_rows, scale)
            span = gen["hi"] - gen["lo"] + 1
            gen["hi"] = gen["lo"] + max(1, round(span * new_rows / old_rows)) - 1
    return out


def write_suite(repo_root: Path, dest: Path, seed: int, scale: float) -> Path:
    """Write a scaled manifest copy plus the suite's queries into `dest`.

    Tables are not generated here; `sqf.suite.materialize(dest)` does that,
    so the generator being timed is the program's own.
    """
    suite_dir = repo_root / "suite"
    manifest = json.loads((suite_dir / "manifest.json").read_text(encoding="utf-8"))
    dest.mkdir(parents=True, exist_ok=True)
    scaled = scaled_manifest(manifest, suite_dir, seed, scale)
    (dest / "manifest.json").write_text(json.dumps(scaled, indent=2) + "\n",
                                        encoding="utf-8")
    for query in manifest["queries"]:
        shutil.copyfile(suite_dir / query, dest / query)
    return dest


def generator_matches_shipped(repo_root: Path, work: Path) -> bool:
    """At SF 1 with the shipped seed, the scaled copy must reproduce exactly
    the bytes `python -m sqf.suite` writes for the shipped manifest."""
    suite_dir = repo_root / "suite"
    manifest = json.loads((suite_dir / "manifest.json").read_text(encoding="utf-8"))
    ours = write_suite(repo_root, work / "scaled", manifest["seed"], 1.0)
    sqf.suite.materialize(ours, force=True)
    shipped = work / "shipped"
    shipped.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(suite_dir / "manifest.json", shipped / "manifest.json")
    with contextlib.redirect_stdout(io.StringIO()):  # it lists the files written
        sqf.suite.main([str(shipped), "--force"])
    tables_dir = manifest["tables_dir"]
    return all(
        filecmp.cmp(ours / tables_dir / f"{name}.csv",
                    shipped / tables_dir / f"{name}.csv", shallow=False)
        for name in manifest["tables"]
    )


# --------------------------------------------------------------------------
# plan_stream query generator
# --------------------------------------------------------------------------

# Suite schema, by table: INT columns with a literal range that hits their
# data, and CHAR columns with the values the manifest draws from.
_INT_COLS = {
    "orders": {"orderkey": (1, 8192), "custkey": (0, 1023), "qty": (1, 50),
               "price": (100, 99999)},
    "customers": {"custkey": (0, 1023), "nation": (0, 24), "acct": (0, 999999)},
}
_CHAR_COLS = {
    "orders": {"status": ["A", "B", "C"], "region": ["EAST", "WEST", "NRTH", "SOTH"]},
    "customers": {"grade": ["AA", "BB", "CC", "DD"]},
}
_GROUP_COLS = {"orders": ["status", "region"], "customers": ["nation", "grade"]}
_INT_OPS = ["=", "<>", "<", "<=", ">", ">="]
_AGG_FNS = ["COUNT", "SUM", "MIN", "MAX", "AVG"]
MAX_WHERE_TERMS = 4  # one comparison each; the restriction module takes <= 8


def suite_shapes(repo_root: Path) -> list[dict]:
    """The shape of each query of the shipped suite: whether it joins, what
    its select list is, and whether it orders.

    `select` is "star" (SELECT *), "grouped" (GROUP BY), "aggregate"
    (aggregates without GROUP BY), "computed" (columns and an arithmetic
    expression) or "columns".
    """
    suite_dir = repo_root / "suite"
    manifest = json.loads((suite_dir / "manifest.json").read_text(encoding="utf-8"))
    shapes = []
    for query in manifest["queries"]:
        plan = sqf.parse_query((suite_dir / query).read_text(encoding="utf-8"))
        if any(isinstance(item, Star) for item in plan.projection):
            select = "star"
        elif plan.group_by:
            select = "grouped"
        elif plan.aggregates:
            select = "aggregate"
        elif plan.computed:
            select = "computed"
        else:
            select = "columns"
        shapes.append({"join": plan.join is not None, "select": select,
                       "ordered": bool(plan.order_by)})
    return shapes


def generate_query(rng: random.Random, shape: dict) -> dict:
    """One valid suite-schema query of the given shape, and its features.

    Columns, aggregates, literals and sort directions are drawn at random;
    WHERE has 0-4 single-comparison terms joined by AND or OR.
    """
    joined, select = shape["join"], shape["select"]
    tables = ["orders", "customers"] if joined else ["orders"]

    def ref(table, col):
        return f"{table}.{col}" if joined else col

    def aggregates():
        for i in range(rng.randint(1, 2)):
            fn = rng.choice(_AGG_FNS)
            if fn == "COUNT" and rng.random() < 0.5:
                yield f"COUNT(*) AS a{i}", f"a{i}"
            else:
                table = rng.choice(tables)
                col = rng.choice(sorted(_INT_COLS[table]))
                yield f"{fn}({ref(table, col)}) AS a{i}", f"a{i}"

    items, out_names, group_by = [], [], []
    if select == "star":
        items = ["*"]
        names = [c for t in tables for c in list(_INT_COLS[t]) + list(_CHAR_COLS[t])]
        out_names = [c for c in names if names.count(c) == 1]
    elif select == "grouped":
        for _ in range(rng.randint(1, 2)):
            table = rng.choice(tables)
            col = rng.choice(_GROUP_COLS[table])
            if col not in out_names:
                group_by.append(ref(table, col))
                out_names.append(col)
        items = list(group_by)
    if select in ("grouped", "aggregate"):
        for item, name in aggregates():
            items.append(item)
            out_names.append(name)
    if select in ("columns", "computed"):
        pool = [(t, c) for t in tables for c in list(_INT_COLS[t]) + list(_CHAR_COLS[t])]
        for table, col in rng.sample(pool, rng.randint(1, 3)):
            if col not in out_names:
                items.append(ref(table, col))
                out_names.append(col)
    if select == "computed":
        items.append(f"{ref('orders', 'qty')} * {ref('orders', 'price')} AS amount")
        out_names.append("amount")

    sql = f"SELECT {', '.join(items)} FROM orders"
    if joined:
        sql += " JOIN customers ON orders.custkey = customers.custkey"
    terms = []
    for _ in range(rng.randint(0, MAX_WHERE_TERMS)):
        table = rng.choice(tables)
        if rng.random() < 0.3:
            col, values = rng.choice(sorted(_CHAR_COLS[table].items()))
            terms.append(f"{ref(table, col)} {rng.choice(['=', '<>'])} "
                         f"'{rng.choice(values)}'")
        else:
            col, (lo, hi) = rng.choice(sorted(_INT_COLS[table].items()))
            terms.append(f"{ref(table, col)} {rng.choice(_INT_OPS)} {rng.randint(lo, hi)}")
    if terms:
        sql += " WHERE " + terms[0]
        for term in terms[1:]:
            sql += f" {rng.choice(['AND', 'AND', 'OR'])} {term}"
    if group_by:
        sql += " GROUP BY " + ", ".join(group_by)
    if shape["ordered"]:
        keys = rng.sample(out_names, min(len(out_names), rng.randint(1, 2)))
        sql += " ORDER BY " + ", ".join(f"{k} {rng.choice(['ASC', 'DESC'])}" for k in keys)
    return {"sql": sql, "terms": len(terms), **shape}


def query_stream(repo_root: Path, seed: int, count: int) -> list[dict]:
    """`count` queries, each of the shape of a suite query drawn uniformly,
    so the stream has the suite's shares of joins, grouping, ordering,
    ungrouped aggregates and SELECT *."""
    shapes = suite_shapes(repo_root)
    rng = random.Random(seed)
    return [generate_query(rng, rng.choice(shapes)) for _ in range(count)]
