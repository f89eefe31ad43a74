"""Shipped benchmark suite: manifest handling and deterministic table data.

The repository ships the suite's queries and a manifest that pins the table
generator (seed, row counts, column distributions) plus the released
overhead bound. Table CSVs are materialized on demand from the manifest, so
`bench` output stays byte-deterministic without committing megabytes of
data. Every object of the manifest holds exactly its documented fields
(plus an optional `comment`); an unknown, missing or mistyped one is an error.

Run `python -m sqf.suite <suite_dir>` to materialize the tables explicitly.
"""

from __future__ import annotations

import random
import re
import sys
from functools import partial
from pathlib import Path

from .errors import InvalidField, SqfError
from .library import json_float, json_int, read_json, record
from .relcore import IDENTIFIER


def _text(rec: dict, name: str, csv: bool = False) -> str:
    """A string field; one that is written into a table CSV must be ASCII."""
    value = rec[name]
    if not isinstance(value, str) or (csv and not value.isascii()):
        raise InvalidField(name, "must be an ASCII string" if csv else "must be a string")
    return value


def _typed(kind: type, what: str):
    """The check of a field holding a JSON value of type `kind`."""
    def check(rec: dict, name: str):
        if not isinstance(rec[name], kind):
            raise InvalidField(name, f"must be {what}")
        return rec[name]
    return check


def _queries(rec: dict, name: str) -> list:
    value = rec[name]
    if not isinstance(value, list) or not all(isinstance(q, str) for q in value):
        raise InvalidField(name, "must be a list of file names")
    return value


def _choices(rec: dict, name: str) -> list:
    value = rec[name]
    if not (isinstance(value, list) and value
            and all(isinstance(v, str) and v.isascii() for v in value)):
        raise InvalidField(name, "must be a non-empty list of ASCII strings")
    return value


_MANIFEST_CHECKS = {"seed": json_int, "max_overhead_fraction": json_float,
                    "tables_dir": _text, "library": _text, "device": _text,
                    "baseline_device": _text, "queries": _queries,
                    "tables": _typed(dict, "an object")}
_TABLE_CHECKS = {"rows": json_int, "columns": _typed(list, "a list")}
_COLUMN_CHECKS = {"name": partial(_text, csv=True), "type": partial(_text, csv=True),
                  "gen": _typed(dict, "an object")}
_TABLE_NAME = re.compile(IDENTIFIER)  # the table names a query can read
_GEN_CHECKS = {  # by the generator's `kind`; `start` is optional
    "serial": {"kind": _text, "start": json_int},
    "randint": {"kind": _text, "lo": json_int, "hi": json_int},
    "choice": {"kind": _text, "values": _choices},
}


def load_manifest(suite_dir) -> dict:
    """The suite's manifest: at every level a `record` of exactly the
    documented fields, each checked for the type that `materialize` and
    `sqf bench` read it as. A table's name is an identifier, so its CSV is
    written inside `tables_dir`."""
    manifest = read_json(Path(suite_dir) / "manifest.json", "suite manifest", dict)
    record(manifest, "suite manifest", _MANIFEST_CHECKS)
    for name, spec in manifest["tables"].items():
        if not _TABLE_NAME.fullmatch(name):
            raise InvalidField("tables", f"table name {name!r} must be an identifier")
        table = f"suite table `{name}`"
        if record(spec, table, _TABLE_CHECKS)["rows"] < 0:
            raise InvalidField("rows", "must be non-negative")
        for col_no, col in enumerate(spec["columns"], start=1):
            column = f"{table} column {col_no}"
            gen = record(col, column, _COLUMN_CHECKS)["gen"]
            if "kind" not in gen:
                raise InvalidField("kind", "missing field")
            kind = _text(gen, "kind")
            if kind not in _GEN_CHECKS:
                raise SqfError(f"unknown generator kind `{kind}`")
            record(gen, f"{column} gen", _GEN_CHECKS[kind], optional=("start",))
            if kind == "randint" and gen["lo"] > gen["hi"]:
                raise InvalidField("hi", "must not be below `lo`")
    return manifest


def _gen_cell(rng: random.Random, spec: dict, row_index: int) -> str:
    gen = spec["gen"]
    kind = gen["kind"]
    if kind == "serial":
        return str(row_index + gen.get("start", 0))
    if kind == "randint":
        return str(rng.randint(gen["lo"], gen["hi"]))
    return rng.choice(gen["values"])


def materialize(suite_dir, force: bool = False) -> list:
    """Write the manifest's tables under `tables_dir`; returns written paths.

    Existing files are left alone unless `force`; generation is a pure
    function of the manifest, so a repeated run writes identical bytes.
    """
    suite_dir = Path(suite_dir)
    manifest = load_manifest(suite_dir)
    tables_dir = suite_dir / manifest["tables_dir"]
    try:
        tables_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # a file, not writable, or a NUL byte
        raise SqfError(f"cannot create the suite's tables directory: {exc}") from None
    written = []
    for name, spec in manifest["tables"].items():
        path = tables_dir / f"{name}.csv"
        if path.is_file() and not force:
            continue
        rng = random.Random(manifest["seed"] ^ hash_name(name))
        header = ",".join(f"{c['name']}:{c['type']}" for c in spec["columns"])
        lines = [header]
        for i in range(spec["rows"]):
            lines.append(",".join(_gen_cell(rng, c, i) for c in spec["columns"]))
        try:
            path.write_text("\n".join(lines) + "\n", encoding="ascii")
        except OSError as exc:  # a directory in its place, or not writable
            raise SqfError(f"cannot write suite table {path}: {exc.strerror or exc}") from None
        written.append(path)
    return written


def hash_name(name: str) -> int:
    """Stable per-table seed offset (names must not depend on PYTHONHASHSEED)."""
    h = 0
    for ch in name:
        h = (h * 131 + ord(ch)) & 0xFFFFFFFF
    return h


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="materialize suite tables")
    parser.add_argument("suite_dir")
    parser.add_argument("--force", action="store_true")
    args = parser.parse_args(argv)
    try:
        written = materialize(args.suite_dir, force=args.force)
    except (SqfError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
