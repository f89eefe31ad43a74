"""Shipped benchmark suite: manifest handling and deterministic table data.

The repository ships the suite's queries and a manifest that pins the table
generator (seed, row counts, column distributions) plus the released
overhead bound. Table CSVs are materialized on demand from the manifest, so
`bench` output stays byte-deterministic without committing megabytes of
data.

Run `python -m sqf.suite <suite_dir>` to materialize the tables explicitly.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from .errors import InvalidField, SqfError
from .library import json_float, json_int


_GEN_FIELDS = {"serial": (), "randint": ("lo", "hi"), "choice": ("values",)}


def _object(value, what: str, keys=()) -> dict:
    """`value` as a JSON object holding every one of `keys`."""
    if not isinstance(value, dict):
        raise SqfError(f"{what} must be an object")
    for key in keys:
        if key not in value:
            raise SqfError(f"{what} is missing `{key}`")
    return value


def _text(rec: dict, name: str, csv: bool = False) -> str:
    """A string field; one that is written into a table CSV must be ASCII."""
    value = rec[name]
    if not isinstance(value, str) or (csv and not value.isascii()):
        raise InvalidField(name, "must be an ASCII string" if csv else "must be a string")
    return value


def load_manifest(suite_dir) -> dict:
    """The suite's manifest, with every field checked for the type that
    `materialize` and `sqf bench` read it as."""
    path = Path(suite_dir) / "manifest.json"
    if not path.is_file():
        raise FileNotFoundError(f"no suite manifest: {path}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeError) as exc:
        raise SqfError(f"{path}: {exc}") from None
    _object(manifest, "suite manifest",
            ("seed", "max_overhead_fraction", "tables_dir", "queries", "tables",
             "library", "device", "baseline_device"))
    json_int(manifest, "seed")
    json_float(manifest, "max_overhead_fraction")
    for key in ("tables_dir", "library", "device", "baseline_device"):
        _text(manifest, key)
    queries = manifest["queries"]
    if not isinstance(queries, list) or not all(isinstance(q, str) for q in queries):
        raise InvalidField("queries", "must be a list of file names")
    for name, spec in _object(manifest["tables"], "suite manifest `tables`").items():
        table = f"suite table `{name}`"
        _object(spec, table, ("rows", "columns"))
        if json_int(spec, "rows") < 0:
            raise InvalidField("rows", "must be non-negative")
        if not isinstance(spec["columns"], list):
            raise InvalidField("columns", "must be a list")
        for col_no, col in enumerate(spec["columns"], start=1):
            column = f"{table} column {col_no}"
            _object(col, column, ("name", "type", "gen"))
            _text(col, "name", csv=True)
            _text(col, "type", csv=True)
            gen = _object(col["gen"], f"{column} gen", ("kind",))
            kind = _text(gen, "kind")
            if kind not in _GEN_FIELDS:
                raise SqfError(f"unknown generator kind `{kind}`")
            _object(gen, f"{column} gen", _GEN_FIELDS[kind])
            if kind == "serial" and "start" in gen:
                json_int(gen, "start")
            if kind == "randint" and json_int(gen, "lo") > json_int(gen, "hi"):
                raise InvalidField("hi", "must not be below `lo`")
            if kind == "choice" and not (
                isinstance(gen["values"], list) and gen["values"]
                and all(isinstance(v, str) and v.isascii() for v in gen["values"])
            ):
                raise InvalidField("values", "must be a non-empty list of ASCII strings")
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
    except OSError as exc:  # `tables_dir` names a file, or is not writable
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
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
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
    written = materialize(args.suite_dir, force=args.force)
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
