"""CLI fuzz: mutated table CSVs, profile JSON and query text end in exit 0,
1 or 2, and generated valid cases, mutated suite manifests and byte-edited
configuration files in exit 0 or 1.

`sqf run --oracle` must answer any input with a result (0), an `error: …`
line (1) or an oracle mismatch (2); an exception escaping `main` would reach
the user as a traceback. Examples are derandomized and bounded so the module
runs in a few seconds.
"""

from __future__ import annotations

import json
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _qgen import random_case
from conftest import REPO
from sqf.cli import main
from sqf.relcore import dump_csv

QUERY = ("SELECT t.a, u.d, t.a + u.d AS total FROM t JOIN u ON t.a = u.c "
         "WHERE t.b > 3 ORDER BY a")
T_CSV = b"a:INT,b:INT,s:CHAR(2)\n" + b"".join(
    b"%d,%d,%s\n" % (i, i * 3 % 17, b"ab" if i % 2 else b"cd") for i in range(12))
U_CSV = b"c:INT,d:INT\n" + b"".join(b"%d,%d\n" % (i % 9, i) for i in range(8))
CSV_BYTES = [b"\r", b"\n", b",", b"\x00", b"\xff", b"0", b"7", b"9"]
QUERY_BYTES = [b"(", b")", b"'", b'"', b"\xff", b" NOT ", b"1234567890123456789012345",
               b"/0", b";", "²".encode(), "٣".encode(), "ſ".encode()]
# small values only: `regions` and `slots_per_region` size the fabric
JSON_VALUES = [0, -1, 1, 7, 0.5, 1e-300, 1e300, float("nan"), "x", None, True, []]
# no digits: an edit must not turn `regions` or `slots_per_region` into a huge count
JSON_BYTES = [b"\xff", b"[", b"]", b"{", b"}", b'"', b"\x00", b",", b":"]

FUZZ = settings(derandomize=True, max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _edits(data: bytes, pieces, boundaries=()):
    """Up to 4 (position, bytes, insert or overwrite) edits of `data`; a
    position is any byte, or one of `boundaries` half the time."""
    position = st.integers(0, len(data) - 1)
    if boundaries:
        position = st.one_of(position, st.sampled_from(boundaries))
    return st.lists(st.tuples(position, st.sampled_from(pieces), st.booleans()),
                    min_size=1, max_size=4)


def _mutate(data: bytes, edits) -> bytes:
    for pos, byte, insert in edits:
        pos %= len(data) or 1
        data = data[:pos] + byte + data[pos + (0 if insert else 1):]
    return data


def _run(work, t_csv=T_CSV, device=None, library=None, query=QUERY.encode(),
         capsys=None, u_csv=U_CSV, join="auto", exits=(0, 1, 2)) -> None:
    tables = work / "tables"
    tables.mkdir(exist_ok=True)
    (tables / "t.csv").write_bytes(t_csv)
    (tables / "u.csv").write_bytes(u_csv)
    (work / "q.sql").write_bytes(query + b"\n")
    for name, doc, default in (("device", device, "device.default.json"),
                               ("library", library, "library.default.json")):
        if doc is None:
            doc = json.loads((REPO / default).read_text())
        (work / f"{name}.json").write_text(json.dumps(doc))
    try:
        rc = main(["run", "--query", str(work / "q.sql"), "--tables", str(tables),
                   "--library", str(work / "library.json"),
                   "--device", str(work / "device.json"),
                   "--out", str(work / "report.json"), "--oracle", "--join", join])
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    err = capsys.readouterr().err
    assert rc in exits, err
    assert "Traceback" not in err


def test_fuzz_table_csv(tmp_path, capsys):
    _run(tmp_path, capsys=capsys)  # the unmutated inputs run cleanly
    assert json.loads((tmp_path / "report.json").read_text())["oracle_match"] is True

    @FUZZ
    @given(_edits(T_CSV, CSV_BYTES))
    def check(mutations):
        _run(tmp_path, t_csv=_mutate(T_CSV, mutations), capsys=capsys)

    check()


def test_fuzz_query_text(tmp_path, capsys):
    query = QUERY.encode()
    spaces = [i for i, byte in enumerate(query) if byte == ord(" ")]

    @FUZZ
    @given(_edits(query, QUERY_BYTES, spaces))
    def check(mutations):
        _run(tmp_path, query=_mutate(query, mutations), capsys=capsys)

    check()


def test_fuzz_generated_cases(tmp_path, capsys):
    """Criterion 1's generated queries and tables, written as CSV and run
    through the CLI under every join strategy: valid by construction, so the
    oracle always agrees (no exit 2). A forced strategy without a candidate
    or a row that faults is an `error:` line."""

    @FUZZ
    @given(st.integers(0, 2**32 - 1))
    def check(seed):
        sql, tables = random_case(random.Random(seed))
        csv = {name: dump_csv(table).encode("ascii") for name, table in tables.items()}
        for join in ("auto", "hash", "merge", "codesign"):
            _run(tmp_path, t_csv=csv["t"], u_csv=csv.get("u", U_CSV), query=sql.encode(),
                 join=join, exits=(0, 1), capsys=capsys)

    check()


def test_fuzz_profile_json(tmp_path, capsys):
    device = json.loads((REPO / "device.default.json").read_text())
    library = json.loads((REPO / "library.default.json").read_text())
    device_fields = sorted(k for k in device if k != "comment")
    library_fields = sorted({k for rec in library for k in rec if k != "comment"})

    @FUZZ
    @given(st.sampled_from(device_fields), st.sampled_from(JSON_VALUES),
           st.integers(0, len(library) - 1), st.sampled_from(library_fields),
           st.sampled_from(JSON_VALUES), st.integers(0, 2))
    def check(dev_field, dev_value, entry, lib_field, lib_value, which):
        dev_doc = dict(device)
        lib_doc = [dict(rec) for rec in library]
        if which != 1:
            dev_doc[dev_field] = dev_value
        if which != 0:
            lib_doc[entry][lib_field] = lib_value
        _run(tmp_path, device=dev_doc, library=lib_doc, capsys=capsys)

    check()


MANIFEST = {
    "seed": 5,
    "max_overhead_fraction": 0.5,
    "tables_dir": "tables",
    "library": str(REPO / "library.default.json"),
    "device": str(REPO / "device.default.json"),
    "baseline_device": str(REPO / "device.baseline.json"),
    "queries": ["q1.sql", "q2.sql"],
    "tables": {
        "items": {"rows": 40, "columns": [
            {"name": "a", "type": "INT", "gen": {"kind": "randint", "lo": 0, "hi": 99}},
            {"name": "b", "type": "INT", "gen": {"kind": "serial", "start": 0}},
            {"name": "s", "type": "CHAR(2)", "gen": {"kind": "choice", "values": ["ab", "cd"]}},
        ]},
        "dims": {"rows": 8, "columns": [
            {"name": "x", "type": "INT", "gen": {"kind": "serial", "start": 0}},
            {"name": "y", "type": "INT", "gen": {"kind": "randint", "lo": 0, "hi": 9}},
        ]},
    },
}
QUERIES = {"q1.sql": "SELECT a, s FROM items WHERE a > 10",
           "q2.sql": "SELECT items.a, dims.y FROM items JOIN dims ON items.b = dims.x"}


def _fields(doc, path=()):
    """The path of every field of a JSON document, at every depth."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


def _bench(suite, files, capsys) -> None:
    """`sqf bench` on a new suite directory holding the queries and `files`
    (name: bytes) answers with a report (0) or an `error: …` line (1)."""
    suite.mkdir()
    for name, text in QUERIES.items():
        (suite / name).write_text(text + "\n")
    for name, data in files.items():
        (suite / name).write_bytes(data)
    rc = main(["bench", "--suite", str(suite), "--out", str(suite / "bench.json")])
    err = capsys.readouterr().err
    assert rc in (0, 1), err
    assert "Traceback" not in err


def test_fuzz_manifest_json(tmp_path, capsys):
    """`sqf bench` on a suite whose manifest has one field set to a JSON
    value of any type answers with a report (0) or an `error: …` line (1)."""
    fields = list(_fields(MANIFEST))
    examples = iter(range(10**6))

    @FUZZ
    @given(st.sampled_from(fields), st.sampled_from(JSON_VALUES))
    def check(field, value):
        manifest = json.loads(json.dumps(MANIFEST))
        target = manifest
        for key in field[:-1]:
            target = target[key]
        target[field[-1]] = value
        _bench(tmp_path / f"suite{next(examples)}",
               {"manifest.json": json.dumps(manifest).encode()}, capsys)

    check()


def test_fuzz_config_bytes(tmp_path, capsys):
    """Byte edits of the library, the device profile or the suite manifest,
    read by one JSON reader, end in a report (0) or an `error: …` line (1)."""
    manifest = dict(MANIFEST, library="library.json", device="device.json")
    files = {"library.json": (REPO / "library.default.json").read_bytes(),
             "device.json": (REPO / "device.default.json").read_bytes(),
             "manifest.json": json.dumps(manifest, indent=1).encode()}
    examples = iter(range(10**6))

    @FUZZ
    @given(st.sampled_from(sorted(files)), st.data())
    def check(name, data):
        edits = data.draw(_edits(files[name], JSON_BYTES))
        _bench(tmp_path / f"suite{next(examples)}",
               dict(files, **{name: _mutate(files[name], edits)}), capsys)

    check()
