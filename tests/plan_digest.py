"""Digest of the planner's output, for comparing two versions of
`sqf.planner` that must enumerate and price identically.

The cases are criterion 1's 1000 random queries (`_qgen.criterion_1_cases`)
and the 12 suite queries at SF 1. Per case, the digest covers every
candidate's tag, `repr(stages)`, `tuple_bytes` and `software_baseline` on
`device.baseline.json`, then each ranked candidate's tag and
`repr(CostEstimate)` on the default library and device.

    PYTHONPATH=src python tests/plan_digest.py
"""

from __future__ import annotations

import hashlib
import pathlib

from _qgen import criterion_1_cases
from sqf.fabric import load_device_profile
from sqf.frontend import bind, parse_query
from sqf.library import load_library
from sqf.planner import enumerate_pipelines, rank, software_baseline
from sqf.relcore import load_csv, table_stats
from sqf.suite import load_manifest, materialize

REPO = pathlib.Path(__file__).resolve().parent.parent


def cases():
    """(sql text, tables, stats) of every case, criterion 1's first."""
    yield from criterion_1_cases()
    suite = REPO / "suite"
    materialize(suite)
    manifest = load_manifest(suite)
    tables = {name: load_csv(suite / manifest["tables_dir"] / f"{name}.csv")
              for name in manifest["tables"]}
    stats = {name: table_stats(t) for name, t in tables.items()}
    for name in manifest["queries"]:
        yield (suite / name).read_text(), tables, stats


def digest() -> str:
    lib = load_library(REPO / "library.default.json")
    dev = load_device_profile(REPO / "device.default.json")
    baseline = load_device_profile(REPO / "device.baseline.json")
    h = hashlib.sha256()
    for sql, tables, stats in cases():
        bp = bind(parse_query(sql), {name: t.schema for name, t in tables.items()})
        cands = enumerate_pipelines(bp, lib, dev)
        ranked = rank(cands, stats, dev)
        est_of = {id(c): est for c, est in ranked}
        for c in cands:
            h.update(repr((c.tag, c.stages, c.tuple_bytes,
                           software_baseline(c, est_of[id(c)], stats, baseline))).encode())
        for c, est in ranked:
            h.update(repr((c.tag, est)).encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
