"""Digest of the engine's output, for comparing two versions of
`sqf.engine` that must execute identically.

The cases are criterion 1's 1000 random queries (`_qgen.criterion_1_cases`),
the 12 suite queries at SF 1, and each suite join query again with its two
tables swapped, so that the bloom cascade builds on the other slot. Every
candidate of every case runs at seed 7 on the default library and device.
Per execution, the digest covers the result rows (in order when the plan
has ORDER BY, else as a sorted multiset), the result checksum, every
`StageCount` and `bloom_false_positives`; a faulting execution contributes
its error class and message instead.

    PYTHONPATH=src python tests/exec_digest.py
"""

from __future__ import annotations

import hashlib

from conftest import REPO, bind_sql, run_candidate
from plan_digest import cases
from sqf.engine.exec import result_checksum
from sqf.errors import SqfError
from sqf.fabric import load_device_profile
from sqf.library import load_library
from sqf.planner import enumerate_pipelines

SWAP = ("FROM orders JOIN customers", "FROM customers JOIN orders")


def swapped_cases():
    """Every case, then each suite join query with its tables swapped."""
    for sql, tables, stats in cases():
        yield sql, tables, stats
        if SWAP[0] in sql:
            yield sql.replace(*SWAP), tables, stats


def execution(cand, tables, dev) -> tuple:
    try:
        table, report = run_candidate(cand, tables, dev)
    except SqfError as exc:
        return type(exc).__name__, str(exc)
    rows = table.rows if cand.plan.order_by else sorted(table.rows)
    return rows, result_checksum(table), report.stages, report.bloom_false_positives


def digest() -> str:
    lib = load_library(REPO / "library.default.json")
    dev = load_device_profile(REPO / "device.default.json")
    h = hashlib.sha256()
    for sql, tables, _ in swapped_cases():
        for cand in enumerate_pipelines(bind_sql(sql, tables), lib, dev):
            h.update(repr((cand.tag, execution(cand, tables, dev))).encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
