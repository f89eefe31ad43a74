from __future__ import annotations

import pathlib

import numpy as np
import pytest

import _qgen
from sqf import suite as suite_mod
from sqf.engine.exec import execute_pipeline
from sqf.engine.kernels import pair_codes
from sqf.fabric import DeviceProfile, FabricState, allocate, load_device_profile, reconfigure
from sqf.frontend import bind, parse_query
from sqf.library import load_library
from sqf.planner import enumerate_pipelines, full_estimate
from sqf.relcore import ColumnType, Schema, Table, table_stats

REPO = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def default_library():
    return load_library(REPO / "library.default.json")


@pytest.fixture(scope="session")
def default_device():
    return load_device_profile(REPO / "device.default.json")


@pytest.fixture(scope="session")
def suite_dir():
    suite_mod.materialize(REPO / "suite")
    return REPO / "suite"


@pytest.fixture(scope="session")
def criterion_1_cases():
    """Criterion 1's 1000 random cases (`_qgen.criterion_1_cases`), built
    once for every test that reads them."""
    return _qgen.criterion_1_cases()


def make_table(cols, rows) -> Table:
    """cols: list of (name, "INT" | int-char-width)."""
    schema_cols = []
    for name, kind in cols:
        if kind == "INT":
            schema_cols.append((name, ColumnType.int64()))
        else:
            schema_cols.append((name, ColumnType.char(kind)))
    return Table.from_rows(Schema(tuple(schema_cols)), tuple(tuple(r) for r in rows))


def bind_sql(sql: str, tables: dict):
    plan = parse_query(sql)
    return bind(plan, {name: t.schema for name, t in tables.items()})


def run_candidate(cand, tables, dev: DeviceProfile, seed: int = 7, stats=None):
    """Allocate a fresh fabric, reconfigure, and execute one candidate."""
    est = None
    if stats is not None:
        est = full_estimate(cand, stats, dev)
    fabric = FabricState(dev)
    placement = allocate(fabric, cand.modules)
    reconfigure(fabric, placement)
    return execute_pipeline(cand, tables, fabric, placement, dev, seed=seed,
                            estimate=est)


def run_all_candidates(sql: str, tables: dict, lib, dev, seed: int = 7):
    """Returns [(candidate, result table, exec report)] for every pipeline."""
    bp = bind_sql(sql, tables)
    stats = {name: table_stats(t) for name, t in tables.items()}
    out = []
    for cand in enumerate_pipelines(bp, lib, dev):
        result, report = run_candidate(cand, tables, dev, seed=seed, stats=stats)
        out.append((cand, result, report))
    return out


def pair_positions(outer_code, inner_code, n_codes):
    """`pair_codes` with None outer positions (every outer row, in order)
    written out as `np.arange`, for tests that zip the pairs."""
    outer_pos, inner_pos = pair_codes(outer_code, inner_code, n_codes)
    return np.arange(len(outer_code)) if outer_pos is None else outer_pos, inner_pos


def half_passing_bits(n_built: int, stages: int, hashes: int) -> int:
    """Bits per stage of a cascade over `n_built` keys that a key not built
    passes with probability about 1/2, so that a wrong seed or bit index
    changes which keys pass. Each of the stages x hashes bits it tests must
    be set with probability 0.5 ** (1 / (stages x hashes)); after hashes x
    n_built insertions into m bits, a bit is set with probability
    1 - (1 - 1/m) ** (hashes x n_built), exact where few keys are built."""
    unset = 1 - 0.5 ** (1 / (stages * hashes))
    return max(hashes, round(1 / (1 - unset ** (1 / (hashes * n_built)))))
