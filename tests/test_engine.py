from __future__ import annotations

import math
import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bind_sql, make_table, run_all_candidates, run_candidate
from sqf.engine.align import align
from sqf.engine.bloom import (
    BloomCascadeConfig,
    bloom_build,
    bloom_probe,
    bloom_probe_many,
    forwarded_hashes,
)
from sqf.engine.exec import execute_pipeline, key_images, result_checksum
from sqf.engine.hostjoin import host_hash_join
from sqf.errors import (
    ArithmeticOverflow,
    DivisionByZero,
    NotReconfigured,
    TupleTooLarge,
)
from sqf.fabric import DeviceProfile, FabricState, allocate, reconfigure, release
from sqf.hashing import fnv1a64, fnv1a64_u64, fnv1a64_u64_many
from sqf.library import ModuleKind, instantiate
from sqf.oracle import multisets_equal, reference_execute
from sqf.planner import enumerate_pipelines, estimate_selectivity
from sqf.relcore import ColumnType, Schema, Table, table_stats


# ---------------------------------------------------------------------------
# hashing
# ---------------------------------------------------------------------------

def test_scalar_and_vector_hash_agree():
    keys = np.array([0, 1, 2**63, 2**64 - 1, 123456789], dtype=np.uint64)
    for seed in (0, 7, 2**60):
        vec = fnv1a64_u64_many(keys, seed)
        for i, key in enumerate(keys):
            assert int(vec[i]) == fnv1a64_u64(int(key), seed)


def test_hash_seed_changes_value():
    assert fnv1a64(b"abc", 1) != fnv1a64(b"abc", 2)
    assert fnv1a64(b"abc", 1) == fnv1a64(b"abc", 1)


# ---------------------------------------------------------------------------
# bloom cascade
# ---------------------------------------------------------------------------

def test_bloom_no_false_negatives():
    cfg = BloomCascadeConfig(stages=2, bits_per_stage=256, hashes_per_stage=2, seed=42)
    keys = list(range(100))
    cascade = bloom_build(cfg, keys)
    assert cascade.inserted_count == 100
    for key in keys:
        passed, _ = bloom_probe(cascade, key)
        assert passed


def test_bloom_empty_filter_rejects_everything():
    cfg = BloomCascadeConfig(stages=1, bits_per_stage=128, hashes_per_stage=2, seed=0)
    cascade = bloom_build(cfg, [])
    for key in (0, 1, 42, 2**40):
        passed, _ = bloom_probe(cascade, key)
        assert not passed


def test_bloom_probe_deterministic_hash():
    cfg = BloomCascadeConfig(stages=2, bits_per_stage=512, hashes_per_stage=2, seed=9)
    a = bloom_build(cfg, [42])
    b = bloom_build(cfg, [42])
    assert bloom_probe(a, 42) == bloom_probe(b, 42)
    assert bloom_probe(a, 42)[0] is True


def test_cascade_is_and_of_stages():
    # a key rejected by the equal-seed single stage never passes the cascade
    single = BloomCascadeConfig(stages=1, bits_per_stage=512, hashes_per_stage=2, seed=5)
    triple = BloomCascadeConfig(stages=3, bits_per_stage=512, hashes_per_stage=2, seed=5)
    keys = list(range(40))
    c1 = bloom_build(single, keys)
    c3 = bloom_build(triple, keys)
    for probe in range(4000, 6000):
        p1, _ = bloom_probe(c1, probe)
        p3, _ = bloom_probe(c3, probe)
        if not p1:
            assert not p3


def test_bloom_fp_rate_example():
    # m=1024, k=2, n=100, 10k disjoint probes, 10 seeds, within 20% of analytic
    m, k, n = 1024, 2, 100
    for stages in (1, 2):
        analytic = ((1 - math.exp(-k * n / m)) ** k) ** stages
        hits = 0
        probes = np.arange(10**6, 10**6 + 10_000, dtype=np.uint64)
        for seed in range(10):
            cfg = BloomCascadeConfig(stages, m, k, seed)
            cascade = bloom_build(cfg, list(range(n)))
            mask, _ = bloom_probe_many(cascade, probes)
            hits += int(mask.sum())
        measured = hits / (10 * len(probes))
        assert abs(measured - analytic) <= 0.2 * analytic


def test_vectorized_probe_matches_scalar():
    cfg = BloomCascadeConfig(stages=2, bits_per_stage=300, hashes_per_stage=3, seed=3)
    cascade = bloom_build(cfg, [10, 20, 30])
    probes = np.array(range(0, 200, 7), dtype=np.uint64)
    mask, hashes = bloom_probe_many(cascade, probes)
    for i, key in enumerate(probes):
        passed, h = bloom_probe(cascade, int(key))
        assert passed == bool(mask[i])
        assert h == int(hashes[i])


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------

S12 = Schema((("a", ColumnType.int64()), ("s", ColumnType.char(4))))  # 12 B


def test_align_packing_example():
    tuples = [(i, "abcd") for i in range(10)]
    blocks = align(tuples, S12, 64)
    assert [b.tuple_count for b in blocks] == [5, 5]
    assert all(len(b.data) == 64 for b in blocks)
    # zero padding after the 60 payload bytes
    assert blocks[0].data[60:] == b"\x00" * 4


def test_align_empty():
    assert align([], S12, 64) == []


def test_align_tuple_too_large():
    wide = Schema((("a", ColumnType.int64()),) * 1)
    wide = Schema((("a", ColumnType.char(64)), ("b", ColumnType.char(8))))  # 72 B
    with pytest.raises(TupleTooLarge):
        align([("x" * 64, "y" * 8)], wide, 64)


def test_align_with_hash_reduces_capacity():
    tuples = [(i, "abcd") for i in range(10)]
    blocks = align(tuples, S12, 64, with_hash=True, hashes=list(range(10)))
    # 12 + 8 = 20 B records -> 3 per 64 B block
    assert [b.tuple_count for b in blocks] == [3, 3, 3, 1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 200), st.sampled_from([64, 128, 256]))
def test_align_conservation(n, block_bytes):
    tuples = [(i, "ab") for i in range(n)]
    blocks = align(tuples, S12, block_bytes)
    assert sum(b.tuple_count for b in blocks) == n
    flat = [t for b in blocks for t in b.tuples]
    assert flat == tuples


# ---------------------------------------------------------------------------
# host hash join
# ---------------------------------------------------------------------------

def _forwarded(rows, key_type):
    """Canonical keys of one-column rows and the hashes the bloom stage
    forwards for them."""
    keys = Table.from_rows(Schema((("k", key_type),)), tuple(rows)).columns[0].values
    cascade = bloom_build(BloomCascadeConfig(1, 64, 1, 0), [])
    return forwarded_hashes(cascade, key_images(keys, key_type)), keys


def _host_join(build, probe, key_type):
    """Joined rows, build side first, in the order the host join emits them."""
    pairs = host_hash_join(*_forwarded(build, key_type), *_forwarded(probe, key_type))
    return [build[b] + probe[p] for b, p in zip(*pairs)]


def test_host_join_example():
    rows = _host_join([(1,), (2,)], [(2,), (3,)], ColumnType.int64())
    assert rows == [(2, 2)]


def test_host_join_multiset_semantics():
    rows = _host_join([(2,), (2,)], [(2,)], ColumnType.int64())
    assert len(rows) == 2


def test_host_join_verifies_keys_not_just_hashes():
    # identical forwarded hash (same key image) but different key cells can't
    # happen for INT; fake a collision via CHAR keys of different raw spelling
    rows = _host_join([("ab",)], [("ab ",)], ColumnType.char(3))  # same canonical form
    assert rows == [("ab", "ab ")]


def test_host_join_drops_hash_collisions():
    # every forwarded hash collides; only equal keys may pair
    hashes = np.zeros(3, dtype=np.uint64)
    build_keys = np.array([5, 7, 5], dtype=np.int64)
    probe_keys = np.array([7, 5, 9], dtype=np.int64)
    build, probe = host_hash_join(hashes, build_keys, hashes, probe_keys)
    assert list(zip(build.tolist(), probe.tolist())) == [(1, 0), (0, 1), (2, 1)]


# ---------------------------------------------------------------------------
# pipeline execution semantics
# ---------------------------------------------------------------------------

def _device():
    return DeviceProfile()


def test_restriction_semantics(default_library):
    t = make_table([("a", "INT")], [(3,), (7,), (9,)])
    results = run_all_candidates("SELECT a FROM t WHERE a > 5", {"t": t},
                                 default_library, _device())
    for _, table, report in results:
        assert sorted(r[0] for r in table.rows) == [7, 9]
        stage = next(s for s in report.stages if s.name == "restriction")
        assert (stage.input_count, stage.output_count) == (3, 2)


def test_cross_algorithm_join_equivalence(default_library):
    rng = random.Random(11)
    t = make_table([("a", "INT"), ("x", "INT")],
                   [(rng.randint(0, 12), rng.randint(-5, 5)) for _ in range(80)])
    u = make_table([("b", "INT"), ("y", 2)],
                   [(rng.randint(0, 12), rng.choice(["aa", "bb"])) for _ in range(40)])
    sql = "SELECT t.x, u.y FROM t JOIN u ON t.a = u.b WHERE t.x > -3"
    results = run_all_candidates(sql, {"t": t, "u": u}, default_library, _device())
    tags = {c.join_algo for c, _, _ in results}
    assert {"hash_fpga", "merge_fpga", "hash_codesign"} <= tags
    checksums = {result_checksum(table) for _, table, _ in results}
    assert len(checksums) == 1
    bp = bind_sql(sql, {"t": t, "u": u})
    expected = reference_execute(bp, {"t": t, "u": u})
    for _, table, _ in results:
        assert multisets_equal(table, expected)


def test_not_reconfigured(default_library):
    t = make_table([("a", "INT")], [(1,)])
    bp = bind_sql("SELECT a FROM t WHERE a > 0", {"t": t})
    dev = _device()
    cand = enumerate_pipelines(bp, default_library, dev)[0]
    fabric = FabricState(dev)
    placement = allocate(fabric, cand.modules)
    with pytest.raises(NotReconfigured):
        execute_pipeline(cand, {"t": t}, fabric, placement, dev)
    reconfigure(fabric, placement)
    table, _ = execute_pipeline(cand, {"t": t}, fabric, placement, dev)
    assert table.row_count == 1


def _foreign_placement(case, lib, dev, t, cand):
    """A fabric and a placement that do not hold `cand`'s configured pipeline."""
    fabric = FabricState(dev)
    modules = cand.modules
    if case == "more_modules":
        bp = bind_sql("SELECT a FROM t WHERE a > 0 ORDER BY a", {"t": t})
        modules = enumerate_pipelines(bp, lib, dev)[0].modules
        assert len(modules) != len(cand.modules)
    elif case == "other_content":
        modules = [instantiate(lib, ModuleKind.RESTRICTION, {"terms": 5})]
        assert len(modules) == len(cand.modules)
    placement = allocate(fabric, modules)
    if case != "not_reconfigured":
        reconfigure(fabric, placement)
    if case == "released":
        release(fabric, placement)
    return fabric, placement


@pytest.mark.parametrize("case, detail", [
    ("released", "not allocated"),
    ("more_modules", "does not match the pipeline's modules"),
    ("other_content", "different module content"),
    ("not_reconfigured", "does not hold this pipeline's modules"),
])
def test_engine_refuses_a_fabric_without_its_pipeline(default_library, case, detail):
    t = make_table([("a", "INT")], [(1,)])
    bp = bind_sql("SELECT a FROM t WHERE a > 0", {"t": t})
    dev = _device()
    cand = enumerate_pipelines(bp, default_library, dev)[0]
    fabric, placement = _foreign_placement(case, default_library, dev, t, cand)
    with pytest.raises(NotReconfigured, match=detail):
        execute_pipeline(cand, {"t": t}, fabric, placement, dev)


@pytest.mark.parametrize("sql, mirrored", [
    ("SELECT a, 'xy' AS tag FROM t", None),  # a CHAR literal computed by the ALU
    ("SELECT COUNT(*) FROM t WHERE a > 100", None),  # a global COUNT of no rows
    ("SELECT t.a, u.e FROM t JOIN u ON u.c = t.a", None),  # join keys right side first
    ("SELECT a FROM t WHERE 2 < a", "a > 2"),  # the literal on the left
])
def test_uncommon_shapes_match_the_oracle(default_library, sql, mirrored):
    tables = {
        "t": make_table([("a", "INT"), ("b", 2)], [(i, f"p{i % 3}") for i in range(10)]),
        "u": make_table([("c", "INT"), ("e", 3)], [(i % 4, f"e{i}") for i in range(6)]),
    }
    bp = bind_sql(sql, tables)
    expected = reference_execute(bp, tables)
    results = run_all_candidates(sql, tables, default_library, _device())
    assert results
    for cand, table, _ in results:
        assert multisets_equal(table, expected), cand.tag
    if mirrored is not None:
        stats = {name: table_stats(t) for name, t in tables.items()}
        other = bind_sql(f"SELECT a FROM t WHERE {mirrored}", tables)
        assert estimate_selectivity(bp.restriction, bp, stats) == pytest.approx(
            estimate_selectivity(other.restriction, other, stats))


def test_sort_is_stable_permutation(default_library):
    rows = [(i % 5, i) for i in range(50)]
    t = make_table([("a", "INT"), ("b", "INT")], rows)
    results = run_all_candidates("SELECT a, b FROM t ORDER BY a", {"t": t},
                                 default_library, _device())
    for _, table, report in results:
        assert report.order_specified
        assert sorted(table.rows) == sorted(rows)
        keys = [r[0] for r in table.rows]
        assert keys == sorted(keys)
        # stability: equal keys keep input order of b
        for k in range(5):
            bs = [r[1] for r in table.rows if r[0] == k]
            assert bs == sorted(bs)


def test_order_unspecified_flag(default_library):
    t = make_table([("a", "INT")], [(2,), (1,)])
    _, _, report = run_all_candidates("SELECT a FROM t", {"t": t},
                                      default_library, _device())[0]
    assert not report.order_specified


def test_filters_are_sub_multisets(default_library):
    rng = random.Random(5)
    rows = [(rng.randint(-10, 10),) for _ in range(60)]
    t = make_table([("a", "INT")], rows)
    results = run_all_candidates("SELECT a FROM t WHERE a > 0 AND a < 7",
                                 {"t": t}, default_library, _device())
    from collections import Counter

    source = Counter(rows)
    for _, table, _ in results:
        out = Counter(table.rows)
        assert all(out[k] <= source[k] for k in out)


def test_division_by_zero_matches_oracle(default_library):
    t = make_table([("a", "INT"), ("b", "INT")], [(6, 2), (5, 0), (4, 1)])
    sql = "SELECT a FROM t WHERE a / b > 1"
    tables = {"t": t}
    bp = bind_sql(sql, tables)
    with pytest.raises(DivisionByZero) as oracle_err:
        reference_execute(bp, tables)
    dev = _device()
    stats = {"t": table_stats(t)}
    for cand in enumerate_pipelines(bp, default_library, dev):
        with pytest.raises(DivisionByZero) as engine_err:
            run_candidate(cand, tables, dev, stats=stats)
        assert engine_err.value.row == oracle_err.value.row == 1


def test_overflow_matches_oracle(default_library):
    big = 2**62
    t = make_table([("a", "INT")], [(1,), (big,), (2,)])
    sql = "SELECT a * 4 AS x FROM t"
    tables = {"t": t}
    bp = bind_sql(sql, tables)
    with pytest.raises(ArithmeticOverflow) as oracle_err:
        reference_execute(bp, tables)
    dev = _device()
    stats = {"t": table_stats(t)}
    for cand in enumerate_pipelines(bp, default_library, dev):
        with pytest.raises(ArithmeticOverflow) as engine_err:
            run_candidate(cand, tables, dev, stats=stats)
        assert engine_err.value.row == oracle_err.value.row == 1


def test_overflow_on_join_restriction_matches_oracle(default_library):
    big = 2**62
    t = make_table([("a", "INT"), ("v", "INT")], [(1, 1), (2, big)])
    u = make_table([("b", "INT"), ("w", "INT")], [(1, 3), (2, 4)])
    sql = "SELECT t.a FROM t JOIN u ON t.a = u.b WHERE t.v * u.w > 0"
    tables = {"t": t, "u": u}
    bp = bind_sql(sql, tables)
    with pytest.raises(ArithmeticOverflow) as oracle_err:
        reference_execute(bp, tables)
    dev = _device()
    stats = {k: table_stats(v) for k, v in tables.items()}
    for cand in enumerate_pipelines(bp, default_library, dev):
        with pytest.raises(ArithmeticOverflow) as engine_err:
            run_candidate(cand, tables, dev, stats=stats)
        assert engine_err.value.row == oracle_err.value.row


def test_checksum_is_order_insensitive():
    schema = Schema((("a", ColumnType.int64()),))
    t1 = Table.from_rows(schema, ((1,), (2,), (3,)))
    t2 = Table.from_rows(schema, ((3,), (1,), (2,)))
    assert result_checksum(t1) == result_checksum(t2)
    t3 = Table.from_rows(schema, ((1,), (2,)))
    assert result_checksum(t1) != result_checksum(t3)


def test_concurrent_pipelines_in_distinct_regions(default_library):
    dev = _device()
    t = make_table([("a", "INT")], [(i % 9,) for i in range(500)])
    tables = {"t": t}
    bp = bind_sql("SELECT a FROM t WHERE a > 3", tables)
    cands = enumerate_pipelines(bp, default_library, dev)
    cand = cands[0]
    fabric = FabricState(dev)
    placements = [allocate(fabric, cand.modules) for _ in range(2)]
    assert placements[0].region != placements[1].region or (
        placements[0].entries[0].start != placements[1].entries[0].start
    )
    for p in placements:
        reconfigure(fabric, p)
    sequential = [
        execute_pipeline(cand, tables, fabric, p, dev)[0] for p in placements
    ]
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [
            pool.submit(execute_pipeline, cand, tables, fabric, p, dev)
            for p in placements
        ]
        concurrent = [f.result()[0] for f in futures]
    for a, b in zip(sequential, concurrent):
        assert a.rows == b.rows


def test_aggregate_overflow_faults_on_earliest_row(default_library):
    # group 2 overflows at row 2, before group 1 does at row 3
    big = 2**62
    t = make_table([("g", "INT"), ("a", "INT"), ("b", "INT")],
                   [(1, big, 0), (2, big, big), (2, big, big), (1, big, 0), (1, big, 0)])
    sql = "SELECT g, SUM(a) FROM t GROUP BY g"
    tables = {"t": t}
    bp = bind_sql(sql, tables)
    with pytest.raises(ArithmeticOverflow) as oracle_err:
        reference_execute(bp, tables)
    assert oracle_err.value.row == 2
    dev = _device()
    stats = {"t": table_stats(t)}
    cands = enumerate_pipelines(bp, default_library, dev)
    assert cands
    for cand in cands:
        with pytest.raises(ArithmeticOverflow) as engine_err:
            run_candidate(cand, tables, dev, stats=stats)
        assert engine_err.value.row == 2
        assert engine_err.value.expr == "sum_a"
