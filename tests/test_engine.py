from __future__ import annotations

import itertools
import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from _ref import bloom_build_probe as scalar_build_probe
from _ref import fnv1a64, fnv1a64_u64
from conftest import (
    bind_sql, half_passing_bits, make_table, pair_positions, run_all_candidates, run_candidate,
)
from sqf.arith import INT64_MAX, INT64_MIN
from sqf.engine.bloom import BloomCascadeConfig, bloom_build_probe, bloom_dims
import sqf.engine.exec as exec_mod
from sqf.engine.exec import execute_pipeline, key_images, result_checksum
from sqf.errors import (
    ArithmeticOverflow,
    DivisionByZero,
    NotReconfigured,
    TupleTooLarge,
)
from sqf.fabric import DeviceProfile, FabricState, allocate, reconfigure, release
from sqf.hashing import fnv1a64_u64_many
from sqf.library import ModuleKind, instantiate
from sqf.oracle import canonical_multiset, first_multiset_diff, reference_execute
from sqf.planner import enumerate_pipelines, estimate_selectivity
from sqf.relcore import ColumnType, Schema, Table, TypeKind, load_csv, table_stats


# ---------------------------------------------------------------------------
# hashing
# ---------------------------------------------------------------------------

def test_scalar_and_vector_hash_agree():
    keys = np.array([0, 1, 2**63, 2**64 - 1, 123456789], dtype=np.uint64)
    seeds = (0, 7, 2**60)
    vec = fnv1a64_u64_many(keys, seeds)
    assert vec.shape == (len(seeds), len(keys))
    for s, seed in enumerate(seeds):
        for i, key in enumerate(keys):
            assert int(vec[s, i]) == fnv1a64_u64(int(key), seed)


def test_hash_seed_changes_value():
    assert fnv1a64(b"abc", 1) != fnv1a64(b"abc", 2)
    assert fnv1a64(b"abc", 1) == fnv1a64(b"abc", 1)


# ---------------------------------------------------------------------------
# bloom cascade
# ---------------------------------------------------------------------------

def test_bloom_no_false_negatives():
    cfg = BloomCascadeConfig(stages=2, bits_per_stage=256, hashes_per_stage=2, seed=42)
    keys = list(range(100))
    passed = bloom_build_probe(cfg, keys, [True] * len(keys))
    assert passed.all()


def test_bloom_empty_filter_rejects_everything():
    cfg = BloomCascadeConfig(stages=1, bits_per_stage=128, hashes_per_stage=2, seed=0)
    passed = bloom_build_probe(cfg, [0, 1, 42, 2**40], [False] * 4)
    assert not passed.any()


def test_bloom_probe_deterministic_hash():
    cfg = BloomCascadeConfig(stages=2, bits_per_stage=512, hashes_per_stage=2, seed=9)
    a = bloom_build_probe(cfg, [42], [True])
    b = bloom_build_probe(cfg, [42], [True])
    assert a.tolist() == b.tolist() == [True]


def _built_then_probed(cfg, keys, probes):
    """The pass mask of each probe against the cascade built from `keys`."""
    flags = [True] * len(keys) + [False] * len(probes)
    return bloom_build_probe(cfg, np.concatenate([np.asarray(keys, dtype=np.uint64),
                                                  np.asarray(probes, dtype=np.uint64)]),
                             flags)[len(keys):]


def test_cascade_is_and_of_stages():
    # a key rejected by the equal-seed single stage never passes the cascade
    single = BloomCascadeConfig(stages=1, bits_per_stage=512, hashes_per_stage=2, seed=5)
    triple = BloomCascadeConfig(stages=3, bits_per_stage=512, hashes_per_stage=2, seed=5)
    keys = list(range(40))
    probes = list(range(4000, 6000))
    p1 = _built_then_probed(single, keys, probes)
    p3 = _built_then_probed(triple, keys, probes)
    assert not (p3 & ~p1).any()


def test_bloom_fp_rate_example():
    # m=1024, k=2, n=100, 10k disjoint probes, 10 seeds, within 20% of analytic
    m, k, n = 1024, 2, 100
    for stages in (1, 2):
        analytic = ((1 - math.exp(-k * n / m)) ** k) ** stages
        hits = 0
        probes = np.arange(10**6, 10**6 + 10_000, dtype=np.uint64)
        for seed in range(10):
            cfg = BloomCascadeConfig(stages, m, k, seed)
            mask = _built_then_probed(cfg, list(range(n)), probes)
            hits += int(mask.sum())
        measured = hits / (10 * len(probes))
        assert abs(measured - analytic) <= 0.2 * analytic


def test_vectorized_probe_matches_scalar():
    cfg = BloomCascadeConfig(stages=2, bits_per_stage=half_passing_bits(3, 2, 3),
                             hashes_per_stage=3, seed=3)
    keys = [10, 20, 30] + list(range(0, 200, 7))
    built = [True] * 3 + [False] * (len(keys) - 3)
    mask = bloom_build_probe(cfg, keys, built)
    assert mask.tolist() == scalar_build_probe(cfg, keys, built)


# ---------------------------------------------------------------------------
# co-design join: bloom cascade, record check, host join
# ---------------------------------------------------------------------------

def _codesign_against_hash_fpga(sql, tables, lib, dev=None):
    """Run every candidate; the co-design result must be hash_fpga's, row for
    row in the same order. Returns {tag: (result table, exec report)}."""
    results = {cand.tag: (table, report) for cand, table, report
               in run_all_candidates(sql, tables, lib, dev or DeviceProfile())}
    assert results["row/hash_codesign"][0].rows == results["row/hash_fpga"][0].rows
    return results


def _build_slot(results) -> int:
    """The slot the bloom cascade builds over: the smaller side at the join,
    as the merge join's two sorts count it."""
    merge = results["row/merge_fpga"][1]
    left, right = (s.input_count for s in merge.stages if s.name in ("sort_left", "sort_right"))
    return 0 if left <= right else 1


def test_host_join_example(default_library):
    small, big = [(1,), (2,)], [(2,), (3,), (4,)]
    for build, (l, r) in enumerate([(small, big), (big, small)]):
        tables = {"l": make_table([("a", "INT")], l), "r": make_table([("b", "INT")], r)}
        results = _codesign_against_hash_fpga("SELECT l.a, r.b FROM l JOIN r ON l.a = r.b",
                                              tables, default_library)
        assert _build_slot(results) == build
        assert all(table.rows == ((2, 2),) for table, _ in results.values())


def test_host_join_multiset_semantics(default_library):
    """Many-to-many keys fan out to every pair, in (left, right) order,
    whichever side the bloom cascade builds over."""
    small = [(2, "p"), (1, "q"), (2, "s")]
    big = [(2, "w"), (3, "x"), (2, "y"), (2, "z")]
    for build, (l, r) in enumerate([(small, big), (big, small)]):
        tables = {"l": make_table([("k", "INT"), ("v", 1)], l),
                  "r": make_table([("k", "INT"), ("v", 1)], r)}
        results = _codesign_against_hash_fpga("SELECT l.v, r.v FROM l JOIN r ON l.k = r.k",
                                              tables, default_library)
        assert _build_slot(results) == build
        expected = tuple((x[1], y[1]) for x in l for y in r if x[0] == y[0])
        assert len(expected) == 6
        assert all(table.rows == expected for table, _ in results.values())


def test_host_join_verifies_keys_not_just_hashes(default_library):
    """CHAR keys pair on their canonical (padded) form across widths:
    'ab' in CHAR(3) meets 'ab ' in CHAR(5)."""
    tables = {"l": make_table([("k", 3)], [("ab",), ("ba",), ("a",), ("ab",)]),
              "r": make_table([("k", 5)], [("ab ",), ("b",), ("a b",), ("ab",), ("a  ",)])}
    sql = "SELECT l.k, r.k FROM l JOIN r ON l.k = r.k"
    results = _codesign_against_hash_fpga(sql, tables, default_library)
    expected = canonical_multiset(reference_execute(bind_sql(sql, tables), tables))
    assert sum(expected.values()) == 5
    assert all(canonical_multiset(table) == expected for table, _ in results.values())


def test_host_join_drops_hash_collisions(default_library):
    """Bloom false positives reach the host join and die there: the
    co-design result is still hash_fpga's, row for row."""
    tables = {"l": make_table([("k", "INT"), ("v", "INT")],
                              [(i * 7 % 3001, i) for i in range(3000)]),
              "r": make_table([("k", "INT")], [(i,) for i in range(0, 3000, 100)])}
    results = _codesign_against_hash_fpga("SELECT l.v, r.k FROM l JOIN r ON l.k = r.k",
                                          tables, default_library)
    report = results["row/hash_codesign"][1]
    assert report.bloom_false_positives > 0
    stages = {s.name: s for s in report.stages}
    survivors = stages["bloom_cascade"].output_count
    assert stages["host_join"].output_count == survivors - report.bloom_false_positives


def _suite_tables(suite_dir):
    return {name: load_csv(suite_dir / "tables" / f"{name}.csv")
            for name in ("orders", "customers")}


@pytest.mark.parametrize("query", ["q07", "q08", "q09", "q10", "q11", "q12"])
def test_codesign_join_matches_hash_fpga_on_suite_joins(suite_dir, default_library,
                                                        default_device, query):
    """A suite join query as written and with its two tables swapped:
    customers, the smaller side, builds the bloom cascade on the right, then
    on the left."""
    tables = _suite_tables(suite_dir)
    sql = (suite_dir / f"{query}.sql").read_text()
    assert "FROM orders JOIN customers" in sql
    build_slots = []
    for form in (sql, sql.replace("FROM orders JOIN customers", "FROM customers JOIN orders")):
        results = _codesign_against_hash_fpga(form, tables, default_library, default_device)
        build_slots.append(_build_slot(results))
    assert build_slots == [1, 0]


_POOL_RNG = random.Random(5)
_WIDE_POOL = [INT64_MIN, INT64_MAX, -1, 0] + [
    _POOL_RNG.randint(INT64_MIN, INT64_MAX) for _ in range(3000)]
_CHAR_POOL = ["".join(p) for n in (1, 2, 3, 4) for p in itertools.product("abcdefgh", repeat=n)]

# join key kind -> (slot 0 key type, slot 1 key type, draw one key)
_BLOOM_KEYS = {
    "dense-int": ("INT", "INT", lambda rng: rng.randint(0, 1200)),  # coded by offset
    "wide-int": ("INT", "INT", lambda rng: rng.choice(_WIDE_POOL)),  # coded by np.unique
    "char-4-7": (4, 7, lambda rng: rng.choice(_CHAR_POOL)),
    "narrow-char": (1, 2, lambda rng: rng.choice("abc")),  # coded by offset, span 512
    "duplicates": ("INT", "INT", lambda rng: rng.randint(0, 3)),
}


@pytest.mark.parametrize("kind, small, emptied", [
    *[(kind, small, None) for kind in _BLOOM_KEYS for small in (0, 1)],
    ("dense-int", 0, 0), ("dense-int", 1, 1), ("char-4-7", 0, 1),
])
def test_bloom_stage_matches_a_per_row_cascade(default_library, kind, small, emptied):
    """The bloom stage hashes each distinct key once; its survivors and
    false positives are those of a cascade built over every build row and
    probed with every probe row. `small` is the slot with fewer rows, and
    `emptied` the slot (if any) whose rows a WHERE removes."""
    rng = random.Random(f"{kind}-{small}-{emptied}")
    left_type, right_type, draw = _BLOOM_KEYS[kind]
    sizes = (100, 1500) if small == 0 else (1500, 100)
    tables = {name: make_table([("k", ktype), ("v", "INT")],
                               [(draw(rng), rng.randint(0, 99)) for _ in range(n)])
              for name, ktype, n in zip("lr", (left_type, right_type), sizes)}
    bounds = [9 if slot != emptied else 100 for slot in (0, 1)]
    sql = (f"SELECT l.v, r.v FROM l JOIN r ON l.k = r.k "
           f"WHERE l.v > {bounds[0]} AND r.v > {bounds[1]}")
    results = _codesign_against_hash_fpga(sql, tables, default_library)

    bp = bind_sql(sql, tables)
    key_type = bp.join_key_type
    keys = []  # canonical keys of the rows reaching the join, per slot
    for name, bound in zip("lr", bounds):
        cells = [k for k, v in tables[name].rows if v > bound]
        if key_type.kind is TypeKind.CHAR:
            width = key_type.width_bytes
            keys.append(np.array([k.ljust(width).encode() for k in cells], dtype=f"S{width}"))
        else:
            keys.append(np.array(cells, dtype=np.int64))
    build = 0 if len(keys[0]) <= len(keys[1]) else 1
    assert build == _build_slot(results) == (small if emptied is None else emptied)
    probe_keys = keys[1 - build]

    cand = next(c for c in enumerate_pipelines(bp, default_library, _device())
                if c.tag == "row/hash_codesign")
    stages = next(s.module.param("stages") for s in cand.stages if s.role == "bloom_cascade")
    config = BloomCascadeConfig(stages, *bloom_dims(len(keys[build])), seed=7)  # the run's seed
    passed = _built_then_probed(config, key_images(keys[build], key_type),
                                key_images(probe_keys, key_type))

    report = results["row/hash_codesign"][1]
    stage = next(s for s in report.stages if s.name == "bloom_cascade")
    assert (stage.input_count, stage.output_count) == (len(probe_keys), int(passed.sum()))
    false_positives = np.count_nonzero(~np.isin(probe_keys[passed], keys[build]))
    assert report.bloom_false_positives == false_positives


@pytest.mark.parametrize("query", ["q07", "q08", "q09", "q10", "q11", "q12"])
def test_each_join_codes_its_keys_once(suite_dir, default_library, default_device,
                                       monkeypatch, query):
    """Every join candidate reads and codes its join keys once. A co-design
    run does both in its bloom stage, and its host join pairs on the
    stage's codes without reading a column."""
    events = []

    def logged(name, real):
        def call(*args, **kwargs):
            events.append(name)
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(exec_mod, "joint_codes", logged("code", exec_mod.joint_codes))
    monkeypatch.setattr(exec_mod._Run, "keys", logged("keys", exec_mod._Run.keys))
    monkeypatch.setattr(exec_mod, "gather", logged("gather", exec_mod.gather))
    real_host_join = exec_mod._Run.host_join

    def host_join(run, stage):
        events.append("host_join")
        out = real_host_join(run, stage)
        events.append("host_join done")
        return out

    monkeypatch.setattr(exec_mod._Run, "host_join", host_join)
    tables = _suite_tables(suite_dir)
    bp = bind_sql((suite_dir / f"{query}.sql").read_text(), tables)
    joins = {c.join_algo: c for c in enumerate_pipelines(bp, default_library, default_device)
             if c.join_algo is not None}
    assert set(joins) == {"hash_fpga", "merge_fpga", "hash_codesign"}
    for algo, cand in joins.items():
        events.clear()
        run_candidate(cand, tables, default_device)
        assert (events.count("keys"), events.count("code")) == (1, 1), algo
        if algo == "hash_codesign":
            at = events.index("host_join")
            assert events[at:at + 2] == ["host_join", "host_join done"]
            assert events.index("code") < at


def test_narrowing_a_side_keeps_its_key_codes_aligned(default_library):
    """Once the join keys are coded, narrowing a side narrows its codes with
    its rows, and the codes still pair like the keys; the join drops them."""
    tables = {"l": make_table([("k", "INT")], [(k,) for k in (4, 1, 4, 2, 9, 1)]),
              "r": make_table([("k", "INT")], [(k,) for k in (1, 4, 7, 4)])}
    bp = bind_sql("SELECT l.k, r.k FROM l JOIN r ON l.k = r.k", tables)
    run = exec_mod._Run(bp, tables, DeviceProfile(), seed=0)
    run.codes = exec_mod.joint_codes(run.keys())
    (left, right), n_codes, _ = run.codes
    run.narrow(0, np.array([5, 0, 2, 3]))
    run.narrow(1, np.array([3, 0]))
    assert run.codes[0][0].tolist() == left[[5, 0, 2, 3]].tolist()
    assert run.codes[0][1].tolist() == right[[3, 0]].tolist()
    keys = [k.tolist() for k in run.keys()]
    assert keys == [[1, 4, 4, 2], [4, 1]]
    pairs = pair_positions(*run.codes[0], run.codes[1])
    assert list(zip(*(p.tolist() for p in pairs))) == [
        (a, b) for a, x in enumerate(keys[0]) for b, y in enumerate(keys[1]) if x == y]
    run.host_join(None)
    assert run.codes is None
    assert [k.tolist() for k in run.keys()] == [[1, 4, 4], [1, 4, 4]]


def _positions_around(monkeypatch, roles):
    """Patch `_Run` so that each stage of a role in `roles` records (role,
    the slots' positions before it, after it); returns the record."""
    seen = []
    for role in roles:
        def call(run, stage, _real=getattr(exec_mod._Run, role), _role=role):
            before = list(run.positions)
            out = _real(run, stage)
            seen.append((_role, before, list(run.positions)))
            return out
        monkeypatch.setattr(exec_mod._Run, role, call)
    return seen


def test_a_join_of_one_partner_per_outer_row_keeps_its_positions(
        suite_dir, default_library, default_device, monkeypatch):
    """q08 joins each order to its one customer with no WHERE: under every
    join algorithm the order slot still holds every row in order, so it has
    no positions, and the co-design bloom stage passes every order."""
    seen = _positions_around(monkeypatch, ["bloom_cascade", "hash_join", "merge_join",
                                           "host_join"])
    tables = _suite_tables(suite_dir)
    bp = bind_sql((suite_dir / "q08.sql").read_text(), tables)
    joins = {c.join_algo: c for c in enumerate_pipelines(bp, default_library, default_device)
             if c.join_algo is not None}
    assert set(joins) == {"hash_fpga", "merge_fpga", "hash_codesign"}
    for algo, cand in joins.items():
        seen.clear()
        run_candidate(cand, tables, default_device)
        assert [role for role, _, _ in seen] == (
            ["bloom_cascade", "host_join"] if algo == "hash_codesign"
            else ["hash_join" if algo == "hash_fpga" else "merge_join"]), algo
        assert all(after[0] is None for _, _, after in seen), algo
        assert seen[-1][2][1] is not None, algo  # the customers are gathered per order


@pytest.mark.parametrize("where", ["", " WHERE l.v > 0"])
def test_a_bloom_stage_that_passes_every_probe_row_leaves_its_positions(default_library,
                                                                        monkeypatch, where):
    """Every probe key is built, so every probe row passes: the probe
    slot's positions are those it had before, None or a WHERE's index."""
    tables = {"l": make_table([("k", "INT"), ("v", "INT")],
                              [(k % 5, k % 7) for k in range(40)]),
              "r": make_table([("k", "INT")], [(k,) for k in range(6)])}
    seen = _positions_around(monkeypatch, ["bloom_cascade"])
    sql = f"SELECT l.v, r.k FROM l JOIN r ON l.k = r.k{where}"
    results = _codesign_against_hash_fpga(sql, tables, default_library)
    (_, before, after), = seen
    stage = next(s for s in results["row/hash_codesign"][1].stages if s.name == "bloom_cascade")
    assert stage.input_count == stage.output_count
    assert after[0] is before[0]
    assert (before[0] is None) == (where == "")


def test_align_tuple_too_large(default_library, default_device, suite_dir):
    """A device whose cache line is narrower than a record fails the align
    stage, even for a candidate planned on a device it fits."""
    tables = _suite_tables(suite_dir)
    bp = bind_sql((suite_dir / "q09.sql").read_text(), tables)
    cand = next(c for c in enumerate_pipelines(bp, default_library, default_device)
                if c.tag == "row/hash_codesign")
    with pytest.raises(TupleTooLarge, match="record of 34 B does not fit a 16 B block"):
        run_candidate(cand, tables, replace(default_device, cache_line_bytes=16))


def test_a_record_as_wide_as_the_cache_line_fits(default_library, default_device):
    """Three INT columns make a 24 B tuple and a 32 B record: a 32 B cache
    line holds it, so the planner offers co-design and the engine runs it."""
    cols = [("k", "INT"), ("a", "INT"), ("b", "INT")]
    tables = {"l": make_table(cols, [(i % 5, i, -i) for i in range(12)]),
              "r": make_table(cols, [(i, i, i) for i in range(4)])}
    dev = replace(default_device, cache_line_bytes=32)
    results = _codesign_against_hash_fpga("SELECT l.a, r.b FROM l JOIN r ON l.k = r.k",
                                          tables, default_library, dev)
    assert results["row/hash_codesign"][0].row_count == 10
    wider = {**tables, "r": make_table(cols + [("c", 1)], [(0, 0, 0, "x")])}
    bp = bind_sql("SELECT l.a FROM l JOIN r ON l.k = r.k", wider)
    assert "row/hash_codesign" not in [c.tag for c in enumerate_pipelines(bp, default_library, dev)]


def test_codesign_needs_records_that_fit_a_cache_line(default_library, default_device,
                                                      suite_dir):
    """q09's records are a customers tuple (26 B) and an orders tuple (37 B),
    each plus its 8-byte forwarded hash: 34 B and 45 B."""
    tables = _suite_tables(suite_dir)
    bp = bind_sql((suite_dir / "q09.sql").read_text(), tables)
    for block, offered in ((32, False), (64, True)):
        dev = replace(default_device, cache_line_bytes=block)
        tags = [c.tag for c in enumerate_pipelines(bp, default_library, dev)]
        assert ("row/hash_codesign" in tags) is offered, block


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
        assert first_multiset_diff(table, expected) is None


@pytest.mark.parametrize("inner_keys", ["unique", "repeated"])
def test_chained_restrictions_on_one_slot_before_a_join(default_library, inner_keys):
    """Nine one-side comparisons on t chain into two restrictions on its
    slot before the join; every candidate returns the oracle's rows in the
    oracle's order, with u's join keys unique or repeated."""
    rng = random.Random(5)
    t = make_table([("a", "INT"), ("x", "INT"), ("s", 2)],
                   [(rng.randint(0, 15), rng.randint(-9, 9), rng.choice(["ab", "b", "zz"]))
                    for _ in range(300)])
    keys = range(12) if inner_keys == "unique" else [rng.randint(0, 12) for _ in range(12)]
    u = make_table([("b", "INT"), ("y", 3)], [(k, rng.choice(["p", "qq", "rrr"])) for k in keys])
    tables = {"t": t, "u": u}
    sql = ("SELECT t.a, t.x, t.s, u.y FROM t JOIN u ON t.a = u.b WHERE "
           "t.x > -8 AND t.x < 8 AND t.x <> 0 AND t.x <> 3 AND t.a > 0 AND t.a < 14 "
           "AND t.a <> 5 AND t.s <> 'zz' AND t.s = 'ab' AND u.y <> 'qq'")
    expected = reference_execute(bind_sql(sql, tables), tables)
    assert expected.row_count
    results = run_all_candidates(sql, tables, default_library, _device())
    assert results
    for cand, table, _ in results:
        roles = [s.role for s in cand.stages]
        join_at = min(roles.index(r) for r in ("hash_join", "sort_left", "bloom_cascade")
                      if r in roles)
        before = [s for s in cand.stages[:join_at] if s.role == "restriction"
                  and any(slot == 0 for slot, _ in s.predicates)]
        assert len(before) == 2, cand.tag
        assert table.rows == expected.rows, cand.tag


@pytest.mark.parametrize("joined", [False, True])
@pytest.mark.parametrize("arg", ["x", "s"])
def test_min_max_count_by_a_char_key_whose_last_group_appears_late(default_library,
                                                                   joined, arg):
    """Three CHAR groups, the third first seen in the last row, far past the
    first 4 x groups rows; MIN and MAX share one INT or CHAR argument. Every
    candidate returns the oracle's groups in the oracle's order."""
    rng = random.Random(25)
    rows = [(rng.randint(0, 9), rng.choice(["aa", "bb"]), rng.randint(-50, 50),
             rng.choice(["p", "qq", "\x7fr"])) for _ in range(199)]
    t = make_table([("k", "INT"), ("g", 2), ("x", "INT"), ("s", 3)],
                   rows + [(3, "zz", 99, "zzz")])
    tables = {"t": t, "u": make_table([("k", "INT")], [(k,) for k in range(10)])}
    sql = f"SELECT t.g, MIN(t.{arg}), MAX(t.{arg}), COUNT(*) FROM t"
    if joined:
        sql += " JOIN u ON t.k = u.k"
    sql += " GROUP BY t.g"
    expected = reference_execute(bind_sql(sql, tables), tables)
    assert len(expected.rows) == 3 and expected.rows[-1][0] == "zz"
    results = run_all_candidates(sql, tables, default_library, _device())
    assert results
    for cand, table, _ in results:
        assert table.rows == expected.rows, cand.tag


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
        assert first_multiset_diff(table, expected) is None, cand.tag
    if mirrored is not None:
        stats = {name: table_stats(t) for name, t in tables.items()}
        other = bind_sql(f"SELECT a FROM t WHERE {mirrored}", tables)
        assert estimate_selectivity(bp.restriction, bp, stats) == pytest.approx(
            estimate_selectivity(other.restriction, other, stats))


def test_group_by_a_char_key_denser_than_its_span(default_library):
    """A CHAR(2) group key over 600 rows spans 257 image values, so it is
    coded by offset; grouping, MIN/MAX of a CHAR(8) column and ORDER BY the
    key DESC match the oracle row for row on every candidate."""
    rng = random.Random(11)
    rows = [(rng.choice(["AA", "AB", "BA", "BB", "B"]), rng.choice(["x~", "zz zz", "~~~~~~~~"]),
             rng.randint(-5, 5)) for _ in range(600)]
    tables = {"t": make_table([("g", 2), ("h", 8), ("v", "INT")], rows)}
    sql = ("SELECT g, COUNT(*) AS n, MIN(h) AS lo, MAX(h) AS hi, SUM(v) AS s "
           "FROM t GROUP BY g ORDER BY g DESC")
    expected = reference_execute(bind_sql(sql, tables), tables)
    assert [row[0] for row in expected.rows] == ["BB", "BA", "B ", "AB", "AA"]
    results = run_all_candidates(sql, tables, default_library, _device())
    assert results
    for cand, table, _ in results:
        assert table.rows == expected.rows, cand.tag


def test_sort_is_stable_permutation(default_library):
    rows = [(i % 5, i) for i in range(50)]
    t = make_table([("a", "INT"), ("b", "INT")], rows)
    results = run_all_candidates("SELECT a, b FROM t ORDER BY a", {"t": t},
                                 default_library, _device())
    for _, table, _ in results:
        assert sorted(table.rows) == sorted(rows)
        keys = [r[0] for r in table.rows]
        assert keys == sorted(keys)
        # stability: equal keys keep input order of b
        for k in range(5):
            bs = [r[1] for r in table.rows if r[0] == k]
            assert bs == sorted(bs)


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


def _outcome(run):
    """("ok", result multiset) or ("fault", (error, row))."""
    try:
        return "ok", canonical_multiset(run())
    except (ArithmeticOverflow, DivisionByZero) as exc:
        return "fault", (type(exc).__name__, exc.row)


def test_sum_and_avg_overflow_match_the_oracle(default_library, monkeypatch):
    """INT cells near +-2^62 and at the int64 limits drive SUM and AVG through
    group_sums' running-sum scan, grouped and global, with and without a join
    and a WHERE; every candidate matches the oracle, faulting row included."""
    from sqf.engine import exec as exec_mod

    scans, real = [], exec_mod.group_sums

    def group_sums(values, gid, groups):
        # the direct path's bound; past it, group_sums scans running sums
        scans.append(len(values) * max(-int(values.min(initial=0)),
                                       int(values.max(initial=0))) > INT64_MAX)
        return real(values, gid, groups)

    monkeypatch.setattr(exec_mod, "group_sums", group_sums)
    rng = random.Random(0x5EED)
    cells = [2**62, -(2**62), 2**62 + 1, -(2**62) - 1, 3 * 2**60, INT64_MAX, INT64_MIN,
             INT64_MAX - 1, INT64_MIN + 1, 0, 1, -1, 5]
    dev = _device()
    faults = oks = 0
    for _ in range(120):
        t = make_table([("g", "INT"), ("a", "INT")],
                       [(rng.randint(0, 2), rng.choice(cells)) for _ in range(rng.randint(1, 9))])
        u = make_table([("k", "INT"), ("w", "INT")],
                       [(rng.randint(0, 2), rng.randint(-2, 2)) for _ in range(rng.randint(1, 4))])
        tables = {"t": t, "u": u}
        fn = rng.choice(["SUM", "AVG"])
        grouped, joined, where = rng.random() < 0.5, rng.random() < 0.5, rng.random() < 0.5
        select = f"{fn}(t.a) AS s, COUNT(*) AS n"
        sql = f"SELECT t.g, {select}" if grouped else f"SELECT {select}"
        sql += " FROM t JOIN u ON t.g = u.k" if joined else " FROM t"
        if where:
            sql += " WHERE u.w <> 0" if joined else " WHERE t.a <> 0"
        if grouped:
            sql += " GROUP BY t.g"
        bp = bind_sql(sql, tables)
        expected = _outcome(lambda: reference_execute(bp, tables))
        stats = {name: table_stats(tbl) for name, tbl in tables.items()}
        for cand in enumerate_pipelines(bp, default_library, dev):
            got = _outcome(lambda: run_candidate(cand, tables, dev, stats=stats)[0])
            assert got == expected, (sql, t.rows, u.rows, cand.tag)
        faults += expected[0] == "fault"
        oks += expected[0] == "ok"
    print(f"{sum(scans)} of {len(scans)} sums scanned, {faults} faults, {oks} ok")
    assert any(scans) and faults and oks
