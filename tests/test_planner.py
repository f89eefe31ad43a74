from __future__ import annotations

import random

import pytest

import sqf.planner as planner_mod
from conftest import REPO, bind_sql, make_table
from sqf.errors import MissingStats, NoCandidates, UnknownModuleKind
from sqf.fabric import DeviceProfile, FabricState, allocate, load_device_profile, reconfigure
from sqf.library import ModuleKind, load_library
from sqf.planner import (
    CostEstimate,
    enumerate_pipelines,
    estimate_selectivity,
    full_estimate,
    select_best,
)
from sqf.relcore import ColumnStat, ColumnStats, table_stats


def two_int_table(rows):
    return make_table([("a", "INT"), ("b", "INT")], rows)


def stats_for(row_count, distinct=1000, lo=0, hi=999):
    """Stats of a two-column table whose columns share one stat."""
    return ColumnStats(row_count, (ColumnStat(min(distinct, row_count), lo, hi),) * 2)


def stats_pair(n_t, n_u):
    return {
        "t": stats_for(n_t),
        "u": stats_for(n_u),
    }


@pytest.fixture(scope="module")
def lib():
    return load_library(REPO / "library.default.json")


@pytest.fixture(scope="module")
def dev():
    return DeviceProfile()


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _join_tables():
    t = make_table([("a", "INT"), ("b", "INT")], [(1, 2)])
    u = make_table([("c", "INT"), ("d", "INT")], [(1, 3)])
    return {"t": t, "u": u}


def test_enumerate_join_has_three_algorithms(lib, dev):
    bp = bind_sql("SELECT t.a, u.d FROM t JOIN u ON t.a = u.c", _join_tables())
    cands = enumerate_pipelines(bp, lib, dev)
    algos = {c.join_algo for c in cands}
    assert {"hash_fpga", "merge_fpga", "hash_codesign"} <= algos
    assert len(cands) >= 3
    codesign = next(c for c in cands if c.join_algo == "hash_codesign")
    assert codesign.host_stage == "HASH_JOIN_HOST"
    assert [m.kind for m in codesign.modules[-2:]] == [
        ModuleKind.BLOOM_CASCADE, ModuleKind.ALIGN,
    ]


def test_enumerate_select_star_is_passthrough(lib, dev):
    bp = bind_sql("SELECT * FROM t", {"t": two_int_table([(1, 2)])})
    cands = enumerate_pipelines(bp, lib, dev)
    assert len(cands) == 1
    assert [m.kind for m in cands[0].modules] == [ModuleKind.PASSTHROUGH]


def test_enumerate_restriction_only_row_and_column(lib, dev):
    t = make_table([("a", "INT"), ("b", "INT"), ("c", "INT"), ("d", "INT")], [(1, 2, 3, 4)])
    bp = bind_sql("SELECT a FROM t WHERE a > 0", {"t": t})
    cands = enumerate_pipelines(bp, lib, dev)
    assert [c.layout for c in cands] == ["row", "column"]
    assert all(c.host_stage is None for c in cands)


@pytest.mark.parametrize("sql, layouts", [
    ("SELECT a, b FROM t", ["row", "column"]),  # two of four columns
    ("SELECT a, b FROM t WHERE c > 0", ["row"]),
    ("SELECT t.a FROM t JOIN u ON t.a = u.c", ["row", "column"]),  # a and c
    ("SELECT t.a FROM t JOIN u ON t.a = u.c WHERE t.b > 0", ["row"]),
    ("SELECT a + b AS s FROM t", ["row", "column"]),  # only a computed item reads
    ("SELECT a + b + c AS s FROM t", ["row"]),
    ("SELECT COUNT(*) FROM t WHERE a + b > 0", ["row", "column"]),  # only a WHERE
    ("SELECT COUNT(*) FROM t WHERE a + b > c", ["row"]),  # with arithmetic reads
], ids=["half", "one-more", "join-half", "join-one-more", "computed-half",
        "computed-one-more", "arith-where-half", "arith-where-one-more"])
def test_column_layout_needs_at_most_half_of_the_columns(lib, dev, sql, layouts):
    """Column layout is offered when exactly half of the plan's columns are
    touched (join keys, computed items and WHERE conjuncts included), and not
    when one more is."""
    t = make_table([("a", "INT"), ("b", "INT"), ("c", "INT"), ("d", "INT")], [(1, 2, 3, 4)])
    tables = _join_tables() if " JOIN " in sql else {"t": t}
    cands = enumerate_pipelines(bind_sql(sql, tables), lib, dev)
    assert list(dict.fromkeys(c.layout for c in cands)) == layouts


def test_column_source_is_priced_on_the_touched_widths(lib, dev):
    """A column candidate's source stage streams the touched columns only:
    8 + 5 bytes of INT a and CHAR(5) s, against the row's 8 + 5 + 8 + 3."""
    t = make_table([("a", "INT"), ("s", 5), ("x", "INT"), ("y", 3)],
                   [(1, "ab", 2, "c"), (2, "de", 3, "f")])
    bp = bind_sql("SELECT a, s FROM t", {"t": t})
    stats = {"t": table_stats(t)}
    seconds = {c.layout: full_estimate(c, stats, dev).stages[0].seconds
               for c in enumerate_pipelines(bp, lib, dev)}
    assert seconds["row"] == pytest.approx(2 * 24 / dev.mem_bytes_per_s)
    assert seconds["column"] == pytest.approx(2 * 13 / dev.mem_bytes_per_s)


@pytest.mark.parametrize("missing, sql", [
    (ModuleKind.SORT, "SELECT a FROM t WHERE a > 0 ORDER BY a"),
    (ModuleKind.PASSTHROUGH, "SELECT * FROM t"),
    (ModuleKind.RESTRICTION, "SELECT a FROM t WHERE a > 0"),
], ids=["sort", "passthrough", "restriction"])
def test_enumerate_missing_kind_raises(lib, dev, missing, sql):
    # a library file without these kinds cannot even load, so build the gap in memory
    small = {k: v for k, v in lib.items() if k is not missing}
    bp = bind_sql(sql, {"t": two_int_table([(1, 2)])})
    with pytest.raises(UnknownModuleKind, match=f"module kind {missing.value} is not"):
        enumerate_pipelines(bp, small, dev)


@pytest.mark.parametrize("missing, tags", [
    (ModuleKind.BLOOM_CASCADE, ["row/hash_fpga", "row/merge_fpga",
                                "column/hash_fpga", "column/merge_fpga"]),
    (ModuleKind.ALIGN, ["row/hash_fpga", "row/merge_fpga",
                        "column/hash_fpga", "column/merge_fpga"]),
], ids=["bloom_cascade", "align"])
def test_enumerate_prunes_the_algorithms_a_missing_kind_rules_out(lib, dev, missing, tags):
    """A library without a co-design filter kind drops the co-design
    variant only; the fabric algorithms stay in both layouts."""
    small = {k: v for k, v in lib.items() if k is not missing}
    bp = bind_sql("SELECT t.a FROM t JOIN u ON t.a = u.c ORDER BY a", _join_tables())
    cands = enumerate_pipelines(bp, small, dev)
    assert [c.tag for c in cands] == tags
    assert cands[-1].stages[-1].role == "sort"
    assert all(m.kind is not missing for c in cands for m in c.modules)


def test_enumerate_order_is_deterministic(lib, dev):
    bp = bind_sql("SELECT t.a FROM t JOIN u ON t.a = u.c", _join_tables())
    tags = [c.tag for c in enumerate_pipelines(bp, lib, dev)]
    assert tags == [c.tag for c in enumerate_pipelines(bp, lib, dev)]
    assert tags[0].startswith("row/")
    assert tags[-1] == "row/hash_codesign"


# ---------------------------------------------------------------------------
# time model
# ---------------------------------------------------------------------------

def test_stream_seconds_restriction_example(lib, dev):
    bp = bind_sql("SELECT a, b FROM t WHERE a > 5", {"t": two_int_table([(1, 2)])})
    cands = enumerate_pipelines(bp, lib, dev)
    row = next(c for c in cands if c.layout == "row")
    assert [m.kind for m in row.modules] == [ModuleKind.RESTRICTION]
    est = full_estimate(row, {"t": stats_for(1_000_000)}, dev)
    # 1e6 tuples x 16 B at 1.6e9 B/s; the module keeps up
    assert est.stream_seconds == pytest.approx(0.01)


def test_sort_blocking_vanishes_at_run_capacity(lib, dev):
    bp = bind_sql("SELECT a, b FROM t ORDER BY a", {"t": two_int_table([(1, 2)])})
    cand = enumerate_pipelines(bp, lib, dev)[0]
    assert [m.kind for m in cand.modules] == [ModuleKind.SORT]
    est = full_estimate(cand, {"t": stats_for(1024)}, dev)
    assert est.blocking_seconds == 0.0
    est_big = full_estimate(cand, {"t": stats_for(4096)}, dev)
    assert est_big.blocking_seconds > 0.0


def test_stream_linear_in_row_count(lib, dev):
    bp = bind_sql("SELECT a, b FROM t WHERE a > 5", {"t": two_int_table([(1, 2)])})
    cand = enumerate_pipelines(bp, lib, dev)[0]
    one = full_estimate(cand, {"t": stats_for(100_000)}, dev)
    two = full_estimate(cand, {"t": stats_for(200_000)}, dev)
    assert two.stream_seconds == pytest.approx(2 * one.stream_seconds)


def test_missing_stats(lib, dev):
    bp = bind_sql("SELECT a FROM t WHERE a > 0", {"t": two_int_table([(1, 2)])})
    cand = enumerate_pipelines(bp, lib, dev)[0]
    with pytest.raises(MissingStats):
        full_estimate(cand, {}, dev)


def test_total_is_exact_sum(lib, dev):
    bp = bind_sql(
        "SELECT t.a, u.d FROM t JOIN u ON t.a = u.c WHERE t.b > 3 ORDER BY a",
        _join_tables(),
    )
    for cand in enumerate_pipelines(bp, lib, dev):
        est = full_estimate(cand, stats_pair(5000, 800), dev)
        assert est.total_seconds == pytest.approx(
            est.stream_seconds + est.blocking_seconds
            + est.reconfig_seconds + est.host_seconds
        )


def test_reconfig_agrees_with_fabric(lib, dev):
    bp = bind_sql(
        "SELECT t.a, u.d FROM t JOIN u ON t.a = u.c WHERE t.b > 3", _join_tables()
    )
    for cand in enumerate_pipelines(bp, lib, dev):
        est = full_estimate(cand, stats_pair(100, 50), dev)
        fabric = FabricState(dev)
        placement = allocate(fabric, cand.modules)
        report = reconfigure(fabric, placement)
        assert est.reconfig_seconds == pytest.approx(report.seconds)


# ---------------------------------------------------------------------------
# selectivity heuristics
# ---------------------------------------------------------------------------

def _sel(sql_pred: str, stats: ColumnStats):
    bp = bind_sql(f"SELECT a FROM t WHERE {sql_pred}", {"t": two_int_table([(1, 2)])})
    return estimate_selectivity(bp.restriction, bp, {"t": stats})


def test_equality_uses_distinct():
    assert _sel("a = 7", stats_for(1000, distinct=50)) == pytest.approx(1 / 50)


def test_range_uses_min_max():
    s = _sel("a < 250", stats_for(1000, hi=1000))
    assert s == pytest.approx(0.25)
    s = _sel("a > 750", stats_for(1000, hi=1000))
    assert s == pytest.approx(0.25)


def test_and_multiplies_or_adds():
    stats = ColumnStats(1000, (ColumnStat(1000, 0, 1000),
                                ColumnStat(10, 0, 999)))
    s_and = _sel("a < 500 AND b = 3", stats)
    assert s_and == pytest.approx(0.5 * 0.1)
    s_or = _sel("a < 500 OR b = 3", stats)
    assert s_or == pytest.approx(0.5 + 0.1 - 0.05)


def test_selectivity_always_in_unit_interval():
    rng = random.Random(7)
    stats = ColumnStats(500, (ColumnStat(40, -20, 20),
                              ColumnStat(3, 0, 2)))
    preds = ["a < -100", "a > 100", "a = 5 AND a = 6 AND b = 1", "NOT a <> 5",
             "a < 10 OR a > -10 OR b = 0", "a * 2 < b + 1"]
    for _ in range(40):
        preds.append(
            f"a {rng.choice(['<', '>', '=', '<>'])} {rng.randint(-200, 200)}"
        )
    for pred in preds:
        s = _sel(pred, stats)
        assert 0.0 <= s <= 1.0, pred


# ---------------------------------------------------------------------------
# energy model
# ---------------------------------------------------------------------------

def _energy_formula(cand, est, dev):
    """docs/calculus.md's energy, from the fields of `est` and the slots of
    `cand`'s modules: static power over the run, each fabric stage's slots
    over the stream and its own blocking, and reconfiguration power."""
    active = sum(dev.p_slot_active_w * stage.module.slots
                 * (est.stream_seconds + stage_est.blocking_seconds)
                 for stage, stage_est in zip(cand.stages, est.stages)
                 if stage.module is not None)
    return (dev.p_static_w * est.total_seconds + active
            + dev.p_reconfig_w * est.reconfig_seconds)


def test_energy_example_static_plus_one_module(lib):
    dev = DeviceProfile(p_static_w=5.0, p_slot_active_w=1.0, p_reconfig_w=2.0)
    bp = bind_sql("SELECT a FROM t", {"t": two_int_table([(1, 2)])})
    cand = enumerate_pipelines(bp, lib, dev)[0]
    assert sum(m.slots for m in cand.modules) == 1
    est = full_estimate(cand, {"t": stats_for(1_000_000)}, dev)
    # 1e6 tuples x 16 B at 1.6e9 B/s stream for 0.01 s, with no blocking:
    # 5 W x (0.01 s + reconfig) + 1 W x 1 slot x 0.01 s + 2 W x reconfig
    assert est.stream_seconds == pytest.approx(0.01)
    assert est.blocking_seconds == 0.0 and est.host_seconds == 0.0
    assert est.energy_joules == pytest.approx(0.06 + 7.0 * est.reconfig_seconds)
    assert est.energy_joules == pytest.approx(_energy_formula(cand, est, dev))


def test_energy_zero_duration_is_reconfig_only(lib):
    dev = DeviceProfile(p_static_w=5.0, p_slot_active_w=1.0, p_reconfig_w=2.0)
    bp = bind_sql("SELECT a FROM t", {"t": two_int_table([(1, 2)])})
    cand = enumerate_pipelines(bp, lib, dev)[0]
    est = full_estimate(cand, {"t": stats_for(0)}, dev)
    assert est.stream_seconds == 0.0 and est.blocking_seconds == 0.0
    assert est.total_seconds == est.reconfig_seconds > 0.0
    assert est.energy_joules == pytest.approx((5.0 + 2.0) * est.reconfig_seconds)
    assert est.energy_joules == pytest.approx(_energy_formula(cand, est, dev))


def test_energy_increases_when_icap_halved(lib):
    # independent recomputation through the full model on both profiles
    fast = DeviceProfile()
    slow = DeviceProfile(icap_bytes_per_s=fast.icap_bytes_per_s / 2)
    bp = bind_sql("SELECT a, b FROM t WHERE a > 5", {"t": two_int_table([(1, 2)])})
    stats = {"t": stats_for(10_000)}
    cand_fast = enumerate_pipelines(bp, load_library(REPO / "library.default.json"), fast)[0]
    e_fast = full_estimate(cand_fast, stats, fast).energy_joules
    e_slow = full_estimate(cand_fast, stats, slow).energy_joules
    assert e_slow > e_fast


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def _fake_estimates(monkeypatch, table):
    def fake(cand, stats, dev, memo=None):
        total, energy = table[cand.tag]
        return CostEstimate(total, 0.0, 0.0, 0.0, total, energy, ())

    monkeypatch.setattr(planner_mod, "full_estimate", fake)


def test_select_best_argmin(lib, dev, monkeypatch):
    bp = bind_sql("SELECT t.a FROM t JOIN u ON t.a = u.c", _join_tables())
    cands = enumerate_pipelines(bp, lib, dev)[:2]
    _fake_estimates(monkeypatch, {cands[0].tag: (0.010, 1.0), cands[1].tag: (0.008, 1.0)})
    best, est = select_best(cands, {}, dev)
    assert best.tag == cands[1].tag
    assert est.total_seconds == 0.008


def test_select_best_tie_breaks_on_energy(lib, dev, monkeypatch):
    bp = bind_sql("SELECT t.a FROM t JOIN u ON t.a = u.c", _join_tables())
    cands = enumerate_pipelines(bp, lib, dev)[:2]
    _fake_estimates(monkeypatch, {cands[0].tag: (0.01, 1.0), cands[1].tag: (0.01, 0.5)})
    best, _ = select_best(cands, {}, dev)
    assert best.tag == cands[1].tag


def test_select_best_empty_raises(dev):
    with pytest.raises(NoCandidates):
        select_best([], {}, dev)


def test_select_best_permutation_invariant(lib, dev):
    tables = _join_tables()
    bp = bind_sql(
        "SELECT t.a, u.d FROM t JOIN u ON t.a = u.c WHERE t.b > 100", tables
    )
    stats = stats_pair(4000, 400)
    cands = enumerate_pipelines(bp, lib, dev)
    chosen, _ = select_best(cands, stats, dev)
    rng = random.Random(3)
    for _ in range(6):
        shuffled = cands[:]
        rng.shuffle(shuffled)
        again, _ = select_best(shuffled, stats, dev)
        assert again.tag == chosen.tag


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------

def test_estimate_monotone_in_row_count(lib, dev):
    tables = _join_tables()
    queries = [
        "SELECT a, b FROM t WHERE a > 5",
        "SELECT a, b FROM t ORDER BY a",
        "SELECT b, COUNT(*) FROM t GROUP BY b",
        "SELECT t.a, u.d FROM t JOIN u ON t.a = u.c WHERE t.b > 3 ORDER BY a",
    ]
    for sql in queries:
        bp = bind_sql(sql, tables)
        for cand in enumerate_pipelines(bp, lib, dev):
            last = -1.0
            for scale in (100, 500, 2500, 12_500):
                stats = stats_pair(scale, max(1, scale // 8))
                est = full_estimate(cand, stats, dev)
                assert est.total_seconds >= last - 1e-15, (sql, cand.tag, scale)
                last = est.total_seconds
                for stage in est.stages:
                    assert 0.0 <= stage.selectivity <= 1.0


def test_software_baseline_reads_the_estimate_bit_for_bit(criterion_1_cases, default_library,
                                                         default_device):
    """The baseline built from a ranked estimate's stage inputs equals, to
    the last bit, the baseline priced afresh on the baseline profile: its
    source stage's seconds plus every later stage's input at host rate."""
    baseline = load_device_profile(REPO / "device.baseline.json")
    checked = 0
    for sql, tables, stats in criterion_1_cases:
        cands = enumerate_pipelines(bind_sql(sql, tables), default_library, default_device)
        for cand, est in planner_mod.rank(cands, stats, default_device):
            priced = planner_mod._price(cand, planner_mod._memo_flows(cand, stats, {}), baseline)
            seconds = priced.stages[0].seconds
            for stage in priced.stages[1:]:
                seconds += stage.input_tuples / baseline.host_tuples_per_s
            want = (seconds, baseline.p_static_w * seconds)
            got = planner_mod.software_baseline(cand, est, stats, baseline)
            assert repr(got) == repr(want), (sql, cand.tag)
            checked += 1
    assert checked == 2388


def test_ranking_with_shared_flows_equals_pricing_each_alone(criterion_1_cases,
                                                            default_library,
                                                            default_device):
    """`rank` shares each plan's flows and selectivities among its
    candidates. Over criterion 1's case generator, every estimate it gives
    equals, to the last bit of its repr, the candidate priced alone."""
    priced = 0
    for sql, tables, stats in criterion_1_cases:
        bp = bind_sql(sql, tables)
        cands = enumerate_pipelines(bp, default_library, default_device)
        ranked = planner_mod.rank(cands, stats, default_device)
        assert sorted(id(c) for c, _ in ranked) == sorted(map(id, cands))
        for cand, est in ranked:
            assert repr(est) == repr(full_estimate(cand, stats, default_device)), (sql, cand.tag)
        priced += len(ranked)
    assert priced == 2388
