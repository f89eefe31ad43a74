"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add `-s` to see the summary
lines). Criterion 1 dominates the runtime; the whole module targets well
under five minutes on a laptop.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

from conftest import REPO, bind_sql, run_all_candidates, run_candidate
from sqf.cli import main
from sqf.engine.bloom import BloomCascadeConfig, bloom_build_probe
from sqf.errors import ArithmeticOverflow, DivisionByZero, InsufficientSlots
from sqf.fabric import DeviceProfile, FabricState, allocate, reconfigure, release
from sqf.library import ModuleInstance, ModuleKind, ModuleSpec
from sqf.oracle import canonical_multiset, order_keys, reference_execute
from sqf.planner import enumerate_pipelines, full_estimate, select_best
from sqf.relcore import ColumnStat, ColumnStats

LIB = str(REPO / "library.default.json")
DEV = str(REPO / "device.default.json")


def _outcome(bp, run):
    """("ok", row multiset, ORDER BY key tuples in row order, or None without
    ORDER BY, each column's dtype) of `run()`'s table, or ("fault", (fault,
    row)). The oracle's `Table.from_rows` gives int64 for INT and `S<w>`
    for CHAR(w), so an engine column of another dtype differs from it."""
    try:
        table = run()
    except (ArithmeticOverflow, DivisionByZero) as exc:
        return ("fault", (type(exc).__name__, exc.row))
    keys = [idx for idx, _ in bp.order_by]
    order = order_keys(table, keys) if keys else None
    return ("ok", canonical_multiset(table), order, [col.dtype for col in table.columns])


def test_criterion_1_oracle_equivalence_randomized(criterion_1_cases, default_library,
                                                   default_device):
    """>=1000 random queries x every candidate pipeline == oracle multiset,
    and, with ORDER BY, the oracle's sequence of ORDER BY keys."""
    cases = 0
    pipelines = 0
    faults = 0
    for sql, tables, stats in criterion_1_cases:
        bp = bind_sql(sql, tables)
        expected = _outcome(bp, lambda: reference_execute(bp, tables))
        if expected[0] == "fault":
            faults += 1
        cands = enumerate_pipelines(bp, default_library, default_device)
        for cand in cands:
            got = _outcome(bp, lambda: run_candidate(cand, tables, default_device,
                                                     stats=stats)[0])
            assert got == expected, (
                f"case {cases}: candidate {cand.tag} diverged from the oracle\n"
                f"query: {sql}\noracle: {expected[0]}, engine: {got[0]}"
                + (", same multiset, ORDER BY keys out of order"
                   if got[:2] == expected[:2] and got[2] != expected[2] else "")
                + (f", same rows, dtypes {got[3]} against {expected[3]}"
                   if got[:3] == expected[:3] else "")
            )
            pipelines += 1
        cases += 1
    assert cases == 1000
    assert pipelines >= cases
    print(f"\nPASS criterion 1: {cases} cases, {pipelines} pipelines, "
          f"{faults} matched-fault cases, 100% oracle equivalence")


def test_criterion_2_cross_algorithm_equivalence(suite_dir, default_library,
                                                 default_device):
    """Hash, merge, and co-design joins agree on every suite join query, and
    every candidate of each matches the reference evaluator's rows and, with
    ORDER BY, its sequence of ORDER BY keys."""
    from sqf.relcore import load_csv

    tables = {
        "orders": load_csv(suite_dir / "tables" / "orders.csv"),
        "customers": load_csv(suite_dir / "tables" / "customers.csv"),
    }
    manifest = json.loads((suite_dir / "manifest.json").read_text())
    checked = 0
    for name in manifest["queries"]:
        sql = (suite_dir / name).read_text().strip()
        if " JOIN " not in sql:
            continue
        bp = bind_sql(sql, tables)
        expected = _outcome(bp, lambda: reference_execute(bp, tables))
        results = run_all_candidates(sql, tables, default_library, default_device)
        by_algo = {}
        for cand, table, _ in results:
            assert _outcome(bp, lambda: table) == expected, (
                f"{name}: {cand.tag} differs from the reference")
            by_algo.setdefault(cand.join_algo, canonical_multiset(table))
        assert {"hash_fpga", "merge_fpga", "hash_codesign"} <= set(by_algo)
        reference = by_algo["hash_fpga"]
        for algo, multiset in by_algo.items():
            assert multiset == reference, f"{name}: {algo} differs"
        checked += 1
    assert checked >= 3
    print(f"\nPASS criterion 2: {checked} join queries identical across "
          f"hash_fpga/merge_fpga/hash_codesign and to the reference")


@pytest.mark.parametrize("m", [512, 4096])
@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("load", [0.05, 0.1, 0.2])
def test_criterion_3_bloom_accuracy(m, k, load):
    """FP rate within +/-20% of analytic; zero false negatives, exhaustively."""
    n = int(m * load)
    stages = 2 if (m, k, load) == (512, 2, 0.1) else 1  # one cascade spot-check
    analytic = ((1 - math.exp(-k * n / m)) ** k) ** stages
    probes = np.arange(10**7, 10**7 + 20_000, dtype=np.uint64)
    keys = np.concatenate([np.arange(n, dtype=np.uint64), probes])  # built, then probed
    built = np.arange(len(keys)) < n
    false_positives = 0
    probed = 0
    for seed in range(10):
        mask = bloom_build_probe(BloomCascadeConfig(stages, m, k, seed), keys, built)
        assert mask[:n].all()  # exhaustive no-false-negative check
        false_positives += int(mask[n:].sum())
        probed += len(probes)
    measured = false_positives / probed
    assert abs(measured - analytic) <= 0.2 * analytic, (
        f"m={m} k={k} n={n}: measured {measured:.6f} vs analytic {analytic:.6f}"
    )
    print(f"\nPASS criterion 3 [m={m} k={k} n/m={load}]: measured {measured:.6f} "
          f"within 20% of analytic {analytic:.6f}, 0 false negatives")


def _random_module(rng):
    kind = rng.choice(list(ModuleKind))
    slots = rng.randint(1, 4)
    bps = rng.choice([128, 256, 512])
    spec = ModuleSpec(kind, slots, 0, bps, 1.0, 2.0e8)
    return ModuleInstance(spec, (("tag", rng.randint(0, 3)),), slots, slots * bps)


def test_criterion_4_fabric_invariants():
    """10k+ random schedule steps: disjoint ranges, conserved reconfig bytes."""
    rng = random.Random(0xFAB)
    dev = DeviceProfile(regions=2, slots_per_region=16)
    fabric = FabricState(dev)
    live = []
    total_seconds = 0.0
    total_bytes = 0
    steps = 12_000
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.45:
            modules = [_random_module(rng) for _ in range(rng.randint(1, 3))]
            try:
                live.append(allocate(fabric, modules))
            except InsufficientSlots:
                pass
        elif roll < 0.75 and live:
            report = reconfigure(fabric, rng.choice(live))
            total_seconds += report.seconds
            total_bytes += report.bytes
        elif live:
            release(fabric, live.pop(rng.randrange(len(live))))
        fabric.check_invariants()
    assert total_seconds == pytest.approx(total_bytes / dev.icap_bytes_per_s)

    # byte conservation across interleavings of fresh loads
    modules = [[_random_module(rng) for _ in range(2)] for _ in range(4)]
    loads = []
    for order in ([0, 1, 2, 3], [3, 1, 0, 2]):
        f2 = FabricState(DeviceProfile(regions=4, slots_per_region=16))
        placements = [allocate(f2, m) for m in modules]
        loads.append(sum(reconfigure(f2, placements[i]).bytes for i in order))
    assert loads[0] == loads[1] == sum(
        inst.bitstream_bytes for chain in modules for inst in chain
    )
    print(f"\nPASS criterion 4: {steps} schedule steps, no overlaps, "
          f"{total_bytes} bytes conserved across interleavings")


def test_criterion_5_calculus_properties(default_library, default_device):
    """Monotone estimates, unit-interval selectivities, model==mechanism
    reconfig, permutation-invariant selection."""
    from conftest import make_table

    t = make_table([("a", "INT"), ("b", "INT")], [(1, 2)])
    u = make_table([("c", "INT"), ("d", "INT")], [(1, 3)])
    tables = {"t": t, "u": u}
    checked = 0
    for sql in (
        "SELECT a, b FROM t WHERE a > 5 AND b = 2",
        "SELECT a, b FROM t ORDER BY a",
        "SELECT b, COUNT(*) FROM t GROUP BY b",
        "SELECT t.a, u.d FROM t JOIN u ON t.a = u.c WHERE t.b > 3 ORDER BY a",
    ):
        bp = bind_sql(sql, tables)
        cands = enumerate_pipelines(bp, default_library, default_device)
        for cand in cands:
            last = -1.0
            for scale in (10, 100, 1_000, 10_000, 100_000):
                stats = {
                    "t": ColumnStats(scale, (ColumnStat(min(500, scale), 0, 999),
                                             ColumnStat(min(40, scale), 0, 999))),
                    "u": ColumnStats(max(1, scale // 10),
                                     (ColumnStat(min(500, scale), 0, 999),
                                      ColumnStat(min(40, scale), 0, 999))),
                }
                est = full_estimate(cand, stats, default_device)
                assert est.total_seconds >= last - 1e-15
                last = est.total_seconds
                for stage in est.stages:
                    assert 0.0 <= stage.selectivity <= 1.0
                checked += 1
            fabric = FabricState(default_device)
            placement = allocate(fabric, cand.modules)
            assert full_estimate(
                cand, stats, default_device
            ).reconfig_seconds == pytest.approx(reconfigure(fabric, placement).seconds)
        stats = {"t": ColumnStats(5000, (ColumnStat(500, 0, 999),
                                         ColumnStat(40, 0, 999))),
                 "u": ColumnStats(700, (ColumnStat(500, 0, 999),
                                        ColumnStat(40, 0, 999)))}
        chosen, _ = select_best(cands, stats, default_device)
        rng = random.Random(1)
        for _ in range(5):
            shuffled = cands[:]
            rng.shuffle(shuffled)
            again, _ = select_best(shuffled, stats, default_device)
            assert again.tag == chosen.tag
    print(f"\nPASS criterion 5: {checked} monotonicity points, selectivities in "
          f"[0,1], reconfig model==mechanism, selection argmin-invariant")


def _strip_meta(path):
    report = json.loads(path.read_text())
    report.pop("meta")
    return json.dumps(report, sort_keys=True)


def test_criterion_6_deterministic_reports(suite_dir, tmp_path):
    """cmd_run --seed 7 twice per suite query: identical reports sans meta."""
    manifest = json.loads((suite_dir / "manifest.json").read_text())
    for name in manifest["queries"]:
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{name}.{run}.json"
            rc = main([
                "run", "--query", str(suite_dir / name),
                "--tables", str(suite_dir / "tables"),
                "--library", LIB, "--device", DEV,
                "--out", str(out), "--seed", "7",
            ])
            assert rc == 0, name
            outs.append(_strip_meta(out))
        assert outs[0] == outs[1], f"{name}: report bytes differ"
    print(f"\nPASS criterion 6: {len(manifest['queries'])} suite queries, "
          f"byte-identical reports (timestamp/wall excluded)")


def test_criterion_7_overhead_and_energy_ratios(suite_dir, tmp_path):
    """Reconfiguration overhead <= pinned bound on the whole suite; modeled
    software-baseline energy ratios are emitted deterministically. The
    hardware-measured headline numbers are documentation-only, not
    reproduced (see README and docs/calculus.md)."""
    manifest = json.loads((suite_dir / "manifest.json").read_text())
    bound = manifest["max_overhead_fraction"]
    reports = []
    for run in (1, 2):
        out = tmp_path / f"bench{run}.json"
        rc = main(["bench", "--suite", str(suite_dir), "--out", str(out),
                   "--seed", "7"])
        assert rc == 0
        reports.append(json.loads(out.read_text()))
    ok_rows = [r for r in reports[0]["rows"] if r["status"] == "ok"]
    assert len(ok_rows) >= len(manifest["queries"])  # at least every auto row
    worst = 0.0
    for row in ok_rows:
        assert row["overhead_fraction"] <= bound, (row["query"], row["strategy"])
        worst = max(worst, row["overhead_fraction"])
        assert row["baseline_energy_joules"] > 0
        assert row["energy_ratio_vs_baseline"] > 0
    # determinism of the modeled numbers across runs
    def modeled(report):
        return [
            {k: v for k, v in row.items() if k != "measured_wall_seconds"}
            for row in report["rows"]
        ]

    assert modeled(reports[0]) == modeled(reports[1])
    docs = (REPO / "docs" / "calculus.md").read_text()
    readme = (REPO / "README.md").read_text()
    assert "baseline" in docs.lower()
    assert "not" in readme.lower() and "reproduc" in readme.lower()
    print(f"\nPASS criterion 7: worst overhead fraction {worst:.4f} <= {bound}; "
          f"energy ratios deterministic and documented")
