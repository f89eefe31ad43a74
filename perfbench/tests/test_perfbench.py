"""The benchmark's own tests, on tiny scales so the whole file runs in about
a minute:  python -m pytest perfbench/tests"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import sqf
import sqf.cli

import hostspeed
import inputs
import run
import tracing
import workloads

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"suite_bench": 0.05, "exec_sf8": 0.1, "plan_stream": 0.1}


def _run(capsys, workload, trace, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.01",
                     "--trace", str(trace)], scale=TINY[workload])
    out = capsys.readouterr().out
    assert code == 0
    return out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload_runs_correctly_and_prints_every_end_to_end_metric(capsys, workload):
    out, result = _run(capsys, workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert f"  {name} " in out and f" {unit}\n" in out
        assert result["metrics"][name]["value"] > 0
    # printed beside them where they apply
    assert "  error_rate " in out and "  latency_ms_p90 " in out
    assert ("  rows_per_s " in out) == (workload != "plan_stream")


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_reports_every_per_layer_metric(capsys, workload):
    out, result = _run(capsys, workload, trace=1)
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name in declared:
        assert f"  {name} " in out
    assert (REPO_ROOT / ".perfbench_work" / "traces" / f"{workload}-seed3.jsonl").is_file()


def test_fingerprints_repeat_exactly(tmp_path):
    def fingerprints():
        result, _, _ = workloads.run_traced("suite_bench", REPO_ROOT, tmp_path, 5, 0.01,
                                            scale=0.05)
        return {k: result.layers[k] for k in ("planner.modeled_total_s",
                                              "planner.modeled_energy_j",
                                              "fabric.reconfig.bytes")}

    first = fingerprints()
    assert first == fingerprints()
    assert all(v > 0 for v in first.values())


def _wrong_once(real, bad_call):
    calls = []

    def checksum(table):
        calls.append(1)
        value = real(table)
        return value ^ 1 if len(calls) == bad_call else value

    return checksum


def test_injected_wrong_checksum_is_a_failure_exec(tmp_path, monkeypatch):
    monkeypatch.setattr(sqf, "result_checksum", _wrong_once(sqf.result_checksum, 3))
    result = workloads.run("exec_sf8", REPO_ROOT, tmp_path, 3, 0.01, scale=0.05)
    assert result.failed >= 1


def test_injected_wrong_checksum_is_a_failure_suite_bench(tmp_path, monkeypatch):
    monkeypatch.setattr(sqf.cli, "result_checksum",
                        _wrong_once(sqf.cli.result_checksum, 20))
    result = workloads.run("suite_bench", REPO_ROOT, tmp_path, 3, 0.01, scale=0.05)
    assert result.attempted == 1 and result.failed == 1


def test_sqf_error_in_plan_stream_is_a_failure(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise sqf.SqfError("refused")

    monkeypatch.setattr(sqf, "select_best", refuse)
    result = workloads.run("plan_stream", REPO_ROOT, tmp_path, 3, 0.01, scale=0.05)
    assert result.failed == result.attempted == workloads.PlanStream.stream_length


@pytest.mark.parametrize("workload", ["suite_bench", "exec_sf8", "plan_stream"])
def test_layer_self_times_sum_to_operation_wall(tmp_path, workload):
    result, _, tracer = workloads.run_traced(workload, REPO_ROOT, tmp_path, 3, 0.01,
                                             scale=TINY[workload])
    selfs = tracing.self_times(tracer.spans)
    per_op = {}
    for i, s in selfs.items():
        per_op[tracer.spans[i][tracing.OP]] = per_op.get(tracer.spans[i][tracing.OP], 0.0) + s
    overhead = max(0.0, result.layers["trace.overhead_s"]) / len(result.latencies)
    for op, wall in result.op_walls.items():
        assert abs(per_op[op] - wall) <= overhead + 1e-4, op
    # Time in a layer call left unwrapped would land in the self time of the
    # harness or of the bench command, so those must stay small. The layer
    # metrics cover the set-up and the first traced pass.
    n = len(result.latencies)
    covered = result.setup_s[0] + sum(result.op_walls[f"op{k}"] for k in range(n, 2 * n))
    glue = result.layers["harness.self_s"] + result.layers["cli.bench.self_s"]
    assert glue < 0.1 * covered, (glue, covered)


def test_speed_clock_samples_while_entered_and_leaves_the_kernel_out():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedClock() as clock:
        mark = clock.mark()
        t0 = perf_counter()
        while perf_counter() - t0 < 0.5:
            pass
        raw, ref = clock.since(mark)
        elapsed = perf_counter() - t0
    factors, samples, kernel_s = clock.totals
    assert samples >= 0.5 / hostspeed.PERIOD - 3
    assert raw == pytest.approx(elapsed - kernel_s, abs=2e-3)
    assert ref == pytest.approx(raw * factors / samples, rel=1e-6)
    assert signal.getsignal(signal.SIGALRM) == before
    assert clock.totals == (factors, samples, kernel_s)  # stopped on exit


def test_every_round_sets_up_afresh(tmp_path):
    result = workloads.run("plan_stream", REPO_ROOT, tmp_path, 3, 1.0, scale=0.05)
    assert len(result.setup_s) == len(result.raw_setup_s) == workloads.PlanStream.setups
    assert result.attempted >= workloads.PlanStream.stream_length


def test_missing_wrapped_name_is_reported_not_zero():
    tracer = tracing.Tracer()
    with tracing.patched(tracer, [("sqf.cli", "no_such_loader", "relcore.load_csv")]):
        pass
    assert tracer.missing == {"sqf.cli.no_such_loader": "relcore.load_csv"}
    layers = tracing.layer_metrics([], "setup", set(), "verify", tracer.missing, 0)
    assert not any(k.startswith(("relcore.load_csv", "relcore.reload_ratio"))
                   for k in layers)
    assert "relcore.table_stats.s" in layers


def test_scaled_manifest_scales_the_foreign_key_domain():
    manifest = json.loads((REPO_ROOT / "suite" / "manifest.json").read_text())
    scaled = inputs.scaled_manifest(manifest, REPO_ROOT / "suite", 9, 8.0)
    assert scaled["seed"] == 9
    assert scaled["tables"]["orders"]["rows"] == 8 * manifest["tables"]["orders"]["rows"]
    customers = scaled["tables"]["customers"]["rows"]
    assert customers == 8 * manifest["tables"]["customers"]["rows"]
    custkey = next(c for c in scaled["tables"]["orders"]["columns"] if c["name"] == "custkey")
    assert (custkey["gen"]["lo"], custkey["gen"]["hi"]) == (0, customers - 1)
    same = inputs.scaled_manifest(manifest, REPO_ROOT / "suite", manifest["seed"], 1.0)
    assert same["tables"] == manifest["tables"]


def test_generator_matches_shipped_suite_at_sf1(tmp_path):
    assert inputs.generator_matches_shipped(REPO_ROOT, tmp_path)


def test_query_stream_is_valid_and_within_restriction_limit(tmp_path):
    stream = inputs.query_stream(REPO_ROOT, 7, 400)
    assert stream == inputs.query_stream(REPO_ROOT, 7, 400)
    suite_dir = inputs.write_suite(REPO_ROOT, tmp_path / "suite", 7, 0.1)
    sqf.suite.materialize(suite_dir)
    tables = {n: sqf.load_csv(suite_dir / "tables" / f"{n}.csv")
              for n in ("orders", "customers")}
    catalog = {n: t.schema for n, t in tables.items()}
    stats = {n: sqf.table_stats(t) for n, t in tables.items()}
    library = sqf.load_library(REPO_ROOT / "library.default.json")
    device = sqf.load_device_profile(REPO_ROOT / "device.default.json")
    for q in stream:
        bound = sqf.bind(sqf.parse_query(q["sql"]), catalog)
        sqf.select_best(sqf.enumerate_pipelines(bound, library, device), stats, device)
        assert q["terms"] <= inputs.MAX_WHERE_TERMS
    # the shipped suite: 6/12 join, 6/12 order, 4/12 group, one SELECT * and
    # one aggregate without GROUP BY
    shapes = inputs.suite_shapes(REPO_ROOT)
    assert sum(s["join"] for s in shapes) == 6 and sum(s["ordered"] for s in shapes) == 6
    assert [sum(s["select"] == k for s in shapes) for k in ("grouped", "star", "aggregate")] \
        == [4, 1, 1]
    for share in (lambda q: q["join"], lambda q: q["ordered"],
                  lambda q: q["select"] == "grouped", lambda q: q["select"] == "star"):
        expected = sum(map(share, shapes)) / len(shapes)
        assert abs(sum(map(share, stream)) / len(stream) - expected) < 0.08


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(REPO_ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(REPO_ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan_stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
