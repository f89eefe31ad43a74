"""Host-time benchmark for sqf.

    python3 perfbench/run.py --workload suite_bench --seed 1 --seconds 25 --trace 0

Run from the repository root. It benchmarks the `sqf` under `src/` of that
checkout, generates every input from `--seed` under `.perfbench_work/`, and
prints each metric by name with its unit. The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`).
A traced run also writes its spans to `.perfbench_work/traces/`.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("suite_bench", "exec_sf8", "plan_stream")


def declared_metrics() -> tuple[dict, dict]:
    """{name: unit} of the end-to-end and of the per-layer metrics, in the
    order BENCHMARK.json lists them."""
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def _import_sqf():
    """Put this checkout's `src/` first on the path and import it from there."""
    src = REPO_ROOT / "src"
    if not (src / "sqf" / "__init__.py").is_file():
        raise SystemExit(f"error: no sqf package under {src}")
    sys.path.insert(0, str(src))
    import sqf

    if Path(sqf.__file__).resolve().parent != (src / "sqf").resolve():
        raise SystemExit(f"error: imported sqf from {sqf.__file__}, not {src}")


def end_to_end(result, wall_s: float, raw_wall_s: float):
    """The end-to-end metrics, in reference seconds (see hostspeed.py), plus
    the ones that apply only where their sample supports them (p90, rows/s),
    the error rate and the raw host seconds."""
    lat = sorted(x for item in result.latencies.values() for x in item)
    m = {
        "setup_s": statistics.median(result.setup_s),
        "wall_s": wall_s,
        "latency_ms_p50": statistics.median(lat) * 1e3,
        "ops_per_s": len(result.latencies) / wall_s,
        "peak_rss_mb": result.peak_rss_mb,
    }
    extra = {}
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else lat[-1]
    beyond = sum(1 for x in lat if x > p90)
    if beyond >= 10:
        extra["latency_ms_p90"] = (p90 * 1e3, "ms")
    else:
        extra["latency_ms_p90"] = (None, f"omitted: {beyond} samples beyond it")
    if result.source_rows:
        extra["rows_per_s"] = (result.source_rows / sum(lat), "rows/s")
    extra["error_rate"] = (result.failed / result.attempted if result.attempted else 1.0,
                           "ratio")
    # the same in raw host seconds, and the host's mean speed while measured
    extra["raw setup_s"] = (statistics.median(result.raw_setup_s), "s")
    extra["raw wall_s"] = (raw_wall_s, "s")
    extra["host speed"] = (result.host_speed, "of reference")
    return m, extra


def _print_checks(result):
    for name, passed in result.checks.items():
        print(f"  check  {name}: {'ok' if passed else 'FAILED'}")
    for name, value in result.notes.items():
        print(f"  note   {name}: {value:.4f}")


def main(argv=None, scale: float | None = None) -> int:
    """`scale` overrides the workloads' table scale factor; the benchmark's
    own tests use it to run on tiny tables."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; at least one whole pass is made")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    end_to_end_units, per_layer_units = declared_metrics()
    _import_sqf()
    import workloads

    base = REPO_ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        if args.trace:
            result, untraced, tracer = workloads.run_traced(
                args.workload, REPO_ROOT, work, args.seed, args.seconds, scale)
            trace_path = base / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_path)
        else:
            result = workloads.run(args.workload, REPO_ROOT, work, args.seed,
                                   args.seconds, scale)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = result.failed == 0 and all(result.checks.values())
    print(f"{args.workload}  seed {args.seed}  latency samples {result.attempted}  "
          f"failed {result.failed}")
    if args.trace:
        metrics = {k: {"value": result.layers[k], "unit": unit}
                   for k, unit in per_layer_units.items() if k in result.layers}
        print(f"  self time per layer, one set-up plus one pass ({args.workload}):")
        selfs = {k: v for k, v in result.layers.items() if k.endswith("self_s")}
        for name, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
            print(f"    {name:<24}{value:>12.6f} s")
        for name, spec in sorted(metrics.items()):
            if name not in selfs:
                print(f"  {name:<30}{spec['value']:>16.6f} {spec['unit']}")
        print(f"  one pass: untraced {workloads.pass_wall(untraced.latencies):.6f} s, "
              f"traced {workloads.pass_wall(result.latencies):.6f} s")
        for name in result.missing:
            print(f"  missing: {name} no longer exists; its metrics are left out")
        print(f"  spans written to {trace_path.relative_to(REPO_ROOT)}")
    else:
        values, extra = end_to_end(result, workloads.pass_wall(result.latencies),
                                   workloads.pass_wall(result.raw_latencies))
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in end_to_end_units.items()}
        for name, spec in metrics.items():
            print(f"  {name:<16}{spec['value']:>16.6f} {spec['unit']}")
        for name, (value, unit) in extra.items():
            shown = f"{value:>16.6f} {unit}" if value is not None else f"{'':>16} ({unit})"
            print(f"  {name:<16}{shown}")
    _print_checks(result)
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
