"""The repository's benchmark: one seeded workload per run, every answer checked.

Run one workload (from the root of a checkout)::

    python3 perfbench/run.py --workload embedded_churn --seed 1 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` wraps the program's public calls in spans and prints the
per-layer metrics instead (see ``tracing.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the diagnostics:
the run context (machine fingerprint), raw wall-clock values, the
calibration kernel series and, for traced runs, the self time of every
layer per op class.  Any wrong answer makes the command exit 1.

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``, the
run length the bounds there were measured at.

Steadiness report: run every workload of ``BENCHMARK.json`` several
times, alternating workloads, plus one traced run each to measure the
tracing overhead::

    python3 perfbench/run.py --report --runs 10 --seed 101

For each end-to-end metric it prints the median, the quartiles, and the
IQR and min/max spreads as shares of the median.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench-work"
sys.path.insert(0, str(HERE))


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: bool) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if workload not in workloads.WORKLOADS:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    end_to_end = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
    per_layer = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    workdir = WORKDIR / f"{workload}-{seed}-{'traced' if trace else 'plain'}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = workloads.Run(workload, seed, seconds, trace, workdir)
    try:
        metrics = workloads.WORKLOADS[workload](run)
        if run.tracer is not None:
            run.tracer.write_csv(WORKDIR / f"spans-{workload}.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values = run.layer_metrics if trace else metrics
    units = per_layer if trace else end_to_end
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json"
        )
    if trace:
        shares = [entry["attributed_share"] for entry in run.diagnostics["trace_breakdown_us"].values()]
        run.diagnostics["trace_check_within_10pct"] = all(
            abs(1.0 - share) <= 0.10 for share in shares
        )
    run.diagnostics["end_to_end"] = metrics
    run.diagnostics["failures"] = run.failures
    run.diagnostics["error_rate"] = run.failed / max(1, run.attempted)
    print(json.dumps({"diagnostics": run.diagnostics}))
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


def _result(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    finished = subprocess.run(command, capture_output=True, text=True, timeout=600, cwd=ROOT)
    lines = finished.stdout.strip().splitlines()
    if finished.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(command)} failed:\n{finished.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["diagnostics"] = json.loads(lines[-2])["diagnostics"]
    return result


def report(spec: dict, runs: int, seconds: int, first_seed: int) -> int:
    """Steadiness report: alternating runs, then spread per metric.

    Every workload runs ``runs`` times with seeds ``first_seed``,
    ``first_seed + 1``, ...; the first seed also gets a traced run, whose
    throughput against the untraced run's is the tracing overhead.
    """
    import common

    workload_names = [entry["name"] for entry in spec["workloads"]]
    results: dict[str, list[dict]] = {name: [] for name in workload_names}
    traced_results: dict[str, dict] = {}
    for index in range(runs):
        for name in workload_names:
            seed = first_seed + index
            results[name].append(_result(name, seed, seconds, False))
            if index == 0:
                traced_results[name] = _result(name, seed, seconds, True)
            print(f"# {name} seed {seed} done", file=sys.stderr, flush=True)
    summary: dict = {}
    for name in workload_names:
        rows = {}
        for metric in results[name][0]["metrics"]:
            values = [result["metrics"][metric]["value"] for result in results[name]]
            rows[metric] = {**common.quartile_spread(values), "values": values}
        kernels = [r["diagnostics"]["kernel"]["kernel_median_ns"] for r in results[name]]
        raw = [r["diagnostics"]["raw"]["throughput_ops_s"] for r in results[name]]
        rows["raw.throughput_ops_s"] = common.quartile_spread(raw)
        rows["kernel_median_ns"] = common.quartile_spread(kernels)
        # The calibration exponent these runs support: minus the slope of
        # log raw throughput on log kernel time.
        fit = statistics.linear_regression(
            [math.log(value) for value in kernels], [math.log(value) for value in raw]
        )
        traced = traced_results[name]["diagnostics"]
        entry = {
            "metrics": rows,
            "fitted_exponent": -fit.slope,
            "tracing_overhead": 1.0 - traced["traced_throughput_ops_s"]
            / results[name][0]["metrics"]["throughput_ops_s"]["value"],
            "trace_check_within_10pct": traced["trace_check_within_10pct"],
        }
        summary[name] = entry
        print(f"\n{name}: {runs} runs (seed, kernel ms, raw ops/s, calibrated ops/s, raw setup s)")
        for index, result in enumerate(results[name]):
            diagnostics = result["diagnostics"]
            print(
                f"  {first_seed + index:5d} {diagnostics['kernel']['kernel_median_ns'] / 1e6:8.3f}"
                f" {diagnostics['raw']['throughput_ops_s']:10.1f}"
                f" {result['metrics']['throughput_ops_s']['value']:10.1f}"
                f" {statistics.median(diagnostics['raw']['setup_s']):8.3f}"
            )
        print(f"  {'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'iqr%':>7} {'range%':>7}")
        for metric, row in rows.items():
            print(
                f"  {metric:28} {row['median']:14.6g} {row['q1']:14.6g} {row['q3']:14.6g}"
                f" {100 * row['iqr_share']:7.2f} {100 * row['range_share']:7.2f}"
            )
        print(f"  fitted calibration exponent: {entry['fitted_exponent']:.3f}")
        print(f"  tracing overhead (share of untraced throughput): {entry['tracing_overhead']:.3f}")
        print(f"  traced self times within 10%: {entry['trace_check_within_10pct']}")
    print(json.dumps(summary))
    return 0


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true", help="steadiness report mode")
    parser.add_argument("--runs", type=int, default=5, help="report: runs per workload")
    args = parser.parse_args()
    if args.report:
        return report(spec, args.runs, args.seconds, args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    return run_once(spec, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
