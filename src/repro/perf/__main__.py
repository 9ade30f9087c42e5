"""Command-line entry point: ``python -m repro.perf <generate|compare|show>``.

* ``generate [--quick] [--suite <suite>|all] [--out DIR] [--seed N]``
  runs the scenarios and (re)writes ``BENCH_<suite>.json``.  Refreshing the
  committed baselines is a full run in the repository root::

      PYTHONPATH=src python -m repro.perf generate

* ``compare [--quick] [--suite ...] [--baseline-dir DIR] [--tolerance F]
  [--dump-dir DIR] [--no-trajectory]`` regenerates the suites in memory
  and diffs them against the committed files.  Exits ``1`` on any failure
  — a move-count regression beyond the tolerance (default 25%) or a false
  correctness flag (any ``bool`` field).  ``--dump-dir`` also writes the
  fresh documents to disk (before comparing, so a failing run still
  leaves an inspectable artifact).  This is what the CI ``bench-baseline``
  job runs (with ``--quick --dump-dir bench-fresh``).

* **Trajectory.**  Both commands append a history record — the run's
  deterministic cost metrics, plus the pass/fail outcome for compares —
  to the ``trajectory`` list inside ``BENCH_<suite>.json`` (``compare``
  updates the committed file in place; ``generate`` carries the existing
  history forward into the refreshed file).  The baselines therefore
  accumulate the measured cost trajectory across PRs instead of only
  holding the latest run; ``--no-trajectory`` opts out.

* ``show FILE...`` renders committed baseline files as tables (and the
  tail of their trajectory).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.report import format_scenario_table, format_table
from repro.perf.baseline import (
    DEFAULT_MOVE_TOLERANCE,
    DEFAULT_SEED,
    SUITES,
    append_trajectory,
    baseline_filename,
    compare_baselines,
    generate_suite,
    load_baseline,
    record_comparison_trajectory,
    trajectory_entry,
    write_baseline,
)


def _suites(option: str) -> list[str]:
    return sorted(SUITES) if option == "all" else [option]


def _cmd_generate(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for suite in _suites(args.suite):
        document = generate_suite(suite, quick=args.quick, seed=args.seed)
        path = out_dir / baseline_filename(suite)
        if path.exists() and not args.no_trajectory:
            # A refresh replaces the numbers but keeps the measured
            # history, extended with this run.
            document["trajectory"] = load_baseline(path).get("trajectory", [])
            append_trajectory(document, trajectory_entry(document, event="generate"))
        path = write_baseline(path, document)
        print(f"wrote {path}")
        print(format_scenario_table(document))
        print()
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    baseline_dir = Path(args.baseline_dir)
    exit_code = 0
    for suite in _suites(args.suite):
        path = baseline_dir / baseline_filename(suite)
        if not path.exists():
            print(f"FAIL [{suite}]: no committed baseline at {path} — run "
                  f"`python -m repro.perf generate` and commit it")
            exit_code = 1
            continue
        baseline = load_baseline(path)
        fresh = generate_suite(
            suite, quick=args.quick, seed=baseline.get("seed", DEFAULT_SEED)
        )
        if args.dump_dir:
            dump_dir = Path(args.dump_dir)
            dump_dir.mkdir(parents=True, exist_ok=True)
            dumped = write_baseline(dump_dir / baseline_filename(suite), fresh)
            print(f"wrote {dumped}")
        comparison = compare_baselines(
            baseline, fresh, move_tolerance=args.tolerance
        )
        if not args.no_trajectory:
            record_comparison_trajectory(path, fresh, comparison)
        interesting = [row for row in comparison.rows if row["status"] != "ok"]
        if interesting:
            print(format_table(interesting, title=f"[{suite}] drift vs {path.name}"))
        for note in comparison.notes:
            print(f"note [{suite}]: {note}")
        for warning in comparison.warnings:
            print(f"WARN [{suite}]: {warning}")
        for failure in comparison.failures:
            print(f"FAIL [{suite}]: {failure}")
        if comparison.ok:
            compared = sum(1 for row in comparison.rows if row["status"] == "ok")
            print(f"ok [{suite}]: {compared} metrics within tolerance "
                  f"({len(comparison.warnings)} warning(s))")
        else:
            exit_code = 1
    return exit_code


def _cmd_show(args: argparse.Namespace) -> int:
    for name in args.files:
        document = load_baseline(name)
        print(format_scenario_table(document, title=str(name)))
        history = document.get("trajectory", [])
        if history:
            print(f"trajectory: {len(history)} recorded run(s); last 5:")
            for entry in history[-5:]:
                outcome = ""
                if "ok" in entry:
                    outcome = " ok" if entry["ok"] else (
                        f" FAIL({entry.get('failures', '?')})"
                    )
                print(
                    f"  {entry.get('date', '?')} {entry.get('event', '?')} "
                    f"seed={entry.get('seed')} quick={entry.get('quick')}"
                    f"{outcome}"
                )
        print()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.perf")
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="run scenarios, write BENCH_*.json")
    generate.add_argument("--quick", action="store_true", help="quick sizes only")
    generate.add_argument("--suite", choices=[*sorted(SUITES), "all"], default="all")
    generate.add_argument("--out", default=".", help="output directory")
    generate.add_argument("--seed", type=int, default=DEFAULT_SEED)
    generate.add_argument(
        "--no-trajectory",
        action="store_true",
        help="do not carry/extend the baseline's trajectory history",
    )
    generate.set_defaults(func=_cmd_generate)

    compare = sub.add_parser("compare", help="diff a fresh run vs committed baselines")
    compare.add_argument("--quick", action="store_true", help="quick sizes only")
    compare.add_argument("--suite", choices=[*sorted(SUITES), "all"], default="all")
    compare.add_argument("--baseline-dir", default=".", help="directory of BENCH files")
    compare.add_argument("--tolerance", type=float, default=DEFAULT_MOVE_TOLERANCE)
    compare.add_argument(
        "--dump-dir",
        default=None,
        help="also write the fresh run's BENCH files here (CI artifact)",
    )
    compare.add_argument(
        "--no-trajectory",
        action="store_true",
        help="do not append this run to the baseline's trajectory history",
    )
    compare.set_defaults(func=_cmd_compare)

    show = sub.add_parser("show", help="render baseline files as tables")
    show.add_argument("files", nargs="+")
    show.set_defaults(func=_cmd_show)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
