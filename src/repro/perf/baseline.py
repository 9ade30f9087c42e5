"""Schema-versioned benchmark baselines and the regression comparator.

The committed artifacts are one ``BENCH_<suite>.json`` per suite at the
repository root (``core``, ``sharded``, ``store``, ``query``, ``latency``
and ``obs``):

.. code-block:: json

    {
      "schema_version": 3,
      "suite": "core",
      "seed": 20260730,
      "quick": false,
      "scenarios": {
        "insert_heavy": {
          "sizes": {
            "512":  {"operations": 512, "moves": 5613, "...": "..."},
            "4096": {"operations": 4096, "moves": 46687, "...": "..."}
          }
        }
      }
    }

Every field is an exact quantity of a seeded run; none is a timing.
Full generation records every scenario at its quick *and* full size; a
``--quick`` regeneration (what CI does on every push) reruns only the quick
sizes and :func:`compare_baselines` diffs the intersection by three rules:

* **moves** — the fields named in :data:`MOVE_METRICS` (the paper's cost
  model) fail when they regress by more than the tolerance (default 25%)
  and warn on any smaller drift;
* **correctness flags** — a ``bool`` field, known by its type
  (``moves_match``, ``recovered_match``, ``reads_match``,
  ``tail_inversion``, ``obs_matches_bare``), fails unless the fresh run
  has it ``True``;
* **everything else is exact** — for a fixed seed every other number is
  bit-identical, so any drift warns.

Wall-clock time is measured elsewhere: by the repository benchmark
(``perfbench/``, with calibration, repeats and quartiles), on a live
server by the ``service.latency.*`` histograms of :mod:`repro.obs`, and
the two timing bounds that gate something by the bench files that assert
them (``benchmarks/bench_wire_speed.py``, ``benchmarks/bench_obs.py``).

**Schema versions.**  Version 3 (current) dropped every timing field;
documents of any other version fail to compare — regenerate them with
``python -m repro.perf generate``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.perf.scenarios import (
    CORE_SCENARIOS,
    LATENCY_SCENARIOS,
    OBS_SCENARIOS,
    QUERY_SCENARIOS,
    SHARDED_SCENARIOS,
    STORE_SCENARIOS,
    ScenarioSpec,
)

SCHEMA_VERSION = 3

#: Seed baked into the committed baselines.
DEFAULT_SEED = 20260730

#: Default failure threshold for move-count regressions (+25%).
DEFAULT_MOVE_TOLERANCE = 0.25

SUITES: dict[str, dict[str, ScenarioSpec]] = {
    "core": CORE_SCENARIOS,
    "sharded": SHARDED_SCENARIOS,
    "store": STORE_SCENARIOS,
    "query": QUERY_SCENARIOS,
    "latency": LATENCY_SCENARIOS,
    "obs": OBS_SCENARIOS,
}

#: Entries kept in a baseline file's ``trajectory`` history list.
TRAJECTORY_LIMIT = 200

#: Metrics measured in element moves — the paper's cost model, and the only
#: numbers the comparator judges against a tolerance.
MOVE_METRICS = frozenset(
    {"moves", "reference_moves", "total_moves", "restructure_moves"}
)


def baseline_filename(suite: str) -> str:
    """The committed artifact name of a suite (``BENCH_<suite>.json``)."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r} (have {sorted(SUITES)})")
    return f"BENCH_{suite}.json"


def generate_suite(suite: str, *, quick: bool = False, seed: int = DEFAULT_SEED) -> dict:
    """Run every scenario of ``suite`` and return the baseline document.

    Full mode runs each scenario at its quick and full sizes (so the
    committed file contains the entries a quick CI regeneration can be
    diffed against); quick mode runs the quick sizes only.
    """
    scenarios = SUITES.get(suite)
    if scenarios is None:
        raise ValueError(f"unknown suite {suite!r} (have {sorted(SUITES)})")
    document: dict = {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "seed": seed,
        "quick": quick,
        "scenarios": {},
    }
    for name, spec in scenarios.items():
        sizes = [spec.quick_n] if quick else sorted({spec.quick_n, spec.full_n})
        document["scenarios"][name] = {
            "sizes": {str(n): spec.run(n, seed) for n in sizes}
        }
    return document


def write_baseline(path: str | Path, document: dict) -> Path:
    path = Path(path)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# Trajectory: per-run history inside the committed baseline files
# ---------------------------------------------------------------------------
def trajectory_entry(
    fresh: dict, *, event: str, comparison: "BaselineComparison | None" = None
) -> dict:
    """One history record summarizing a run of the suite.

    Captures the move and operation counts of every scenario/size the run
    produced, plus — for ``compare`` runs — the comparison outcome: the
    history tracks the cost model across PRs.
    """
    metrics: dict[str, float] = {}
    for name, entry in fresh.get("scenarios", {}).items():
        for size, values in entry.get("sizes", {}).items():
            for metric, value in values.items():
                if metric in MOVE_METRICS or metric == "operations":
                    metrics[f"{name}@{size}.{metric}"] = value
    record: dict = {
        "event": event,
        "date": _today(),
        "seed": fresh.get("seed"),
        "quick": fresh.get("quick"),
        "metrics": metrics,
    }
    if comparison is not None:
        record["ok"] = comparison.ok
        record["failures"] = len(comparison.failures)
        record["warnings"] = len(comparison.warnings)
    return record


def _today() -> str:
    import datetime

    return datetime.date.today().isoformat()


def append_trajectory(document: dict, entry: dict) -> None:
    """Append ``entry`` to a baseline document's history (bounded length)."""
    history = document.setdefault("trajectory", [])
    history.append(entry)
    del history[: max(0, len(history) - TRAJECTORY_LIMIT)]


def record_comparison_trajectory(
    path: str | Path, fresh: dict, comparison: "BaselineComparison"
) -> None:
    """Persist a ``compare`` run into the committed baseline's history.

    This is what keeps the perf trajectory across PRs non-empty: every
    ``python -m repro.perf compare`` leaves its deterministic cost numbers
    (and pass/fail outcome) inside ``BENCH_<suite>.json``, so the file
    carries the whole measured history, not just the latest refresh.
    """
    path = Path(path)
    document = load_baseline(path)
    append_trajectory(
        document, trajectory_entry(fresh, event="compare", comparison=comparison)
    )
    write_baseline(path, document)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------
@dataclass
class BaselineComparison:
    """The outcome of diffing a fresh run against a committed baseline."""

    suite: str
    rows: list[dict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def _row(self, scenario: str, size: str, metric: str, baseline, fresh, status: str) -> None:
        delta = ""
        if (
            isinstance(baseline, (int, float))
            and isinstance(fresh, (int, float))
            and not isinstance(baseline, bool)
            and baseline
        ):
            delta = f"{(fresh - baseline) / baseline * 100.0:+.1f}%"
        self.rows.append(
            {
                "scenario": scenario,
                "n": size,
                "metric": metric,
                "baseline": baseline,
                "fresh": fresh,
                "delta": delta,
                "status": status,
            }
        )


def compare_baselines(
    baseline: dict,
    fresh: dict,
    *,
    move_tolerance: float = DEFAULT_MOVE_TOLERANCE,
) -> BaselineComparison:
    """Diff ``fresh`` (a regenerated run) against ``baseline`` (committed).

    Only the scenario/size intersection is compared, so a quick fresh run
    diffs cleanly against a full committed baseline.  See the module
    docstring for the failure/warning policy.
    """
    suite = baseline.get("suite", "?")
    comparison = BaselineComparison(suite=suite)
    for side, document in (("baseline", baseline), ("fresh", fresh)):
        if document.get("schema_version") != SCHEMA_VERSION:
            comparison.failures.append(
                f"unsupported {side} schema version "
                f"{document.get('schema_version')!r} (supported: "
                f"{SCHEMA_VERSION}) — regenerate the baseline"
            )
    if comparison.failures:
        return comparison
    if baseline.get("seed") != fresh.get("seed"):
        comparison.failures.append(
            f"seed mismatch: baseline {baseline.get('seed')!r} vs fresh "
            f"{fresh.get('seed')!r} — move counts are not comparable"
        )
        return comparison

    base_scenarios = baseline.get("scenarios", {})
    fresh_scenarios = fresh.get("scenarios", {})
    for name in sorted(set(base_scenarios) | set(fresh_scenarios)):
        if name not in fresh_scenarios:
            comparison.notes.append(f"{name}: not rerun (baseline-only)")
            continue
        if name not in base_scenarios:
            comparison.warnings.append(
                f"{name}: no committed baseline — run `python -m repro.perf "
                f"generate` and commit the refreshed BENCH files"
            )
            continue
        base_sizes = base_scenarios[name].get("sizes", {})
        fresh_sizes = fresh_scenarios[name].get("sizes", {})
        for size in sorted(set(base_sizes) & set(fresh_sizes), key=int):
            _compare_metrics(
                comparison,
                name,
                size,
                base_sizes[size],
                fresh_sizes[size],
                move_tolerance,
            )
        for size in sorted(set(fresh_sizes) - set(base_sizes), key=int):
            comparison.warnings.append(
                f"{name}@{size}: size missing from the committed baseline"
            )
    return comparison


def _compare_metrics(
    comparison: BaselineComparison,
    scenario: str,
    size: str,
    base_metrics: dict,
    fresh_metrics: dict,
    move_tolerance: float,
) -> None:
    for metric in sorted(set(base_metrics) | set(fresh_metrics)):
        base_value = base_metrics.get(metric)
        fresh_value = fresh_metrics.get(metric)
        label = f"{scenario}@{size}.{metric}"
        if base_value is None or fresh_value is None:
            comparison.warnings.append(f"{label}: present on one side only")
            continue
        if isinstance(base_value, bool) or isinstance(fresh_value, bool):
            if fresh_value is not True:
                comparison.failures.append(
                    f"{label}: correctness flag is {fresh_value!r}"
                )
                comparison._row(scenario, size, metric, base_value, fresh_value, "FAIL")
            continue
        if metric in MOVE_METRICS:
            if base_value > 0:
                relative = (fresh_value - base_value) / base_value
            else:
                relative = 0.0 if fresh_value == base_value else math.inf
            if relative > move_tolerance:
                comparison.failures.append(
                    f"{label}: move count regressed {relative * 100.0:+.1f}% "
                    f"({base_value} → {fresh_value}, tolerance "
                    f"{move_tolerance * 100.0:.0f}%)"
                )
                status = "FAIL"
            elif fresh_value != base_value:
                comparison.warnings.append(
                    f"{label}: move count drifted ({base_value} → {fresh_value}) "
                    f"— seeded runs should be identical; regenerate the "
                    f"baseline if this change is intended"
                )
                status = "WARN"
            else:
                status = "ok"
            comparison._row(scenario, size, metric, base_value, fresh_value, status)
            continue
        if base_value != fresh_value:
            comparison.warnings.append(
                f"{label}: {base_value!r} → {fresh_value!r} (deterministic "
                f"metric drifted)"
            )
            comparison._row(scenario, size, metric, base_value, fresh_value, "WARN")
