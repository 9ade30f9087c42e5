"""E-OBS — a live metrics registry is provably free.

Two claims about the observability subsystem (:mod:`repro.obs`):

* **Zero structural interference** — running the point-lookup-heavy and
  the batched-ingest workloads under a live
  :class:`~repro.obs.MetricsRegistry` produces a move log whose digest is
  *identical* to the bare run's (hard assert, size-independent): counters
  and histograms observe decisions, they never make them.
* **Bounded wall-clock overhead** — the instrumented run's best-of
  elapsed stays within 5% of the bare run's.  Wall-clock, so
  ``expect``-demoted in quick mode (tiny n makes the ratio pure noise).
"""

from __future__ import annotations

from benchmarks.conftest import emit, expect, scaled
from repro.perf.scenarios import (
    run_obs_batch_ingest_overhead,
    run_obs_point_lookup_overhead,
)

SEED = 20260730

#: The overhead bound the committed BENCH_obs baseline gates.
OVERHEAD_BOUND = 0.05


def _emit_overhead(title: str, n: int, metrics: dict) -> None:
    emit(
        f"{title}, n={n}",
        [
            {
                "path": "bare (null registry)",
                "elapsed_seconds": round(metrics["bare_elapsed_seconds"], 5),
            },
            {
                "path": f"instrumented ({metrics['metric_families']} instruments)",
                "elapsed_seconds": round(
                    metrics["instrumented_elapsed_seconds"], 5
                ),
            },
        ],
        note=f"overhead: {metrics['overhead_fraction'] * 100:+.2f}%",
    )


def test_obs_point_lookup_overhead_under_bound(run_once):
    n = scaled(16384)

    def experiment():
        return run_obs_point_lookup_overhead(n, SEED)

    metrics = run_once(experiment)
    # Instrumentation must never change a structural decision — hard at
    # every size.
    assert metrics["obs_matches_bare"] is True
    assert metrics["metric_families"] > 0
    _emit_overhead("E-OBS point-lookup-heavy", n, metrics)
    expect(
        metrics["overhead_fraction"] < OVERHEAD_BOUND,
        f"registry overhead {metrics['overhead_fraction'] * 100:.2f}% "
        f">= {OVERHEAD_BOUND * 100:.0f}% on point lookups",
    )


def test_obs_batch_ingest_overhead_under_bound(run_once):
    n = scaled(8192)

    def experiment():
        return run_obs_batch_ingest_overhead(n, SEED)

    metrics = run_once(experiment)
    assert metrics["obs_matches_bare"] is True
    assert metrics["metric_families"] > 0
    _emit_overhead("E-OBS batched ingest", n, metrics)
    expect(
        metrics["overhead_fraction"] < OVERHEAD_BOUND,
        f"registry overhead {metrics['overhead_fraction'] * 100:.2f}% "
        f">= {OVERHEAD_BOUND * 100:.0f}% on batched ingest",
    )
