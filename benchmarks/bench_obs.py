"""E-OBS — a live metrics registry is provably free.

Two claims about the observability subsystem (:mod:`repro.obs`):

* **Zero structural interference** — running the point-lookup-heavy and
  the batched-ingest workloads under a live
  :class:`~repro.obs.MetricsRegistry` produces a move log whose digest is
  *identical* to the bare run's (hard assert, size-independent): counters
  and histograms observe decisions, they never make them.
* **Bounded wall-clock overhead** — this file times the bare and the
  instrumented runs itself, interleaved (bare, instrumented, bare, …) so
  drift hits both sides alike, and compares the best of 3 of each: the
  instrumented run stays within 5% of the bare one.  Wall-clock, so
  ``expect``-demoted in quick mode (tiny n makes the ratio pure noise).
"""

from __future__ import annotations

import math

from benchmarks.conftest import emit, expect, scaled
from repro.obs import MetricsRegistry
from repro.perf.scenarios import obs_ingest_run, obs_lookup_run

SEED = 20260730

#: The instrumented run's best-of time may exceed the bare run's by this much.
OVERHEAD_BOUND = 0.05

#: Interleaved timing repeats per variant; the best of them damps
#: scheduler and GC noise enough for a single-digit-percent bound.
REPEATS = 3


def _bare_vs_instrumented(one_run, n: int) -> dict:
    """Best-of-:data:`REPEATS` elapsed of each variant, plus the claims."""
    registry = MetricsRegistry()
    bare = instrumented = math.inf
    digests = set()
    for _ in range(REPEATS):
        digest, result, _ = one_run(n, SEED, None)
        digests.add(digest)
        bare = min(bare, result.elapsed_seconds)
        digest, result, _ = one_run(n, SEED, registry)
        digests.add(digest)
        instrumented = min(instrumented, result.elapsed_seconds)
    snapshot = registry.snapshot()
    return {
        "obs_matches_bare": len(digests) == 1,
        "metric_families": sum(len(category) for category in snapshot.values()),
        "bare_elapsed_seconds": bare,
        "instrumented_elapsed_seconds": instrumented,
        "overhead_fraction": instrumented / bare - 1.0,
    }


def _check(title: str, n: int, metrics: dict) -> None:
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
        note=f"overhead: {metrics['overhead_fraction'] * 100:+.2f}% "
        f"(best of {REPEATS}, interleaved)",
    )
    # Instrumentation must never change a structural decision — hard at
    # every size.
    assert metrics["obs_matches_bare"] is True
    assert metrics["metric_families"] > 0
    expect(
        metrics["overhead_fraction"] < OVERHEAD_BOUND,
        f"registry overhead {metrics['overhead_fraction'] * 100:.2f}% "
        f">= {OVERHEAD_BOUND * 100:.0f}% ({title})",
    )


def test_obs_point_lookup_overhead_under_bound(run_once):
    n = scaled(16384)
    metrics = run_once(lambda: _bare_vs_instrumented(obs_lookup_run, n))
    _check("E-OBS point-lookup-heavy", n, metrics)


def test_obs_batch_ingest_overhead_under_bound(run_once):
    n = scaled(8192)
    metrics = run_once(lambda: _bare_vs_instrumented(obs_ingest_run, n))
    _check("E-OBS batched ingest", n, metrics)
