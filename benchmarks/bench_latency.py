"""E-LAT — tail-latency truth: p999 under the adversarial cliff-chaser.

The paper's worst-case guarantees are invisible in amortized tables: the
deamortized PMA (Theorem 3) pays a small *average* premium over the
classical PMA precisely to cap what any single operation can cost.  This
experiment makes that trade measurable: under the feedback-driven
rebalance-cliff chaser, classical wins on amortized moves while the
deamortized structure wins on p999 per-operation move cost — the tail
inversion committed as the ``tail_inversion`` correctness flag of
``BENCH_latency.json``.

Also regression-checked here: batched and singleton runs report their
percentiles on the same per-operation scale (the batch-blind percentile
bugfix — before it, a batched run's p99 was a whole-batch number and the
ratio below exploded).  Every number here is a move count; per-operation
wall-clock latency is measured by the repository benchmark
(``perfbench/``) and, on a live server, by the ``service.latency.*``
histograms.
"""

from __future__ import annotations

from benchmarks.conftest import (
    BASE_FACTORIES,
    emit,
    expect,
    scaled,
)
from repro.algorithms import ClassicalPMA
from repro.analysis import run_workload
from repro.core.sharded import ShardedLabeler
from repro.workloads import BulkLoadWorkload, RebalanceCliffWorkload

#: The committed-baseline seed (BENCH_latency.json uses the same stream).
SEED = 20260730

#: Full-size run matches the BENCH_latency.json full row; the quick-mode
#: stand-in (128) is below where the tail inversion develops, so the shape
#: claims demote to notes there.
N = scaled(512)


def _row(name: str, result) -> dict[str, object]:
    tracker = result.tracker
    return {
        "structure": name,
        "amortized": tracker.amortized,
        "p50": tracker.percentile(0.50),
        "p99": tracker.percentile(0.99),
        "p999": tracker.percentile(0.999),
        "worst_case": tracker.worst_case,
    }


def test_cliff_chaser_tail_inversion(run_once):
    def experiment():
        rows = []
        for name, factory in BASE_FACTORIES.items():
            result = run_workload(
                factory(N), RebalanceCliffWorkload(N, seed=SEED)
            )
            rows.append(_row(name, result))
        return rows

    rows = run_once(experiment)
    emit(
        "E-LAT: rebalance-cliff chaser, move-cost tails, n = %d" % N,
        rows,
        note="Expected shape: classical-pma beats deamortized-pma on "
        "amortized moves, deamortized-pma beats classical-pma on p999 — "
        "the worst-case guarantee showing up only in the tail.",
    )
    by_name = {row["structure"]: row for row in rows}
    classical = by_name["classical-pma"]
    deamortized = by_name["deamortized-pma"]
    expect(
        classical["amortized"] < deamortized["amortized"],
        "classical should win the amortized average on the cliff-chaser",
    )
    expect(
        deamortized["p999"] < classical["p999"],
        "deamortized should win the p999 tail on the cliff-chaser",
    )
    # Size-independent: the percentile ladder is ordered by construction.
    for result_row in rows:
        assert result_row["p50"] <= result_row["p99"] <= result_row["p999"]


def test_batched_percentiles_per_operation_scale(run_once):
    """Singleton vs batched: the same stream, the same percentile scale."""

    def experiment():
        workload = BulkLoadWorkload(N, batch_size=64, seed=SEED)
        singleton = run_workload(
            ShardedLabeler(lambda c: ClassicalPMA(c), shard_capacity=128),
            workload,
        )
        batched = run_workload(
            ShardedLabeler(lambda c: ClassicalPMA(c), shard_capacity=128),
            workload,
            batch_size=64,
        )
        return [
            _row("singleton", singleton),
            _row("batched(64)", batched),
        ]

    rows = run_once(experiment)
    emit(
        "E-LAT: per-operation percentile scale, singleton vs batched, "
        "n = %d" % N,
        rows,
        note="Expected shape: comparable p99 on both rows.  Before the "
        "weight-aware fix the batched p99 was a whole-batch total "
        "(~64x the per-operation number).",
    )
    singleton, batched = rows
    # Size-independent regression: the batched p99 must sit on the per-op
    # scale.  With event-based percentiles it was a whole-batch cost and
    # exceeded the singleton number by roughly the batch factor.
    assert batched["p99"] <= max(1.0, float(singleton["worst_case"]))

