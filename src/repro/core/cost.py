"""Cost accounting: amortized, worst-case and lightly-amortized statistics.

Section 2 of the paper defines three cost notions that the theorems
distinguish carefully:

* **amortized expected cost** ``O(C)``: on every prefix of the input the
  average cost per operation is ``O(C)``;
* **worst-case cost**: the maximum cost of any single operation;
* **lightly-amortized expected cost** ``O(C)``: on *any contiguous
  subsequence* of ``T`` operations the total cost is ``O(TC + n)``.

:class:`CostTracker` records the per-operation costs produced by a run and
exposes all three, including the windowed statistic needed to check light
amortization empirically.

Two distributional views coexist:

* the **per-operation** view (:meth:`CostTracker.percentile`,
  :meth:`~CostTracker.tail_fraction`) weights every event by the number of
  logical operations it served — a batch of ``w`` operations with total
  cost ``c`` contributes ``w`` operations of cost ``c / w`` — so a batched
  run and its singleton equivalent report percentiles on the same
  per-operation scale as :attr:`~CostTracker.amortized`;
* the **per-event** view (:meth:`CostTracker.event_percentile`,
  :meth:`~CostTracker.event_tail_fraction`, :attr:`~CostTracker.worst_case`)
  treats each recorded event — a whole batch — as one sample, which is the
  right view for "how expensive can one call get".

The tracker counts element moves and exact quantities only; it keeps no
clock.  Wall-clock time is measured by the repository benchmark
(``perfbench/``) and, on a live server, by the ``service.latency.*``
histograms of :mod:`repro.obs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class WindowStatistics:
    """Cost statistics of the worst contiguous window of a fixed length."""

    window: int
    max_total: int
    max_start: int
    mean_total: float

    @property
    def max_average(self) -> float:
        """Average per-operation cost inside the worst window."""
        return self.max_total / self.window if self.window else 0.0


class CostTracker:
    """Accumulates per-operation costs and derives summary statistics.

    The tracker records *events*: a singleton operation is an event of
    weight 1; a batch recorded via :meth:`record_batch` is a single event
    whose weight is the number of logical operations it contained.  The
    element-level statistics (:attr:`operations`, :attr:`amortized`,
    :meth:`percentile`, :meth:`tail_fraction`) weight batches by their
    size, while the event-level statistics (:attr:`worst_case`,
    :meth:`event_percentile`, windows) treat each batch as one event —
    for singleton-only runs the two views coincide, so existing callers
    are unaffected.
    """

    def __init__(self) -> None:
        self._costs: list[int] = []
        self._weights: list[int] = []
        self._operations = 0
        self._total = 0
        self._max = 0
        self._restructures: dict[str, int] = {}
        self._restructure_moves: dict[str, int] = {}
        self._query_counts: dict[str, int] = {}
        self._query_items: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, cost: int) -> None:
        """Record the cost of one operation."""
        self._record_event(cost, 1)

    def record_batch(self, total_cost: int, operations: int) -> None:
        """Record a batch of ``operations`` logical ops with one total cost.

        The batch appears as a single event in the event-level statistics
        and as ``operations`` operations in the element-level ones.

        A **zero-applied batch** (``operations == 0`` — e.g. a
        ``delete_many`` whose key set was empty) is recorded as a
        weight-0 event: it contributes nothing to the per-operation views
        (there is no operation to attribute its cost to), but it is a call
        that happened, so it stays visible to the event-level statistics
        (:meth:`event_percentile`, :attr:`events`).
        """
        if operations < 0:
            raise ValueError("batch size cannot be negative")
        self._record_event(total_cost, operations)

    def _record_event(self, cost: int, weight: int) -> None:
        if cost < 0:
            raise ValueError("operation cost cannot be negative")
        self._costs.append(cost)
        self._weights.append(weight)
        self._operations += weight
        self._total += cost
        if cost > self._max:
            self._max = cost

    def record_many(self, costs: Iterable[int]) -> None:
        for cost in costs:
            self.record(cost)

    def record_query(self, kind: str, items: int = 1) -> None:
        """Record one read operation of the given kind.

        Reads never move elements, so they live outside the element-move
        statistics entirely: a query contributes to :attr:`queries` and
        :meth:`query_statistics` but not to :attr:`operations`,
        :attr:`total_cost` or any window/percentile view.  ``items`` is the
        read's *touch count* — 1 for a point lookup/select, the number of
        elements streamed for a range, the count returned by a count-range —
        which is what the read-throughput reports aggregate.
        """
        if items < 0:
            raise ValueError("query item count cannot be negative")
        self._query_counts[kind] = self._query_counts.get(kind, 0) + 1
        self._query_items[kind] = self._query_items.get(kind, 0) + items

    def record_restructures(self, kind: str, events: int, moves: int) -> None:
        """Record ``events`` structural events of one kind (shard splits,
        merges, …) that moved ``moves`` elements in all.

        Restructuring moves are already part of the operation costs that
        triggered them — this records a *breakdown* by event kind, not
        additional cost, so reports can separate steady-state traffic from
        structural maintenance (the sharding engine's splits and merges).
        """
        if events < 0 or moves < 0:
            raise ValueError("restructure counts cannot be negative")
        self._restructures[kind] = self._restructures.get(kind, 0) + events
        self._restructure_moves[kind] = (
            self._restructure_moves.get(kind, 0) + moves
        )

    # ------------------------------------------------------------------
    # Basic statistics
    # ------------------------------------------------------------------
    @property
    def operations(self) -> int:
        """Number of logical operations recorded (batches count their size)."""
        return self._operations

    @property
    def events(self) -> int:
        """Number of recorded events (a whole batch is one event)."""
        return len(self._costs)

    @property
    def total_cost(self) -> int:
        return self._total

    @property
    def worst_case(self) -> int:
        """Maximum cost of a single event (operation, or whole batch)."""
        return self._max

    @property
    def amortized(self) -> float:
        """Average cost per logical operation over the whole run."""
        if not self._operations:
            return 0.0
        return self._total / self._operations

    # ------------------------------------------------------------------
    # Batch statistics
    # ------------------------------------------------------------------
    @property
    def batches(self) -> int:
        """Number of recorded multi-operation batch events."""
        return sum(1 for weight in self._weights if weight > 1)

    def batch_statistics(self) -> dict[str, float]:
        """Per-batch cost statistics (empty dict when no batch was recorded)."""
        pairs = [
            (cost, weight)
            for cost, weight in zip(self._costs, self._weights)
            if weight > 1
        ]
        if not pairs:
            return {}
        total = sum(cost for cost, _ in pairs)
        elements = sum(weight for _, weight in pairs)
        return {
            "batches": float(len(pairs)),
            "mean_batch_size": elements / len(pairs),
            "amortized_per_batch": total / len(pairs),
            "amortized_per_element": total / elements,
            "worst_batch": float(max(cost for cost, _ in pairs)),
        }

    # ------------------------------------------------------------------
    # Query (read) statistics
    # ------------------------------------------------------------------
    @property
    def queries(self) -> int:
        """Total read operations recorded (all kinds)."""
        return sum(self._query_counts.values())

    @property
    def query_items(self) -> int:
        """Total elements touched by the recorded reads."""
        return sum(self._query_items.values())

    def query_statistics(self) -> dict[str, float]:
        """Per-kind read statistics (empty dict when no query was recorded)."""
        if not self._query_counts:
            return {}
        stats: dict[str, float] = {"queries": float(self.queries)}
        for kind in sorted(self._query_counts):
            stats[f"{kind}_queries"] = float(self._query_counts[kind])
            stats[f"{kind}_items"] = float(self._query_items[kind])
        return stats

    # ------------------------------------------------------------------
    # Structural (restructure) statistics
    # ------------------------------------------------------------------
    @property
    def restructures(self) -> int:
        """Total structural events recorded (splits + merges + …)."""
        return sum(self._restructures.values())

    @property
    def restructure_moves(self) -> int:
        """Total element moves attributed to structural events."""
        return sum(self._restructure_moves.values())

    def structure_statistics(self) -> dict[str, float]:
        """Per-kind structural statistics (empty dict when none recorded)."""
        stats: dict[str, float] = {}
        for kind in sorted(self._restructures):
            stats[f"{kind}s"] = float(self._restructures[kind])
            stats[f"{kind}_moves"] = float(self._restructure_moves[kind])
        return stats

    @property
    def costs(self) -> Sequence[int]:
        return tuple(self._costs)

    def prefix_amortized(self) -> list[float]:
        """Average cost on every prefix (the paper's amortized notion)."""
        averages: list[float] = []
        running = 0
        for index, cost in enumerate(self._costs, start=1):
            running += cost
            averages.append(running / index)
        return averages

    def max_prefix_amortized(self) -> float:
        """Largest prefix average — bounds the amortized cost of the run."""
        prefix = self.prefix_amortized()
        return max(prefix) if prefix else 0.0

    # ------------------------------------------------------------------
    # Light amortization
    # ------------------------------------------------------------------
    def window_statistics(self, window: int) -> WindowStatistics:
        """Statistics of the most expensive contiguous window of length ``window``.

        The lightly-amortized guarantee of the paper says the total cost on
        any window of ``T`` operations is ``O(TC + n)``; this method returns
        the empirical worst window so the bound can be checked.
        """
        if window < 1:
            raise ValueError("window must be positive")
        costs = self._costs
        if not costs:
            return WindowStatistics(window=window, max_total=0, max_start=0, mean_total=0.0)
        window = min(window, len(costs))
        current = sum(costs[:window])
        best = current
        best_start = 0
        totals_sum = current
        count = 1
        for start in range(1, len(costs) - window + 1):
            current += costs[start + window - 1] - costs[start - 1]
            totals_sum += current
            count += 1
            if current > best:
                best = current
                best_start = start
        return WindowStatistics(
            window=window,
            max_total=best,
            max_start=best_start,
            mean_total=totals_sum / count,
        )

    def lightly_amortized_bound(self, window: int, slack: int) -> float:
        """Empirical lightly-amortized constant.

        Returns the smallest ``C`` such that the worst window of length
        ``window`` has total cost ``≤ C * window + slack`` (``slack`` plays
        the role of the additive ``O(n)`` term).
        """
        stats = self.window_statistics(window)
        effective = max(stats.max_total - slack, 0)
        return effective / stats.window if stats.window else 0.0

    # ------------------------------------------------------------------
    # Distributional statistics
    # ------------------------------------------------------------------
    @staticmethod
    def _weighted_nearest_rank(
        pairs: list[tuple[float, int]], fraction: float
    ) -> float:
        """Nearest-rank percentile over a weighted multiset of values.

        ``pairs`` is ``(value, weight)``; the percentile is taken over the
        expanded multiset in which each value appears ``weight`` times —
        without materializing the expansion.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        if not pairs:
            return 0.0
        pairs = sorted(pairs)
        total = sum(weight for _, weight in pairs)
        target = max(1, math.ceil(fraction * total))
        cumulative = 0
        for value, weight in pairs:
            cumulative += weight
            if cumulative >= target:
                return value
        return pairs[-1][0]

    def percentile(self, fraction: float) -> float:
        """Per-operation cost percentile (``fraction`` in [0, 1], nearest-rank).

        Weight-aware: a batch event of weight ``w`` and total cost ``c``
        contributes ``w`` operations of cost ``c / w``, so batched and
        singleton runs report percentiles on the same per-operation scale
        (the scale of :attr:`amortized`).  For singleton-only runs this is
        exactly the historical event percentile.  See
        :meth:`event_percentile` for the whole-event view.
        """
        pairs = [
            (cost / weight, weight)
            for cost, weight in zip(self._costs, self._weights)
            if weight
        ]
        return self._weighted_nearest_rank(pairs, fraction)

    def event_percentile(self, fraction: float) -> int:
        """Cost percentile over recorded *events* (a whole batch = one sample)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        if not self._costs:
            return 0
        ordered = sorted(self._costs)
        index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
        return ordered[index]

    def tail_fraction(self, threshold: int) -> float:
        """Fraction of logical operations whose per-op cost is ≥ ``threshold``.

        Weight-aware, like :meth:`percentile`: a batch's operations each
        carry the batch's per-operation cost ``c / w``.
        """
        if not self._operations:
            return 0.0
        heavy = sum(
            weight
            for cost, weight in zip(self._costs, self._weights)
            if weight and cost / weight >= threshold
        )
        return heavy / self._operations

    def event_tail_fraction(self, threshold: int) -> float:
        """Fraction of recorded events whose total cost is ≥ ``threshold``."""
        if not self._costs:
            return 0.0
        heavy = sum(1 for cost in self._costs if cost >= threshold)
        return heavy / len(self._costs)

    # ------------------------------------------------------------------
    # Summarizing
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """Dictionary summary used by the benchmark report tables."""
        data = {
            "operations": float(self.operations),
            "total_cost": float(self.total_cost),
            "amortized": self.amortized,
            "worst_case": float(self.worst_case),
            "p50": float(self.percentile(0.50)),
            "p99": float(self.percentile(0.99)),
            "p999": float(self.percentile(0.999)),
        }
        data.update(self.batch_statistics())
        data.update(self.structure_statistics())
        data.update(self.query_statistics())
        return data

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"CostTracker(operations={self.operations}, amortized={self.amortized:.2f}, "
            f"worst_case={self.worst_case})"
        )
