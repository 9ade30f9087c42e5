"""Tests for the cost tracker: amortized, worst-case and windowed statistics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import CostTracker


class TestBasicStatistics:
    def test_empty_tracker(self):
        tracker = CostTracker()
        assert tracker.operations == 0
        assert tracker.amortized == 0.0
        assert tracker.worst_case == 0
        assert tracker.max_prefix_amortized() == 0.0

    def test_record_and_summaries(self):
        tracker = CostTracker()
        tracker.record_many([1, 5, 0, 2])
        assert tracker.operations == 4
        assert tracker.total_cost == 8
        assert tracker.amortized == 2.0
        assert tracker.worst_case == 5

    def test_negative_cost_rejected(self):
        tracker = CostTracker()
        with pytest.raises(ValueError):
            tracker.record(-1)

    def test_prefix_amortized_matches_definition(self):
        tracker = CostTracker()
        tracker.record_many([4, 0, 2])
        assert tracker.prefix_amortized() == [4.0, 2.0, 2.0]
        assert tracker.max_prefix_amortized() == 4.0

    def test_percentiles_and_tail(self):
        tracker = CostTracker()
        tracker.record_many([1] * 99 + [100])
        assert tracker.percentile(0.5) == 1
        assert tracker.percentile(1.0) == 100
        assert tracker.tail_fraction(100) == pytest.approx(0.01)


class TestWindowStatistics:
    def test_worst_window_found(self):
        tracker = CostTracker()
        tracker.record_many([0, 0, 10, 10, 0, 0])
        stats = tracker.window_statistics(2)
        assert stats.max_total == 20
        assert stats.max_start == 2
        assert stats.max_average == 10.0

    def test_window_larger_than_run_is_clamped(self):
        tracker = CostTracker()
        tracker.record_many([1, 2])
        stats = tracker.window_statistics(10)
        assert stats.window == 2
        assert stats.max_total == 3

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            CostTracker().window_statistics(0)

    def test_lightly_amortized_bound_subtracts_slack(self):
        tracker = CostTracker()
        tracker.record_many([0] * 10 + [50] + [0] * 10)
        # A window of 5 catching the spike has total 50; with slack 50 the
        # residual per-operation constant is zero.
        assert tracker.lightly_amortized_bound(5, slack=50) == 0.0
        assert tracker.lightly_amortized_bound(5, slack=0) == pytest.approx(10.0)

    @settings(max_examples=40, deadline=None)
    @given(costs=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=60),
           window=st.integers(min_value=1, max_value=10))
    def test_window_statistics_match_bruteforce(self, costs, window):
        tracker = CostTracker()
        tracker.record_many(costs)
        stats = tracker.window_statistics(window)
        effective = min(window, len(costs))
        brute = max(
            sum(costs[start:start + effective])
            for start in range(len(costs) - effective + 1)
        )
        assert stats.max_total == brute


class TestSummary:
    def test_summary_keys(self):
        tracker = CostTracker()
        tracker.record_many([1, 2, 3])
        summary = tracker.summary()
        assert set(summary) == {
            "operations",
            "total_cost",
            "amortized",
            "worst_case",
            "p50",
            "p99",
            "p999",
        }


class TestWeightedPercentiles:
    """The batch-blind percentile bugfix: per-op vs per-event views."""

    def test_batched_run_matches_singleton_per_op_percentiles(self):
        # The same 100 logical operations recorded two ways must agree on
        # the per-operation percentile scale (the scale of `amortized`).
        singleton = CostTracker()
        for cost in [1] * 99 + [100]:
            singleton.record(cost)
        batched = CostTracker()
        batched.record_batch(99, 99)  # 99 ops of per-op cost 1
        batched.record(100)
        assert batched.percentile(0.5) == pytest.approx(singleton.percentile(0.5))
        assert batched.percentile(0.99) == pytest.approx(
            singleton.percentile(0.99)
        )
        assert batched.tail_fraction(100) == pytest.approx(
            singleton.tail_fraction(100)
        )

    def test_event_view_still_sees_whole_batches(self):
        tracker = CostTracker()
        tracker.record_batch(1000, 100)  # per-op cost 10
        tracker.record(1)
        # Per-op view: 100 ops of cost 10 and one of cost 1.
        assert tracker.percentile(0.5) == pytest.approx(10.0)
        # Event view: two events with costs {1, 1000}.
        assert tracker.event_percentile(0.5) == 1
        assert tracker.event_percentile(1.0) == 1000
        assert tracker.event_tail_fraction(1000) == pytest.approx(0.5)

    def test_percentile_fraction_validated(self):
        tracker = CostTracker()
        tracker.record(1)
        with pytest.raises(ValueError):
            tracker.percentile(1.5)
        with pytest.raises(ValueError):
            tracker.event_percentile(-0.1)

    @settings(max_examples=40, deadline=None)
    @given(
        batches=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=1, max_value=8),
            ),
            min_size=1,
            max_size=30,
        ),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_weighted_percentile_matches_expanded_multiset(
        self, batches, fraction
    ):
        import math

        tracker = CostTracker()
        expanded: list[float] = []
        for cost, weight in batches:
            tracker.record_batch(cost * weight, weight)
            expanded.extend([float(cost)] * weight)
        expanded.sort()
        index = min(
            len(expanded) - 1,
            max(0, math.ceil(fraction * len(expanded)) - 1),
        )
        assert tracker.percentile(fraction) == pytest.approx(expanded[index])


class TestRestructureStatistics:
    def test_restructures_are_a_breakdown_not_extra_cost(self):
        tracker = CostTracker()
        tracker.record_many([2, 30, 2])
        tracker.record_restructures("split", 2, 40)
        tracker.record_restructures("merge", 1, 7)
        assert tracker.total_cost == 34  # unchanged by the breakdown
        assert tracker.restructures == 3
        assert tracker.restructure_moves == 47
        stats = tracker.structure_statistics()
        assert stats == {
            "merges": 1.0,
            "merge_moves": 7.0,
            "splits": 2.0,
            "split_moves": 40.0,
        }
        assert set(stats) < set(tracker.summary())

    def test_negative_moves_rejected(self):
        tracker = CostTracker()
        with pytest.raises(ValueError):
            tracker.record_restructures("split", 1, -1)
        with pytest.raises(ValueError):
            tracker.record_restructures("split", -1, 0)

    def test_empty_structure_statistics(self):
        assert CostTracker().structure_statistics() == {}
