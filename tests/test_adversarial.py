"""Tests for the adversarial workloads.

Covers the tail layer end to end: every adversarial workload is
seeded-deterministic and structurally valid, runs through ``run_workload``
in singleton and batched mode against every registered algorithm plus the
sharded and durable layers, and the cliff-chaser actually concentrates its
insertions (the property that makes it adversarial).
"""

from __future__ import annotations

import pytest

from repro.algorithms import ClassicalPMA, DeamortizedPMA
from repro.analysis.runner import run_workload
from repro.core.sharded import ShardedLabeler
from repro.workloads import (
    ADVERSARIAL_WORKLOADS,
    CompactionStormWorkload,
    DriftingZipfWorkload,
    FlashCrowdWorkload,
    RebalanceCliffWorkload,
    SortedRandomInterleaveWorkload,
)

from tests.conftest import ALGORITHM_FACTORIES


@pytest.mark.parametrize("name", sorted(ADVERSARIAL_WORKLOADS))
class TestAdversarialDeterminism:
    def test_same_seed_same_stream(self, name):
        factory = ADVERSARIAL_WORKLOADS[name]
        first = [(op.kind, op.rank) for op in factory(300, 42)]
        second = [(op.kind, op.rank) for op in factory(300, 42)]
        assert first == second
        assert len(first) == 300

    def test_different_seeds_differ(self, name):
        factory = ADVERSARIAL_WORKLOADS[name]
        first = [(op.kind, op.rank) for op in factory(300, 1)]
        second = [(op.kind, op.rank) for op in factory(300, 2)]
        assert first != second

    def test_runs_on_every_algorithm(self, name, algorithm_name):
        factory = ADVERSARIAL_WORKLOADS[name]
        labeler = ALGORITHM_FACTORIES[algorithm_name](128)
        result = run_workload(labeler, factory(128, 5), validate_every=64)
        assert result.tracker.operations == 128
        assert list(labeler.elements()) == result.final_keys

    def test_runs_sharded_singleton_and_batched(self, name):
        factory = ADVERSARIAL_WORKLOADS[name]
        singleton = run_workload(
            ShardedLabeler(lambda c: ClassicalPMA(c), shard_capacity=32),
            factory(256, 5),
            validate_every=128,
        )
        batched = run_workload(
            ShardedLabeler(lambda c: ClassicalPMA(c), shard_capacity=32),
            factory(256, 5),
            batch_size=16,
            validate_every=128,
        )
        # Both execution modes must land on the same final sequence and
        # logical-operation count; only the cost accounting differs.
        assert singleton.final_keys == batched.final_keys
        assert singleton.tracker.operations == batched.tracker.operations

    def test_runs_durable_and_replays(self, name, tmp_path):
        from repro.analysis.runner import replay_run

        factory = ADVERSARIAL_WORKLOADS[name]
        original = run_workload(
            DeamortizedPMA(128),
            factory(128, 5),
            durable_dir=tmp_path,
            durable_sync="never",
        )
        replayed = replay_run(tmp_path, DeamortizedPMA(128))
        assert replayed.final_keys == original.final_keys


class TestCliffChaserShape:
    def test_insert_only_and_concentrated(self):
        workload = RebalanceCliffWorkload(512, seed=3)
        buckets = [0] * 16
        size = 0
        post_warmup = 0
        for operation in workload:
            assert operation.is_insert
            if size >= 128:  # past warmup
                bucket = min(15, operation.rank * 16 // (size + 2))
                buckets[bucket] += 1
                post_warmup += 1
            size += 1
        # Feedback-driven hammering: the hottest window absorbs far more
        # than a uniform share (1/16) of the post-warmup insertions.
        assert max(buckets) > post_warmup // 4

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            RebalanceCliffWorkload(10, buckets=0)
        with pytest.raises(ValueError):
            RebalanceCliffWorkload(10, warmup_fraction=1.0)
        with pytest.raises(ValueError):
            RebalanceCliffWorkload(10, probe_every=0)
        with pytest.raises(ValueError):
            RebalanceCliffWorkload(10, jitter=-1)
        with pytest.raises(ValueError):
            DriftingZipfWorkload(10, skew_start=0.0)
        with pytest.raises(ValueError):
            DriftingZipfWorkload(10, drift_cycles=0.0)
        with pytest.raises(ValueError):
            FlashCrowdWorkload(10, burst_length=0)
        with pytest.raises(ValueError):
            FlashCrowdWorkload(10, burst_every=0)
        with pytest.raises(ValueError):
            CompactionStormWorkload(10, grow_fraction=1.0)
        with pytest.raises(ValueError):
            CompactionStormWorkload(10, region_width=0.0)
        with pytest.raises(ValueError):
            SortedRandomInterleaveWorkload(10, run_length=0)


class TestFlashCrowdShape:
    def test_bursts_are_sorted_runs(self):
        workload = FlashCrowdWorkload(300, burst_length=16, burst_every=64, seed=4)
        ranks = [op.rank for op in workload]
        # Find at least one run of 16 strictly consecutive ascending ranks
        # (the sorted ingest burst).
        runs = 0
        streak = 1
        for previous, current in zip(ranks, ranks[1:]):
            if current == previous + 1:
                streak += 1
                if streak == 16:
                    runs += 1
                    streak = 1
            else:
                streak = 1
        assert runs >= 2


class TestCompactionStormShape:
    def test_contains_delete_storms(self):
        workload = CompactionStormWorkload(600, storm_length=64, seed=5)
        kinds = [op.kind for op in workload]
        deletes = kinds.count("delete")
        assert deletes >= 64
        # Deletions arrive in contiguous storms, not interleaved churn.
        longest = 0
        current = 0
        for kind in kinds:
            current = current + 1 if kind == "delete" else 0
            longest = max(longest, current)
        assert longest >= 32
