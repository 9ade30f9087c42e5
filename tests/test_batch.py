"""Tests for the batch execution API (`insert_batch` / `delete_batch`).

Covers the validated semantics of the interface layer (pre-batch ranks,
deterministic application order, whole-batch validation), the optimized
merged implementations of the dense-array algorithms, and the batched
runner path — including the satellite cases: empty batches, batches
hitting capacity exactly, duplicate ranks, batches on full/empty
structures, and equivalence with the singleton loop for every algorithm.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.algorithms import ClassicalPMA, NaiveLabeler
from repro.core import ShardedLabeler
from repro.core.exceptions import BatchError
from repro.core.validation import check_labeler
from repro.analysis import run_workload
from repro.workloads import RandomWorkload
from repro.workloads.bulk import BulkLoadWorkload


def filled(factory, keys):
    """A labeler pre-loaded with ``keys`` (in order) via singleton inserts."""
    labeler = factory(64)
    for index, key in enumerate(keys):
        labeler.insert(index + 1, key)
    return labeler


class TestInsertBatchSemantics:
    def test_pre_batch_ranks(self):
        labeler = filled(NaiveLabeler, ["a", "b", "c"])
        labeler.insert_batch([(1, "x"), (3, "y")])
        assert labeler.elements() == ["x", "a", "b", "y", "c"]

    def test_duplicate_ranks_keep_given_order(self):
        labeler = filled(NaiveLabeler, ["a", "b"])
        labeler.insert_batch([(2, "x"), (2, "y"), (2, "z")])
        assert labeler.elements() == ["a", "x", "y", "z", "b"]

    def test_unsorted_input_is_applied_deterministically(self):
        labeler = filled(NaiveLabeler, ["a", "b", "c"])
        labeler.insert_batch([(4, "w"), (1, "x"), (2, "y")])
        assert labeler.elements() == ["x", "a", "y", "b", "c", "w"]

    def test_empty_batch_is_a_noop(self):
        labeler = filled(NaiveLabeler, ["a"])
        result = labeler.insert_batch([])
        assert result.count == 0
        assert result.cost == 0
        assert labeler.elements() == ["a"]

    def test_batch_on_empty_structure(self):
        labeler = NaiveLabeler(8)
        labeler.insert_batch([(1, "a"), (1, "b"), (1, "c")])
        assert labeler.elements() == ["a", "b", "c"]

    def test_batch_hits_capacity_exactly(self):
        labeler = NaiveLabeler(6)
        labeler.insert(1, "a")
        labeler.insert_batch([(1, e) for e in "bcdef"])
        assert labeler.is_full
        assert labeler.size == 6

    def test_batch_past_capacity_rejected_without_side_effects(self):
        small = NaiveLabeler(3)
        small.insert(1, "a")
        with pytest.raises(BatchError):
            small.insert_batch([(1, "x"), (1, "y"), (1, "z")])
        assert small.elements() == ["a"]

    def test_out_of_range_rank_rejected_without_side_effects(self):
        labeler = filled(NaiveLabeler, ["a", "b"])
        with pytest.raises(BatchError):
            labeler.insert_batch([(1, "x"), (4, "y")])
        with pytest.raises(BatchError):
            labeler.insert_batch([(0, "x")])
        assert labeler.elements() == ["a", "b"]

    def test_insert_batch_on_full_structure_rejected(self):
        labeler = NaiveLabeler(2)
        labeler.insert_batch([(1, "a"), (1, "b")])
        assert labeler.is_full
        with pytest.raises(BatchError):
            labeler.insert_batch([(1, "c")])

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ClassicalPMA(64),
            lambda: ShardedLabeler(lambda cap: ClassicalPMA(cap), shard_capacity=16),
        ],
        ids=["classical", "sharded"],
    )
    def test_nan_rank_inside_a_sorted_batch_rejected(self, factory):
        """A NaN rank compares false with everything, so the sort can leave
        it between two in-range ranks, where the first/last range check
        does not see it (regression: it was accepted and landed anywhere)."""
        labeler = factory()
        labeler.insert_batch([(1, float(key)) for key in range(20)])
        before = (labeler.elements(), labeler.slots())
        batch = [(1, -1.0), (float("nan"), 5.5), (3, 3.5)]
        batch += [(21, 100.0 + index) for index in range(16)]
        with pytest.raises(BatchError):
            labeler.insert_batch(batch)
        assert (labeler.elements(), labeler.slots()) == before


class TestDeleteBatchSemantics:
    def test_pre_batch_ranks(self):
        labeler = filled(NaiveLabeler, ["a", "b", "c", "d"])
        labeler.delete_batch([1, 3])
        assert labeler.elements() == ["b", "d"]

    def test_order_of_ranks_is_irrelevant(self):
        first = filled(NaiveLabeler, list("abcdef"))
        second = filled(NaiveLabeler, list("abcdef"))
        first.delete_batch([2, 5, 1])
        second.delete_batch([5, 1, 2])
        assert first.elements() == second.elements() == ["c", "d", "f"]

    def test_duplicate_ranks_rejected_without_side_effects(self):
        labeler = filled(NaiveLabeler, ["a", "b", "c"])
        with pytest.raises(BatchError):
            labeler.delete_batch([2, 2])
        assert labeler.elements() == ["a", "b", "c"]

    def test_out_of_range_rank_rejected(self):
        labeler = filled(NaiveLabeler, ["a", "b"])
        with pytest.raises(BatchError):
            labeler.delete_batch([3])
        with pytest.raises(BatchError):
            labeler.delete_batch([0])
        assert labeler.elements() == ["a", "b"]

    def test_empty_batch_is_a_noop(self):
        labeler = filled(NaiveLabeler, ["a"])
        assert labeler.delete_batch([]).count == 0
        assert labeler.elements() == ["a"]

    def test_drain_full_structure(self):
        labeler = NaiveLabeler(4)
        labeler.insert_batch([(1, e) for e in "abcd"])
        labeler.delete_batch([1, 2, 3, 4])
        assert labeler.is_empty


class TestBatchResult:
    def test_cost_and_amortized(self):
        labeler = NaiveLabeler(16)
        result = labeler.insert_batch([(1, e) for e in "abcdefgh"])
        assert result.count == 8
        assert result.cost == sum(r.cost for r in result.results)
        assert result.amortized == result.cost / 8
        assert all(move.cost in (0, 1) for move in result.moves)

    def test_merged_path_reports_all_moves(self):
        labeler = ClassicalPMA(64)
        for index in range(20):
            labeler.insert(index + 1, index * 10)
        before = {e: labeler.slot_of(e) for e in labeler.elements()}
        result = labeler.insert_batch(
            [(5, 31), (5, 32), (5, 33), (9, 71), (9, 72), (12, 101), (12, 102), (1, -1)]
        )
        moved = set(result.moved_elements())
        for element, old_slot in before.items():
            if labeler.slot_of(element) != old_slot:
                assert element in moved
        check_labeler(labeler)


def _key_between(reference, rank):
    """A Fraction strictly between the keys at ranks ``rank - 1`` and ``rank``."""
    lower = reference[rank - 2] if rank >= 2 else None
    upper = reference[rank - 1] if rank - 1 < len(reference) else None
    if lower is None and upper is None:
        return Fraction(0)
    if lower is None:
        return upper - 1
    if upper is None:
        return lower + 1
    return (lower + upper) / 2


@pytest.mark.parametrize("batch_len", [1, 3, 16, 40])
def test_insert_batch_equivalent_to_singleton_loop(algorithm_factory, batch_len):
    """For every registered algorithm, a batch must equal the singleton loop."""
    batched = algorithm_factory(96)
    looped = algorithm_factory(96)
    reference = [Fraction(index) for index in range(30)]
    for index, key in enumerate(reference):
        batched.insert(index + 1, key)
        looped.insert(index + 1, key)
    ranks = sorted(([1, 5, 5, 12, 12, 12, 20, 31] * 5)[:batch_len])
    items = []
    for offset, rank in enumerate(ranks):
        key = _key_between(reference, rank + offset)
        reference.insert(rank + offset - 1, key)
        items.append((rank, key))
    result = batched.insert_batch(items)
    assert result.count == batch_len
    for offset, (rank, element) in enumerate(items):
        looped.insert(rank + offset, element)
    assert list(batched.elements()) == list(looped.elements()) == reference
    check_labeler(batched, expected=reference)


@pytest.mark.parametrize("ranks", [[1], [1, 2, 3], [5, 1, 9, 3, 7]])
def test_delete_batch_equivalent_to_singleton_loop(algorithm_factory, ranks):
    batched = algorithm_factory(96)
    looped = algorithm_factory(96)
    for index in range(20):
        batched.insert(index + 1, Fraction(index))
        looped.insert(index + 1, Fraction(index))
    batched.delete_batch(ranks)
    for rank in sorted(ranks, reverse=True):
        looped.delete(rank)
    assert list(batched.elements()) == list(looped.elements())
    check_labeler(batched)


class TestWorkloadBatches:
    def test_iter_batches_concatenates_to_the_stream(self):
        workload = RandomWorkload(200, 150, delete_fraction=0.3, seed=9)
        stream = list(workload)
        batches = list(workload.iter_batches(16))
        assert [op for batch in batches for op in batch] == stream
        for batch in batches:
            assert len(batch) <= 16
            assert len({op.kind for op in batch}) == 1

    def test_bulk_workload_emits_run_aligned_batches(self):
        workload = BulkLoadWorkload(256, batch_size=32, seed=4)
        batches = list(workload.iter_batches(64))
        assert [op for batch in batches for op in batch] == list(workload)
        # Natural runs are 32 long, so no batch may straddle two runs.
        assert all(len(batch) == 32 for batch in batches)

    def test_iter_batches_rejects_bad_size(self):
        with pytest.raises(ValueError):
            list(BulkLoadWorkload(8).iter_batches(0))
        with pytest.raises(ValueError):
            list(RandomWorkload(8, 8).iter_batches(0))


class TestBatchedRunner:
    @pytest.mark.parametrize(
        "workload_factory",
        [
            lambda: RandomWorkload(180, 150, seed=5),
            lambda: RandomWorkload(220, 150, delete_fraction=0.35, seed=6),
            lambda: BulkLoadWorkload(240, batch_size=32, seed=7),
        ],
    )
    def test_batched_run_matches_singleton_run(self, workload_factory):
        singleton = run_workload(
            ClassicalPMA(workload_factory().capacity),
            workload_factory(),
            validate_every=50,
        )
        batched = run_workload(
            ClassicalPMA(workload_factory().capacity),
            workload_factory(),
            batch_size=32,
            validate_every=50,
        )
        assert batched.final_keys == singleton.final_keys
        assert list(batched.labeler.elements()) == list(singleton.labeler.elements())
        assert batched.tracker.operations == singleton.tracker.operations

    def test_batch_statistics_are_reported(self):
        result = run_workload(
            ClassicalPMA(256), BulkLoadWorkload(256, batch_size=32, seed=8),
            batch_size=32,
        )
        stats = result.tracker.batch_statistics()
        assert stats["batches"] == result.tracker.batches
        assert stats["mean_batch_size"] == pytest.approx(32.0)
        assert stats["amortized_per_element"] <= stats["amortized_per_batch"]
        assert result.summary()["batch_size"] == 32.0

    def test_stop_after_truncates_mid_batch(self):
        result = run_workload(
            ClassicalPMA(256), BulkLoadWorkload(256, batch_size=32, seed=8),
            batch_size=32, stop_after=40,
        )
        assert result.tracker.operations == 40
        assert len(result.final_keys) == 40
