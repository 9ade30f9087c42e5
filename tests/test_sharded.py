"""Unit tests for the sharded unbounded-capacity labeling engine."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.algorithms import ClassicalPMA, NaiveLabeler, make_sharded_labeler
from repro.core import ShardedLabeler
from repro.core.exceptions import BatchError, LabelerError, RankError
from repro.core.validation import check_labeler, check_moves_consistent


def classical_factory(capacity):
    return ClassicalPMA(capacity)


def make(shard_capacity=16, **kwargs):
    return ShardedLabeler(classical_factory, shard_capacity=shard_capacity, **kwargs)


class TestConstruction:
    def test_shard_capacity_floor(self):
        with pytest.raises(ValueError):
            ShardedLabeler(classical_factory, shard_capacity=4)

    def test_split_density_bounds(self):
        with pytest.raises(ValueError):
            make(split_density=0.0)
        with pytest.raises(ValueError):
            make(split_density=1.5)

    def test_merge_floor_must_stay_below_half_threshold(self):
        with pytest.raises(ValueError):
            make(shard_capacity=16, split_density=0.5, merge_density=0.45)

    def test_default_factory_helper(self):
        labeler = make_sharded_labeler(shard_capacity=16)
        labeler.insert(1, Fraction(1))
        assert labeler.elements() == [Fraction(1)]
        assert isinstance(labeler.shards[0], ClassicalPMA)

    def test_starts_with_one_empty_shard(self):
        labeler = make()
        assert labeler.shard_count == 1
        assert labeler.is_empty
        assert labeler.num_slots == labeler.shards[0].num_slots

    def test_factory_with_varying_slot_counts_is_refused(self):
        """Slot offsets are ``index × width``: a factory whose shards differ
        in slot count is refused when it builds the first odd shard."""
        widths = iter([20, 20, 24])
        labeler = ShardedLabeler(
            lambda cap: ClassicalPMA(cap, next(widths)), shard_capacity=16
        )
        labeler.bulk_load([0])
        with pytest.raises(LabelerError):
            labeler.insert_batch([(2, index) for index in range(1, 20)])


class TestUnboundedGrowth:
    def test_grows_far_past_one_shard_capacity(self):
        labeler = make(shard_capacity=16)
        total = 20 * 16
        for index in range(total):
            labeler.insert(index + 1, index)
        assert labeler.size == total
        assert labeler.elements() == list(range(total))
        assert labeler.splits >= 3
        assert labeler.capacity > total  # always headroom, never full
        assert not labeler.is_full
        check_labeler(labeler, expected=list(range(total)))

    def test_every_shard_respects_the_density_ceiling(self):
        labeler = make(shard_capacity=16)
        for index in range(300):
            labeler.insert(1, 300 - index)  # adversarial front inserts
        assert max(labeler.shard_sizes()) <= labeler.split_threshold
        check_labeler(labeler, expected=list(range(1, 301)))

    def test_rank_validation_still_applies(self):
        labeler = make()
        with pytest.raises(RankError):
            labeler.insert(2, "x")
        with pytest.raises(RankError):
            labeler.delete(1)


class TestMergePolicy:
    def drained(self, shard_capacity=16):
        labeler = make(shard_capacity=shard_capacity)
        labeler.bulk_load(list(range(12 * shard_capacity)))
        while labeler.size > shard_capacity // 2:
            labeler.delete(1 + (labeler.size // 3))
        return labeler

    def test_deletions_merge_underflowing_shards(self):
        labeler = self.drained()
        assert labeler.merges >= 1
        assert labeler.shard_count < 12
        if labeler.shard_count > 1:
            assert min(labeler.shard_sizes()) >= labeler.merge_floor
        check_labeler(labeler)

    def test_drain_to_empty_leaves_one_shard(self):
        labeler = make()
        for index in range(60):
            labeler.insert(index + 1, index)
        while labeler.size:
            labeler.delete(labeler.size)
        assert labeler.shard_count == 1
        assert labeler.is_empty
        check_labeler(labeler, expected=[])


class TestRoutingAndLabels:
    def filled(self):
        labeler = make(shard_capacity=16)
        for index in range(200):
            labeler.insert(index + 1, index * 10)
        return labeler

    def test_rank_and_slot_lookups(self):
        labeler = self.filled()
        slots = labeler.slots()
        for rank, element in enumerate(labeler.elements(), start=1):
            assert labeler.rank_of(element) == rank
            assert slots[labeler.slot_of(element)] == element
        with pytest.raises(KeyError):
            labeler.slot_of("missing")
        with pytest.raises(KeyError):
            labeler.rank_of("missing")

    def test_composed_labels_are_monotone_and_recoverable(self):
        labeler = self.filled()
        labels = labeler.labels()
        shift = labeler.label_shift
        ordered = [labels[element] for element in labeler.elements()]
        assert ordered == sorted(ordered)
        assert len(set(ordered)) == len(ordered)
        # High bits name the shard, low bits the local slot.
        for index, shard in enumerate(labeler.shards):
            for element, local in shard.labels().items():
                assert labels[element] == (index << shift) | local

    def test_slots_view_is_the_shard_concatenation(self):
        labeler = self.filled()
        flat = []
        for shard in labeler.shards:
            flat.extend(shard.slots())
        assert list(labeler.slots()) == flat
        assert labeler.num_slots == len(flat)


class TestMoveAccounting:
    def test_split_moves_are_reported(self):
        labeler = make(shard_capacity=16)
        for index in range(labeler.split_threshold):
            labeler.insert(index + 1, index)
        before = list(labeler.slots())
        result = labeler.insert(1, -1)  # forces the split
        after = list(labeler.slots())
        assert labeler.splits == 1
        check_moves_consistent(before, after, result.moved_elements())
        assert result.cost >= labeler.split_threshold  # whole shard rewritten

    def test_restructure_counts_match_counters(self):
        labeler = make(shard_capacity=16)
        for index in range(200):
            labeler.insert(index + 1, index)
        while labeler.size > 20:
            labeler.delete(1)
        counts = labeler.restructure_counts()
        assert set(counts) == {"split", "merge", "borrow", "rewrite"}
        assert counts["split"][0] == labeler.splits > 0
        assert counts["merge"][0] == labeler.merges > 0
        assert counts["borrow"][0] == labeler.borrows
        assert counts["rewrite"][0] == labeler.rewrites
        assert labeler.restructure_moves == sum(
            moved for _, moved in counts.values()
        )
        stats = labeler.shard_statistics()
        assert stats["splits"] == labeler.splits
        assert stats["merges"] == labeler.merges
        assert stats["borrows"] == labeler.borrows
        assert stats["rewrites"] == labeler.rewrites


class TestBoundedRecords:
    def test_containers_stay_bounded_under_restructure_churn(self):
        """Bounded memory: at a steady key count, after more restructures
        than shards, every container of the engine and its directory holds
        at most one entry per shard (plus one): nothing is indexed per key."""
        labeler = make(shard_capacity=16)
        labeler.bulk_load([Fraction(index) for index in range(96)])
        for step in range(1, 10_000):
            restructures = (
                labeler.splits + labeler.merges + labeler.borrows
                + labeler.rewrites
            )
            if restructures > 4 * labeler.shard_count:
                break
            # Grow the first shard and drain the last: splits at the front,
            # merges and borrows at the back.
            labeler.insert(1, Fraction(-step))
            labeler.delete(labeler.size)
        assert restructures > 4 * labeler.shard_count
        assert labeler.splits and labeler.merges + labeler.borrows
        assert labeler.size == 96
        for owner in (labeler, labeler._directory):
            for name, value in vars(owner).items():
                if isinstance(value, (list, tuple, dict, set, frozenset)):
                    assert len(value) <= labeler.shard_count + 1, name


class TestBatches:
    def test_cross_shard_insert_batch_matches_loop_semantics(self):
        batched = make(shard_capacity=16)
        looped = make(shard_capacity=16)
        base = [Fraction(i) for i in range(100)]
        batched.bulk_load(base)
        looped.bulk_load(base)
        items = [
            (1, Fraction(-2)),
            (1, Fraction(-1)),
            (40, Fraction(77, 2)),
            (80, Fraction(157, 2)),
            (101, Fraction(1000)),
        ]
        batched.insert_batch(items)
        for offset, (rank, element) in enumerate(items):
            looped.insert(rank + offset, element)
        assert batched.elements() == looped.elements()
        check_labeler(batched, expected=looped.elements())

    def test_large_batch_overflows_into_fresh_shards(self):
        labeler = make(shard_capacity=16)
        result = labeler.insert_batch([(1, index) for index in range(200)])
        assert result.count == 200
        assert labeler.elements() == list(range(200))
        assert labeler.shard_count > 1
        assert max(labeler.shard_sizes()) <= labeler.split_threshold

    def test_insert_batch_rejects_bad_rank_before_mutating(self):
        labeler = make()
        labeler.insert(1, 0)
        with pytest.raises(BatchError):
            labeler.insert_batch([(1, 1), (5, 2)])
        assert labeler.elements() == [0]

    def test_delete_batch_across_shards(self):
        labeler = make(shard_capacity=16)
        labeler.bulk_load(list(range(120)))
        ranks = list(range(1, 121, 2))  # every odd pre-batch rank
        labeler.delete_batch(ranks)
        assert labeler.elements() == list(range(1, 120, 2))
        check_labeler(labeler)

    def test_delete_batch_rejects_duplicates(self):
        labeler = make()
        labeler.insert(1, 0)
        labeler.insert(2, 1)
        with pytest.raises(BatchError):
            labeler.delete_batch([1, 1])
        assert labeler.size == 2


class TestBulkLoad:
    def test_bulk_load_spreads_evenly(self):
        labeler = make(shard_capacity=16)
        labeler.bulk_load(list(range(100)))
        sizes = labeler.shard_sizes()
        assert labeler.elements() == list(range(100))
        assert max(sizes) - min(sizes) <= 1
        assert max(sizes) <= labeler.split_threshold
        check_labeler(labeler, expected=list(range(100)))

    def test_bulk_load_requires_empty(self):
        labeler = make()
        labeler.insert(1, 0)
        with pytest.raises(Exception):
            labeler.bulk_load([1, 2, 3])

    def test_bulk_load_cost_is_one_placement_per_element(self):
        labeler = make(shard_capacity=16)
        assert labeler.bulk_load(list(range(64))) == 64


class TestNaiveShards:
    def test_left_packed_shards_survive_restructures(self):
        # Regression: NaiveLabeler.bulk_load must left-pack, or the first
        # insert after a split corrupts the shard.
        labeler = ShardedLabeler(lambda cap: NaiveLabeler(cap), shard_capacity=16)
        for index in range(80):
            labeler.insert(1, 80 - index)
        assert labeler.elements() == list(range(1, 81))
        check_labeler(labeler)


class TestRestructureKinds:
    """Regression: _record_restructure must not misclassify kinds."""

    def test_borrow_is_not_a_merge(self):
        # Engineer a merge step whose union exceeds the split threshold:
        # the underflowing shard borrows (the pair is re-split evenly,
        # nothing is merged), which used to count as a "merge".
        labeler = make(shard_capacity=32, merge_density=0.12)
        labeler.bulk_load(list(range(40)))
        # Two shards; drain one below the merge floor while keeping the
        # combined size above the split threshold.
        assert labeler.shard_count >= 2
        while labeler.merges + labeler.borrows == 0:
            labeler.delete(labeler.size)
        # One delete rebalances one pair: either a merge or a borrow.
        assert labeler.merges + labeler.borrows == 1
        assert labeler.splits == labeler.rewrites == 0

    def test_borrow_recorded_when_union_exceeds_threshold(self):
        labeler = make(shard_capacity=64, merge_density=0.1)
        # One nearly full shard next to one drained to the floor: the
        # union exceeds the split threshold, so the rebalance must borrow.
        full = list(range(labeler.split_threshold))
        labeler.bulk_load(full)
        # bulk_load spreads evenly; rebuild adjacency by restoring a
        # snapshot with the skew we need.
        state = labeler.snapshot()
        big = ShardedLabeler(classical_factory, shard_capacity=64)
        big.restore(state)
        while big.shard_sizes()[-1] >= big.merge_floor:
            big.delete(big.size)
        assert big.borrows + big.merges >= 1
        assert big.splits == big.rewrites == 0
        counts = big.restructure_counts()
        assert counts["merge"][1] + counts["borrow"][1] == big.restructure_moves

    def test_batch_absorption_is_a_rewrite_not_a_split(self):
        labeler = make(shard_capacity=16)
        batch = [(1, Fraction(index)) for index in range(14)]
        labeler.insert_batch(batch)
        # The overflowing sub-batch was absorbed through a region rewrite.
        assert labeler.rewrites == 1
        assert labeler.splits == 0
        assert labeler.restructure_counts()["rewrite"] == (
            1, labeler.restructure_moves
        )
        assert labeler.restructure_moves > 0
        # Singleton overflow still records a genuine split.
        for index in range(14, 14 + labeler.split_threshold):
            labeler.insert(labeler.size + 1, Fraction(index))
        assert labeler.splits >= 1

    def test_statistics_and_snapshot_round_trip_new_counters(self):
        labeler = make(shard_capacity=16)
        labeler.insert_batch([(1, Fraction(index)) for index in range(14)])
        stats = labeler.shard_statistics()
        assert stats["rewrites"] == labeler.rewrites == 1
        restored = make(shard_capacity=16)
        restored.restore(labeler.snapshot())
        assert restored.rewrites == labeler.rewrites
        assert restored.borrows == labeler.borrows


class _RewriteSpy(ShardedLabeler):
    """Records the chunk shapes of every region rewrite."""

    def __init__(self, *args, **kwargs):
        self.rewritten_chunks: list[list[int]] = []
        super().__init__(*args, **kwargs)

    def _rewrite_region(self, lo, hi, chunks, fresh=frozenset()):
        self.rewritten_chunks.append([len(chunk) for chunk in chunks])
        return super()._rewrite_region(lo, hi, chunks, fresh)


class TestEmptyRegionRewrites:
    """Regression: a drained region must never rebuild an empty shard."""

    def test_even_chunks_of_nothing_is_no_chunks(self):
        labeler = make()
        assert labeler._even_chunks([]) == []

    def test_delete_storm_never_installs_empty_shards(self):
        spy = _RewriteSpy(classical_factory, shard_capacity=16)
        for index in range(96):
            spy.insert(index + 1, index)
        assert spy.shard_count >= 4
        # Empty two adjacent interior shards in one pre-batch-rank batch:
        # the trailing rebalance then merges drained neighbours, which
        # used to rebuild them as a single empty shard via _even_chunks.
        sizes = spy.shard_sizes()
        start = 1 + sizes[0]
        count = sizes[1] + sizes[2]
        spy.delete_batch(list(range(start, start + count)))
        spy.check_consistency()
        for shapes in spy.rewritten_chunks:
            assert all(size > 0 for size in shapes), shapes
        assert all(size > 0 for size in spy.shard_sizes())

    def test_draining_everything_leaves_the_canonical_empty_engine(self):
        labeler = make(shard_capacity=16)
        for index in range(64):
            labeler.insert(index + 1, index)
        labeler.delete_batch(list(range(1, 65)))
        assert labeler.size == 0
        assert labeler.shard_count == 1
        labeler.check_consistency()
        labeler.insert(1, Fraction(5))
        assert labeler.elements() == [Fraction(5)]

    def test_bulk_load_empty_keeps_one_fresh_shard(self):
        labeler = make()
        assert labeler.bulk_load([]) == 0
        assert labeler.shard_count == 1
        labeler.check_consistency()
        labeler.insert(1, 7)
        assert labeler.elements() == [7]
