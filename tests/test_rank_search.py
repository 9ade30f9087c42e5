"""Differential wall for the key-order search ``ListLabeler.count_below``.

Every labeler answers ``count_below(key, strict=s)`` — the number of stored
elements below ``key`` — and the ordered map turns every rank search into
one such call.  Three implementations sit behind it: the dense array
algorithms' bisection of their own slot list, the embeddings' bisection of
their physical slots (Corollary 11 included), and the sharding engine's
fence-key descent.  Each is checked here
against ``bisect`` over the ``ReferenceDriver``'s sorted list, at every
stored key, between every pair of neighbours and beyond both ends, while
singleton and batch inserts and deletes drive the structures through
splits, merges, borrows and rewrites.  The batch form,
``count_below_sorted`` — one call per touched shard in the sharding
engine, one bisected copy of the elements in a dense array — is checked
at the same keys against per-key ``count_below``.
"""

from __future__ import annotations

import bisect
import random
from fractions import Fraction

import pytest

from repro.algorithms import ClassicalPMA
from repro.applications.ordered_map import PackedMemoryMap
from repro.core import Embedding
from repro.core.exceptions import InvariantViolation
from repro.core.layered import make_corollary11_labeler
from repro.core.physical import _NEXT_ELEMENT_WALK as WALK
from repro.core.sharded import ShardedLabeler
from tests.conftest import ALGORITHM_FACTORIES, COMPOSITE_FACTORIES, ReferenceDriver

ALL_FACTORIES = {**ALGORITHM_FACTORIES, **COMPOSITE_FACTORIES}

EMBEDDINGS = sorted(name for name in COMPOSITE_FACTORIES if name != "sharded(classical)")

#: Standalone structures hold every phase of the schedule below.
CAPACITY = 256

#: Small shards, so the schedule crosses every restructure kind.
SHARD_CAPACITY = 16


def classical(capacity: int) -> ClassicalPMA:
    return ClassicalPMA(capacity)


def probes(reference: list[Fraction]) -> list[Fraction]:
    """Every stored key, a key between each pair of neighbours, and one
    key beyond each end (a single key for the empty structure)."""
    if not reference:
        return [Fraction(0)]
    keys = [reference[0] - 1, reference[-1] + 1]
    keys.extend(reference)
    keys.extend((left + right) / 2 for left, right in zip(reference, reference[1:]))
    return keys


def assert_searches(labeler, reference: list[Fraction]) -> None:
    for key in probes(reference):
        assert labeler.count_below(key) == bisect.bisect_left(reference, key), key
        assert labeler.count_below(key, strict=False) == bisect.bisect_right(
            reference, key
        ), key
    keys = sorted(probes(reference))
    per_key = [labeler.count_below(key) for key in keys]
    assert labeler.count_below_sorted(keys) == per_key


def insert_batch(driver: ReferenceDriver, ranks: list[int]) -> None:
    """One pre-batch-rank ``insert_batch``, mirrored in the reference."""
    items = []
    for offset, rank in enumerate(sorted(ranks)):
        # ``key_for`` picks a key between the neighbours of its final rank
        # in the merged sequence built so far.
        key = driver.key_for(rank + offset)
        items.append((rank, key))
        driver.reference.insert(rank + offset - 1, key)
    driver.labeler.insert_batch(items)


def delete_batch(driver: ReferenceDriver, ranks: list[int]) -> None:
    driver.labeler.delete_batch(ranks)
    for rank in sorted(ranks, reverse=True):
        driver.reference.pop(rank - 1)


def run_schedule(labeler, seed: int = 3) -> ReferenceDriver:
    """Drive ``labeler`` through growth, an overflowing batch, mixed
    batches, a borrow, merges and a full drain, checking every search
    after each phase."""
    driver = ReferenceDriver(labeler, seed=seed)
    rng = random.Random(seed)
    sharded = isinstance(labeler, ShardedLabeler)

    def checkpoint():
        driver.check()
        if sharded:
            labeler.check_consistency()
        assert_searches(labeler, driver.reference)

    checkpoint()  # the empty structure
    for _ in range(80):  # growth: singleton inserts split shards
        driver.insert(rng.randint(1, len(driver.reference) + 1))
    checkpoint()
    # One sub-batch larger than a shard can absorb: a rewrite.
    insert_batch(driver, [rng.randint(1, len(driver.reference) + 1)] * 14)
    checkpoint()
    for _ in range(5):  # mixed batches spanning several shards
        size = len(driver.reference)
        insert_batch(driver, [rng.randint(1, size + 1) for _ in range(10)])
        size = len(driver.reference)
        delete_batch(driver, rng.sample(range(1, size + 1), 10))
        for _ in range(10):
            driver.random_operation(delete_probability=0.5)
    checkpoint()
    if sharded:
        # A borrow: fill the second shard to the split threshold through
        # its first slot, then drain the first shard below the floor —
        # the pair's union is too large to merge, so it is re-split.
        while labeler.shard_sizes()[1] < labeler.split_threshold:
            driver.insert(labeler.shard_sizes()[0] + 1)
        checkpoint()
        while labeler.borrows == 0:
            driver.delete(1)
        checkpoint()
    for _ in range(40):  # front drains merge underflowing shards
        driver.delete(1)
    checkpoint()
    size = len(driver.reference)
    delete_batch(driver, rng.sample(range(1, size + 1), size // 2))
    checkpoint()
    delete_batch(driver, list(range(1, len(driver.reference) + 1)))
    checkpoint()  # drained to empty
    for _ in range(12):
        driver.insert(rng.randint(1, len(driver.reference) + 1))
    checkpoint()
    return driver


@pytest.mark.parametrize("name", sorted(ALL_FACTORIES))
def test_standalone_search_matches_bisect(name):
    run_schedule(ALL_FACTORIES[name](CAPACITY))


@pytest.mark.parametrize("name", sorted(ALGORITHM_FACTORIES) + ["corollary11"])
def test_fence_descent_matches_bisect(name):
    labeler = ShardedLabeler(ALL_FACTORIES[name], shard_capacity=SHARD_CAPACITY)
    run_schedule(labeler)
    for kind in ("splits", "merges", "borrows", "rewrites"):
        assert getattr(labeler, kind) > 0, kind


def test_restore_and_bulk_load_rebuild_fences():
    source = ShardedLabeler(classical, shard_capacity=SHARD_CAPACITY)
    driver = ReferenceDriver(source, seed=5)
    for _ in range(120):
        driver.random_operation(delete_probability=0.2)
    restored = ShardedLabeler(classical, shard_capacity=SHARD_CAPACITY)
    restored.restore(source.snapshot())
    restored.check_consistency()
    assert_searches(restored, driver.reference)
    loaded = ShardedLabeler(classical, shard_capacity=SHARD_CAPACITY)
    loaded.bulk_load(driver.reference)
    loaded.check_consistency()
    assert_searches(loaded, driver.reference)


class TestSortedBatchRanking:
    """``count_below_sorted`` against per-key ``count_below``."""

    @staticmethod
    def sharded_with_keys(count: int) -> tuple[ShardedLabeler, list[int]]:
        labeler = ShardedLabeler(classical, shard_capacity=SHARD_CAPACITY)
        keys = list(range(10, 10 * (count + 1), 10))
        labeler.bulk_load(keys)
        assert labeler.shard_count > 3
        return labeler, keys

    def test_keys_below_the_first_fence_and_above_the_last(self):
        labeler, keys = self.sharded_with_keys(60)
        below = [-5, 0, 9]
        above = [keys[-1] + 1, keys[-1] + 100]
        fences = [shard.select(1) for shard in labeler.shards]
        inside = sorted({key + delta for key in fences for delta in (-1, 0, 1)})
        probe = below + inside + above
        expected = [labeler.count_below(key) for key in probe]
        assert labeler.count_below_sorted(probe) == expected
        assert expected[: len(below)] == [0] * len(below)
        assert expected[-len(above) :] == [len(keys)] * len(above)
        assert labeler.count_below_sorted(below) == [0, 0, 0]
        assert labeler.count_below_sorted(above) == [len(keys)] * 2

    def test_one_shard_call_per_touched_shard(self, monkeypatch):
        labeler, keys = self.sharded_with_keys(60)
        calls = []
        original = ClassicalPMA.count_below_sorted

        def counted(shard, batch):
            calls.append(len(batch))
            return original(shard, batch)

        monkeypatch.setattr(ClassicalPMA, "count_below_sorted", counted)
        probe = [key + 1 for key in keys]
        labeler.count_below_sorted(probe)
        assert len(calls) == labeler.shard_count
        assert sum(calls) == len(probe)

    def test_empty_engine_and_empty_batch(self):
        labeler = ShardedLabeler(classical, shard_capacity=SHARD_CAPACITY)
        assert labeler.count_below_sorted([1, 2, 3]) == [0, 0, 0]
        assert labeler.count_below_sorted([]) == []
        labeler.bulk_load([5, 6])
        assert labeler.count_below_sorted([]) == []


class TestFenceCorruption:
    @pytest.fixture
    def labeler(self):
        labeler = ShardedLabeler(classical, shard_capacity=SHARD_CAPACITY)
        labeler.bulk_load([Fraction(index) for index in range(100)])
        assert labeler.shard_count > 3
        labeler.check_consistency()
        return labeler

    def test_wrong_fence_is_an_invariant_violation(self, labeler):
        labeler._fences[2] = labeler._fences[3]
        with pytest.raises(InvariantViolation, match="fence"):
            labeler.check_consistency()

    def test_missing_fence_is_an_invariant_violation(self, labeler):
        labeler._fences.pop()
        with pytest.raises(InvariantViolation, match="fence"):
            labeler.check_consistency()


class TestSearchPath:
    """The map's rank searches over classical shards make no rank selects."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        select = ShardedLabeler.select

        def counting_select(self, rank):
            calls.append(rank)
            return select(self, rank)

        monkeypatch.setattr(ShardedLabeler, "select", counting_select)
        index = PackedMemoryMap(capacity=None, labeler_factory=classical)
        index.update_many((key, key) for key in range(0, 40_000, 2))
        assert len(index) == 20_000
        calls.clear()
        return index, calls

    def test_new_key_put_makes_no_select(self, counted):
        index, calls = counted
        index[12_345] = "new"
        assert index.rank_of(12_345) == 6_174
        assert calls == []

    def test_count_range_makes_no_select(self, counted):
        index, calls = counted
        assert index.count_range(101, 30_001) == 14_950
        assert calls == []


class TestEmbeddingSearchPath:
    """An embedding bisects its physical slots instead of selecting."""

    @pytest.fixture
    def counted(self, monkeypatch):
        index = PackedMemoryMap(
            1024, lambda capacity: make_corollary11_labeler(capacity, seed=1)
        )
        index.update_many((key, key) for key in range(0, 1536, 2))
        assert len(index) == 768
        calls = []
        select = Embedding.select

        def counting_select(self, rank):
            calls.append(rank)
            return select(self, rank)

        monkeypatch.setattr(Embedding, "select", counting_select)
        return index, calls

    def test_new_key_put_makes_no_select(self, counted):
        index, calls = counted
        index[777] = "new"
        assert index.rank_of(777) == 390
        assert calls == []

    @pytest.mark.parametrize("name", EMBEDDINGS)
    def test_dense_search_matches_bisect(self, name):
        labeler = ALL_FACTORIES[name](CAPACITY)
        keys = [Fraction(index) for index in range(3 * CAPACITY // 4)]
        labeler.bulk_load(keys)
        assert 4 * len(labeler) >= labeler.num_slots
        driver = ReferenceDriver(labeler, seed=5)
        driver.reference = list(keys)
        assert_searches(labeler, driver.reference)
        for _ in range(120):
            driver.random_operation(delete_probability=0.5)
        driver.check()
        assert_searches(labeler, driver.reference)


def empty_runs(slots) -> list[tuple[int, int]]:
    """The maximal runs of element-free slots, as ``(first, last)``."""
    runs, start = [], None
    for position, item in enumerate(slots):
        if item is None and start is None:
            start = position
        elif item is not None and start is not None:
            runs.append((start, position - 1))
            start = None
    if start is not None:
        runs.append((start, len(slots) - 1))
    return runs


class TestSearchThroughEmptyRuns:
    """A probe that lands in an empty run longer than ``next_element``'s
    walk finds the run's end on the element lane, inside the run and at
    the array's empty tail (a Corollary 11 index of capacity 1,024 with
    768 keys leaves slots 1,638–2,253 empty, like the layout a long
    seeded churn leaves).  The embeddings with a PMA fast side are used:
    a naive fast side keeps its elements packed, so deleting a block of
    ranks opens no inner run."""

    @pytest.mark.parametrize(
        "name, capacity",
        [
            ("corollary11", CAPACITY),
            ("corollary11", 1024),
            ("embedding(adaptive<|classical)", CAPACITY),
        ],
    )
    def test_search_matches_bisect(self, name, capacity):
        labeler = ALL_FACTORIES[name](capacity)
        keys = [Fraction(index) for index in range(3 * capacity // 4)]
        labeler.bulk_load(keys)
        driver = ReferenceDriver(labeler, seed=5)
        driver.reference = list(keys)
        for _ in range(capacity // 6):  # empty a block of ranks in the middle
            driver.delete(capacity // 4)
        driver.check()
        assert 4 * len(labeler) >= labeler.num_slots
        runs = empty_runs(labeler.slots())
        long_runs = [(first, last) for first, last in runs if last - first >= WALK]
        assert long_runs[-1][1] == labeler.num_slots - 1  # the empty tail
        assert len(long_runs) >= 2  # and a run between two elements

        physical = labeler.physical
        next_element = physical.next_element
        skipped: list[tuple[int, int, object]] = []

        def recording(position, stop):
            found = next_element(position, stop)
            if stop - position > WALK and all(
                physical.element(probe) is None
                for probe in range(position, position + WALK)
            ):
                skipped.append((position, stop, found))
            return found

        physical.next_element = recording
        try:
            assert_searches(labeler, driver.reference)
        finally:
            del physical.next_element
        # Probes past the walk found the element ending an inner run, and
        # found none in the tail.
        assert any(found is not None for _, _, found in skipped)
        assert any(found is None for _, _, found in skipped)
        for position, stop, found in skipped:
            expected = next(
                (
                    (probe, physical.element(probe))
                    for probe in range(position, stop)
                    if physical.element(probe) is not None
                ),
                None,
            )
            assert found == expected, (position, stop)


class TestUnorderedKeys:
    """A NaN key is refused before it can break the key order."""

    def test_put_and_update_many_refuse_nan(self):
        index = PackedMemoryMap(capacity=None, labeler_factory=classical)
        index.update_many([(1.0, "a"), (2.0, "b"), (3.0, "c")])
        with pytest.raises(ValueError, match="not equal to itself"):
            index[float("nan")] = "x"
        with pytest.raises(ValueError, match="not equal to itself"):
            index.update_many([(4.0, "d"), (float("nan"), "x"), (2.0, "z")])
        assert list(index.items()) == [(1.0, "a"), (2.0, "b"), (3.0, "c")]
        assert list(index.range(2.0, 3.0)) == [(2.0, "b"), (3.0, "c")]
        index.check()
        index.labeler.check_consistency()
