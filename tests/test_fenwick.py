"""Unit and property tests for the Fenwick occupancy tree."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fenwick import FenwickTree


class TestBasics:
    def test_empty_tree(self):
        tree = FenwickTree(8)
        assert tree.total == 0
        assert tree.prefix(8) == 0
        assert tree.count(0, 8) == 0

    def test_set_and_prefix(self):
        tree = FenwickTree(10)
        tree.set(3, 1)
        tree.set(7, 1)
        assert tree.total == 2
        assert tree.prefix(4) == 1
        assert tree.prefix(8) == 2
        assert tree.count(4, 8) == 1

    def test_set_idempotent(self):
        tree = FenwickTree(5)
        tree.set(2, 1)
        tree.set(2, 1)
        assert tree.total == 1
        tree.set(2, 0)
        tree.set(2, 0)
        assert tree.total == 0

    def test_set_rejects_non_binary(self):
        tree = FenwickTree(4)
        with pytest.raises(ValueError):
            tree.set(0, 2)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            FenwickTree(-1)

    def test_value_roundtrip(self):
        tree = FenwickTree(6)
        tree.set(5, 1)
        assert tree.value(5) == 1
        assert tree.value(0) == 0


class TestSelect:
    def test_select_finds_kth_occupied(self):
        tree = FenwickTree(10)
        occupied = [1, 4, 5, 9]
        for index in occupied:
            tree.set(index, 1)
        for k, index in enumerate(occupied, start=1):
            assert tree.select(k) == index

    def test_select_out_of_range(self):
        tree = FenwickTree(4)
        tree.set(0, 1)
        with pytest.raises(IndexError):
            tree.select(2)
        with pytest.raises(IndexError):
            tree.select(0)

    def test_rank_of(self):
        tree = FenwickTree(8)
        tree.set(2, 1)
        tree.set(6, 1)
        assert tree.rank_of(2) == 1
        assert tree.rank_of(6) == 2

    def test_rank_of_unoccupied_raises(self):
        tree = FenwickTree(8)
        with pytest.raises(ValueError):
            tree.rank_of(3)


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=64),
        updates=st.lists(
            st.tuples(st.integers(min_value=0, max_value=63), st.booleans()),
            max_size=80,
        ),
    )
    def test_matches_naive_bit_vector(self, size, updates):
        tree = FenwickTree(size)
        reference = [0] * size
        for index, bit in updates:
            if index >= size:
                continue
            tree.set(index, int(bit))
            reference[index] = int(bit)
        assert tree.total == sum(reference)
        for end in range(size + 1):
            assert tree.prefix(end) == sum(reference[:end])
        occupied = [i for i, bit in enumerate(reference) if bit]
        for k, index in enumerate(occupied, start=1):
            assert tree.select(k) == index
        for rank, index in enumerate(occupied, start=1):
            assert tree.rank_of(index) == rank
        for index, bit in enumerate(reference):
            assert tree.value(index) == bit
            if not bit:
                with pytest.raises(ValueError):
                    tree.rank_of(index)


class TestEdges:
    def test_empty_tree_of_size_zero(self):
        tree = FenwickTree(0)
        assert tree.size == 0
        assert tree.total == 0
        assert tree.prefix(0) == 0
        assert tree.count(0, 0) == 0
        with pytest.raises(IndexError):
            tree.select(1)

    def test_single_slot_tree(self):
        tree = FenwickTree(1)
        with pytest.raises(IndexError):
            tree.select(1)
        tree.set(0, 1)
        assert tree.select(1) == 0
        assert tree.rank_of(0) == 1
        assert tree.prefix(1) == 1
        tree.set(0, 0)
        assert tree.total == 0
        with pytest.raises(ValueError):
            tree.rank_of(0)

    def test_out_of_range_updates_rejected(self):
        tree = FenwickTree(4)
        with pytest.raises(IndexError):
            tree.set(4, 1)
        with pytest.raises(IndexError):
            tree.add(7, 3)


class TestWeightedAgainstReference:
    """The ``add`` API used by the shard directory, vs. a naive count list."""

    @settings(max_examples=80, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=32),
        updates=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=31),
                st.integers(min_value=-4, max_value=16),
            ),
            max_size=60,
        ),
    )
    def test_matches_naive_count_vector(self, size, updates):
        tree = FenwickTree(size)
        reference = [0] * size
        for index, delta in updates:
            if index >= size:
                continue
            if reference[index] + delta < 0:
                with pytest.raises(ValueError):
                    tree.add(index, delta)
                continue
            tree.add(index, delta)
            reference[index] += delta
        assert tree.total == sum(reference)
        for end in range(size + 1):
            assert tree.prefix(end) == sum(reference[:end])
        for index, count in enumerate(reference):
            assert tree.value(index) == count
        # select(k) finds the position holding the k-th unit — the shard
        # directory's rank→shard routing primitive.
        unit_positions = [
            index for index, count in enumerate(reference) for _ in range(count)
        ]
        for k, index in enumerate(unit_positions, start=1):
            assert tree.select(k) == index
        with pytest.raises(IndexError):
            tree.select(sum(reference) + 1)

    def test_negative_counts_rejected(self):
        tree = FenwickTree(3)
        tree.add(1, 5)
        with pytest.raises(ValueError):
            tree.add(1, -6)
        assert tree.value(1) == 5

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.integers(min_value=0, max_value=12), max_size=40))
    def test_bulk_constructor_matches_incremental(self, values):
        bulk = FenwickTree.from_values(values)
        incremental = FenwickTree(len(values))
        for index, value in enumerate(values):
            incremental.add(index, value)
        assert bulk._tree == incremental._tree
        assert bulk.total == sum(values)
        for end in range(len(values) + 1):
            assert bulk.prefix(end) == sum(values[:end])

    def test_bulk_constructor_rejects_negative(self):
        with pytest.raises(ValueError):
            FenwickTree.from_values([1, -1])


class TestWindowAssign:
    """``assign(lo, values)`` — one refresh per laid-out window — against
    one ``set``/``add`` per position on a twin tree."""

    @staticmethod
    def pointwise(tree: FenwickTree, lo: int, values: list[int]) -> None:
        for offset, value in enumerate(values):
            tree.add(lo + offset, value - tree.value(lo + offset))

    @staticmethod
    def assert_same(fast: FenwickTree, slow: FenwickTree) -> None:
        assert fast._tree == slow._tree
        assert fast.total == slow.total == sum(slow._values)
        for index in range(slow.size):
            assert fast.value(index) == slow.value(index)
        for end in range(slow.size + 1):
            assert fast.prefix(end) == slow.prefix(end)
        for k in range(1, slow.total + 1):
            assert fast.select(k) == slow.select(k)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_pointwise_updates(self, data):
        size = data.draw(st.integers(min_value=1, max_value=70))
        top = data.draw(st.sampled_from([1, 5]))  # occupancy bits or weights
        counts = st.integers(min_value=0, max_value=top)
        initial = data.draw(st.lists(counts, min_size=size, max_size=size))
        fast = FenwickTree.from_values(initial)
        slow = FenwickTree.from_values(initial)
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            lo = data.draw(st.integers(min_value=0, max_value=size))
            hi = data.draw(st.integers(min_value=lo, max_value=size))
            values = data.draw(st.lists(counts, min_size=hi - lo, max_size=hi - lo))
            fast.assign(lo, values)
            self.pointwise(slow, lo, values)
            self.assert_same(fast, slow)

    @pytest.mark.parametrize("size", [1, 2, 7, 8, 9, 33])
    def test_windows_at_the_start_and_the_end(self, size):
        for width in range(1, size + 1):
            for lo in (0, size - width):
                initial = [index % 2 for index in range(size)]
                values = [1 - bit for bit in initial[lo : lo + width]]
                fast = FenwickTree.from_values(initial)
                slow = FenwickTree.from_values(initial)
                fast.assign(lo, values)
                self.pointwise(slow, lo, values)
                self.assert_same(fast, slow)

    def test_size_one_tree(self):
        tree = FenwickTree(1)
        tree.assign(0, [1])
        assert tree.total == 1 and tree.select(1) == 0 and tree.rank_of(0) == 1
        tree.assign(0, [0])
        assert tree.total == 0 and tree.prefix(1) == 0
        tree.assign(1, [])
        assert tree.total == 0

    def test_empty_window_changes_nothing(self):
        tree = FenwickTree.from_values([1, 0, 1])
        before = list(tree._tree)
        for lo in range(4):
            tree.assign(lo, [])
        assert tree._tree == before and tree.total == 2

    def test_bad_windows_are_refused_before_any_change(self):
        tree = FenwickTree.from_values([1, 0, 1, 1])
        before = list(tree._tree)
        with pytest.raises(IndexError):
            tree.assign(3, [1, 1])
        with pytest.raises(IndexError):
            tree.assign(-1, [1])
        with pytest.raises(ValueError):
            tree.assign(0, [1, -1])
        assert tree._tree == before and tree.total == 3

    def test_select_walks_once(self):
        # The total is stored, not summed by a prefix walk before select.
        tree = FenwickTree.from_values([0, 1, 1, 0, 1])
        walks = []
        tree.prefix = lambda end: walks.append(end) or 0
        assert tree.select(3) == 4
        assert tree.total == 3
        assert walks == []
