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

    def test_select_walks_once(self):
        # The total is stored, not summed by a prefix walk before select.
        tree = FenwickTree.from_values([0, 1, 1, 0, 1])
        walks = []
        tree.prefix = lambda end: walks.append(end) or 0
        assert tree.select(3) == 4
        assert tree.total == 3
        assert walks == []


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
        for index, bit in enumerate(reference):
            assert tree.value(index) == bit


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
        assert tree.prefix(1) == 1
        tree.set(0, 0)
        assert tree.total == 0

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

