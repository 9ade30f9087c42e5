"""Tests for the abstract ListLabeler interface and its validation wrappers."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.algorithms import NaiveLabeler
from repro.core import Operation, ShardedLabeler
from repro.core.exceptions import CapacityError, LabelerError, RankError
from repro.core.interface import ListLabeler
from tests.conftest import ALGORITHM_FACTORIES, COMPOSITE_FACTORIES

ALL_FACTORIES = {**ALGORITHM_FACTORIES, **COMPOSITE_FACTORIES}

#: Every factory but the sharding engine's, which is unbounded.
BOUNDED_FACTORIES = {
    name: factory
    for name, factory in ALL_FACTORIES.items()
    if not isinstance(factory(64), ShardedLabeler)
}


class TestRankValidation:
    def test_insert_rank_bounds(self):
        labeler = NaiveLabeler(4)
        with pytest.raises(RankError):
            labeler.insert(0, "x")
        with pytest.raises(RankError):
            labeler.insert(2, "x")  # size is 0, only rank 1 is legal
        labeler.insert(1, "a")
        labeler.insert(2, "b")
        with pytest.raises(RankError):
            labeler.insert(4, "c")

    def test_delete_rank_bounds(self):
        labeler = NaiveLabeler(4)
        with pytest.raises(RankError):
            labeler.delete(1)
        labeler.insert(1, "a")
        with pytest.raises(RankError):
            labeler.delete(2)

    def test_capacity_enforced(self):
        labeler = NaiveLabeler(2)
        labeler.insert(1, "a")
        labeler.insert(2, "b")
        with pytest.raises(CapacityError):
            labeler.insert(1, "c")

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            NaiveLabeler(0)

    def test_num_slots_not_below_capacity(self):
        with pytest.raises(ValueError):
            NaiveLabeler(10, num_slots=5)


class TestViews:
    def test_size_and_len(self):
        labeler = NaiveLabeler(4)
        labeler.insert(1, 10)
        labeler.insert(2, 20)
        assert len(labeler) == labeler.size == 2
        assert not labeler.is_empty
        assert not labeler.is_full

    def test_elements_in_order(self):
        labeler = NaiveLabeler(4)
        labeler.insert(1, 20)
        labeler.insert(1, 10)
        labeler.insert(3, 30)
        assert labeler.elements() == [10, 20, 30]
        assert list(iter(labeler)) == [10, 20, 30]

    def test_labels_are_monotone_in_rank(self):
        labeler = NaiveLabeler(8)
        for index in range(5):
            labeler.insert(index + 1, index)
        labels = labeler.labels()
        ordered = [labels[element] for element in sorted(labels)]
        assert ordered == sorted(ordered)

    def test_slot_of(self):
        labeler = NaiveLabeler(4)
        labeler.insert(1, "a")
        assert labeler.slot_of("a") == 0
        with pytest.raises(KeyError):
            labeler.slot_of("missing")

    def test_rank_of(self):
        labeler = NaiveLabeler(8)
        for index in range(5):
            labeler.insert(index + 1, index * 10)
        for index, element in enumerate(labeler.elements()):
            assert labeler.rank_of(element) == index + 1
        with pytest.raises(KeyError):
            labeler.rank_of("missing")


class TestIndexedLookups:
    """Regression: no registered structure may use the base O(n) scans.

    ``ListLabeler.slot_of`` / ``rank_of`` default to a linear scan of the
    slot array; every registered algorithm and composite keeps an index and
    must override them, so hot-path callers (the R-shell, the applications,
    the interleaving cost model) never silently degrade to O(n) lookups.
    """

    @staticmethod
    def _fill(factory):
        labeler = factory(64)
        for index in range(24):
            labeler.insert(index + 1, Fraction(index))
        return labeler

    @pytest.mark.parametrize(
        "name", sorted(ALGORITHM_FACTORIES) + sorted(COMPOSITE_FACTORIES)
    )
    def test_no_fallback_scan(self, name, monkeypatch):
        factory = {**ALGORITHM_FACTORIES, **COMPOSITE_FACTORIES}[name]
        labeler = self._fill(factory)
        expected_slots = {
            element: labeler.slot_of(element) for element in labeler.elements()
        }

        def scan_used(self, element):
            raise AssertionError(
                f"{type(self).__name__} fell back to the O(n) interface scan"
            )

        monkeypatch.setattr(ListLabeler, "slot_of", scan_used)
        monkeypatch.setattr(ListLabeler, "rank_of", scan_used)
        for index, element in enumerate(labeler.elements()):
            assert labeler.slot_of(element) == expected_slots[element]
            assert labeler.rank_of(element) == index + 1


class TestApply:
    def test_apply_insert_uses_key(self):
        labeler = NaiveLabeler(4)
        labeler.apply(Operation.insert(1, key="k"))
        assert labeler.elements() == ["k"]

    def test_apply_insert_generates_element(self):
        labeler = NaiveLabeler(4)
        labeler.apply(Operation.insert(1))
        assert len(labeler) == 1

    def test_apply_delete(self):
        labeler = NaiveLabeler(4)
        labeler.insert(1, "a")
        labeler.apply(Operation.delete(1))
        assert labeler.is_empty


class TestBulkLoadErrors:
    """``bulk_load`` raises the interface's errors, before placing anything."""

    @pytest.mark.parametrize("name", sorted(ALL_FACTORIES))
    def test_second_load_raises_labeler_error(self, name):
        labeler = ALL_FACTORIES[name](64)
        labeler.bulk_load([Fraction(index) for index in range(8)])
        before = labeler.elements()
        with pytest.raises(LabelerError):
            labeler.bulk_load([Fraction(100)])
        assert labeler.elements() == before

    @pytest.mark.parametrize("name", sorted(BOUNDED_FACTORIES))
    def test_oversized_load_raises_capacity_error(self, name):
        labeler = BOUNDED_FACTORIES[name](64)
        with pytest.raises(CapacityError):
            labeler.bulk_load(
                [Fraction(index) for index in range(labeler.capacity + 1)]
            )
        assert labeler.elements() == []
