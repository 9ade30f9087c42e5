"""Behavioural tests shared by every list-labeling algorithm.

Each algorithm is exercised against a plain sorted-list reference model on
deterministic and randomized operation sequences; after every phase the
structural invariants of Definition 1 (sorted order, slot counts, declared
size) must hold and the stored contents must equal the reference.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.validation import check_labeler, check_moves_consistent

from tests.conftest import ALGORITHM_FACTORIES, ReferenceDriver


@pytest.mark.parametrize("name", sorted(ALGORITHM_FACTORIES))
class TestCommonBehaviour:
    def test_snapshot_round_trip_and_refused_layouts(self, name):
        source = ALGORITHM_FACTORIES[name](64)
        driver = ReferenceDriver(source, seed=5)
        for _ in range(40):
            driver.random_operation(delete_probability=0.3)
        state = source.snapshot()
        twin = ALGORITHM_FACTORIES[name](64)
        twin.restore(state)
        assert twin.slots() == source.slots()
        for end in range(twin.num_slots + 1):
            assert twin.count_range(0, end) == source.count_range(0, end)
        # A layout read from disk naming a slot outside the array is refused.
        for bad in (-1, twin.num_slots):
            broken = dict(state, layout=[[bad, "x"]], size=1)
            with pytest.raises(ValueError):
                ALGORITHM_FACTORIES[name](64).restore(broken)

    def test_ascending_insertions(self, name):
        driver = ReferenceDriver(ALGORITHM_FACTORIES[name](64))
        for _ in range(64):
            driver.insert(len(driver.reference) + 1)
        driver.check()

    def test_descending_insertions(self, name):
        driver = ReferenceDriver(ALGORITHM_FACTORIES[name](64))
        for _ in range(64):
            driver.insert(1)
        driver.check()

    def test_hammer_insertions(self, name):
        driver = ReferenceDriver(ALGORITHM_FACTORIES[name](96))
        for _ in range(10):
            driver.insert(len(driver.reference) + 1)
        for _ in range(80):
            driver.insert(6)
        driver.check()

    def test_random_mixed_workload(self, name):
        driver = ReferenceDriver(ALGORITHM_FACTORIES[name](128), seed=11)
        for step in range(500):
            driver.random_operation(delete_probability=0.35)
            if step % 100 == 0:
                driver.check()
        driver.check()

    def test_fill_to_capacity_then_drain(self, name):
        capacity = 48
        driver = ReferenceDriver(ALGORITHM_FACTORIES[name](capacity), seed=3)
        while len(driver.reference) < capacity:
            driver.insert(driver.rng.randint(1, len(driver.reference) + 1))
        driver.check()
        while driver.reference:
            driver.delete(driver.rng.randint(1, len(driver.reference)))
        driver.check()
        assert driver.labeler.is_empty

    def test_costs_are_reported_consistently(self, name):
        labeler = ALGORITHM_FACTORIES[name](80)
        reference = []
        rng = random.Random(5)
        for _ in range(60):
            rank = rng.randint(1, len(reference) + 1)
            lower = reference[rank - 2] if rank >= 2 else Fraction(0)
            upper = (
                reference[rank - 1]
                if rank - 1 < len(reference)
                else lower + 2
            )
            key = (Fraction(lower) + Fraction(upper)) / 2
            before = list(labeler.slots())
            result = labeler.insert(rank, key)
            reference.insert(rank - 1, key)
            after = list(labeler.slots())
            check_moves_consistent(before, after, result.moved_elements())
            assert result.cost >= 1  # at least the placement move
        check_labeler(labeler, expected=reference)

    def test_single_element_lifecycle(self, name):
        labeler = ALGORITHM_FACTORIES[name](8)
        labeler.insert(1, Fraction(1))
        assert labeler.elements() == [Fraction(1)]
        labeler.delete(1)
        assert labeler.elements() == []


@pytest.mark.parametrize("name", sorted(ALGORITHM_FACTORIES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_property_random_sequences_match_reference(name, data):
    """Property test: arbitrary short operation sequences match the model."""
    capacity = data.draw(st.integers(min_value=4, max_value=40), label="capacity")
    length = data.draw(st.integers(min_value=1, max_value=60), label="length")
    driver = ReferenceDriver(ALGORITHM_FACTORIES[name](capacity))
    for index in range(length):
        size = len(driver.reference)
        can_insert = size < capacity
        do_delete = size > 0 and (
            not can_insert or data.draw(st.booleans(), label=f"delete-{index}")
        )
        if do_delete:
            rank = data.draw(
                st.integers(min_value=1, max_value=size), label=f"rank-{index}"
            )
            driver.delete(rank)
        else:
            rank = data.draw(
                st.integers(min_value=1, max_value=size + 1), label=f"rank-{index}"
            )
            driver.insert(rank)
    driver.check()
