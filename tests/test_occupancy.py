"""The dense labelers' occupancy bitmask against a naive bit vector.

:class:`~repro.algorithms.base.DenseArrayLabeler` answers every occupancy
question from one int whose bit ``i`` is set while slot ``i`` is occupied.
These tests churn a dense array through its move-recorded primitives
(``_place``, ``_remove``, ``_move``, ``bulk_load``), keeping the stored
keys sorted, and check each query against a plain scan of ``slots()``.
The slot counts straddle the select's one-byte table (1, 7, 8, 9) and reach
a store shard (128) and the largest Corollary 11 copy (2,254).  The shared
bitmask helpers of :mod:`repro.core.bitmask` are also checked directly,
at widths on both sides of each power of two the select halves along.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import NaiveLabeler
from repro.core.bitmask import (
    count_bits,
    iter_bits,
    iter_bits_reversed,
    lowest_bits,
    select_bit,
)

SLOT_COUNTS = [1, 7, 8, 9, 128, 2254]


def neighbour(slots, start: int, step: int):
    """The first stored key from ``start`` walking by ``step``, or ``None``."""
    index = start
    while 0 <= index < len(slots):
        if slots[index] is not None:
            return slots[index]
        index += step
    return None


def sorted_key_for(labeler, slot: int) -> Fraction:
    """A key that keeps the slots sorted when placed at the free ``slot``."""
    slots = labeler.raw_slots()
    lower = neighbour(slots, slot - 1, -1)
    upper = neighbour(slots, slot + 1, 1)
    if lower is None and upper is None:
        return Fraction(0)
    if lower is None:
        return upper - 1
    if upper is None:
        return lower + 1
    return (lower + upper) / 2


def churn(labeler, steps) -> None:
    """Apply the valid, order-keeping steps of ``steps``; skip the rest."""
    slots = labeler.raw_slots()
    for kind, a, b in steps:
        a %= labeler.num_slots
        b %= labeler.num_slots
        if kind == "place" and slots[a] is None:
            labeler._place(a, sorted_key_for(labeler, a))
        elif kind == "remove" and slots[a] is not None:
            labeler._remove(a)
        elif kind == "move" and slots[a] is not None and slots[b] is None:
            lo, hi = min(a, b), max(a, b)
            if all(item is None for item in slots[lo + 1 : hi]):
                labeler._move(a, b)


def assert_matches_scan(labeler, windows) -> None:
    slots = labeler.slots()
    m = len(slots)
    bits = [0 if item is None else 1 for item in slots]
    prefix = [0]
    for bit in bits:
        prefix.append(prefix[-1] + bit)
    occupied = [index for index, bit in enumerate(bits) if bit]

    for lo, hi in windows:
        expected = prefix[hi] - prefix[lo] if hi > lo else 0
        assert labeler.occupied_in(lo, hi) == expected, (lo, hi)
    for lo in (-2, 0, m // 2, m, m + 2):
        for hi in (-1, 0, m // 2, m, m + 3):
            clo, chi = max(0, lo), min(m, hi)
            expected = prefix[chi] - prefix[clo] if chi > clo else 0
            assert labeler.count_range(lo, hi) == expected, (lo, hi)

    nearest = None
    for index in range(m):
        if not bits[index]:
            nearest = index
        assert labeler.free_slot_left(index) == nearest, index
    nearest = None
    for index in reversed(range(m)):
        if not bits[index]:
            nearest = index
        assert labeler.free_slot_right(index) == nearest, index

    for rank, index in enumerate(occupied, start=1):
        assert labeler.slot_of_rank(rank) == index
        assert labeler.rank_at_slot(index) == rank
        # A non-integral rank selects like a Fenwick threshold walk: the
        # first slot whose prefix count reaches it.
        assert labeler.slot_of_rank(float(rank)) == index
        assert labeler.slot_of_rank(rank - 0.5 if rank > 1 else 1.0) == index
    for rank in (0, len(occupied) + 1):
        with pytest.raises(IndexError):
            labeler.slot_of_rank(rank)
    # An insert's neighbours: the slots of ranks rank - 1 and rank.
    bounded = [-1, *occupied, m]
    for rank in range(1, len(occupied) + 2):
        assert labeler._neighbour_slots(rank) == (bounded[rank - 1], bounded[rank])
    for index in range(m):
        if not bits[index]:
            with pytest.raises(ValueError):
                labeler.rank_at_slot(index)

    stored = [slots[index] for index in occupied]
    keys = list(stored)
    keys += [(left + right) / 2 for left, right in zip(stored, stored[1:])]
    keys += [stored[0] - 1, stored[-1] + 1] if stored else [Fraction(0)]
    for key in keys:
        assert labeler.count_below(key) == bisect_left(stored, key), key
        assert labeler.count_below(key, strict=False) == bisect_right(stored, key)


def windows_for(m: int, data) -> list[tuple[int, int]]:
    """Every window of a small array; sampled ones and the edges of a big one."""
    if m <= 16:
        return [(lo, hi) for lo in range(m + 1) for hi in range(m + 1)]
    bounds = st.integers(min_value=0, max_value=m)
    drawn = data.draw(st.lists(st.tuples(bounds, bounds), min_size=20, max_size=40))
    return drawn + [(0, m), (0, 0), (m, m), (0, 1), (m - 1, m), (m // 2, m // 2 + 1)]


@pytest.mark.parametrize("num_slots", SLOT_COUNTS)
class TestOccupancyBitmask:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_queries_match_a_scan_after_churn(self, num_slots, data):
        labeler = NaiveLabeler(num_slots, num_slots)
        fill = data.draw(st.sampled_from([0, num_slots // 3, num_slots]))
        labeler.bulk_load(Fraction(key) for key in range(fill))
        slot = st.integers(min_value=0, max_value=num_slots - 1)
        kinds = st.sampled_from(["place", "remove", "move"])
        churn(labeler, data.draw(st.lists(st.tuples(kinds, slot, slot), max_size=80)))
        assert_matches_scan(labeler, windows_for(num_slots, data))

    def test_empty_and_full_arrays(self, num_slots):
        windows = [(0, num_slots), (0, 0), (num_slots, num_slots)]
        labeler = NaiveLabeler(num_slots, num_slots)
        assert_matches_scan(labeler, windows)
        assert labeler.free_slot_left(num_slots - 1) == num_slots - 1
        assert labeler.free_slot_right(0) == 0
        labeler.bulk_load(Fraction(key) for key in range(num_slots))
        assert_matches_scan(labeler, windows)
        assert labeler.free_slot_left(num_slots - 1) is None
        assert labeler.free_slot_right(0) is None
        assert labeler.slot_of_rank(num_slots) == num_slots - 1
        for _ in range(num_slots if num_slots <= 16 else 1):
            labeler._remove(labeler.slot_of_rank(1))
            assert_matches_scan(labeler, windows)


@pytest.mark.parametrize("width", [1, 8, 9, 64, 65, 255, 256, 257, 4096, 4097])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_bitmask_helpers_match_a_scan(width, data):
    mask = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    if data.draw(st.booleans()):
        mask |= 1 << (width - 1)  # the width's top bit, so bit_length == width
    ones = [bit for bit in range(width) if mask >> bit & 1]
    lowest = 0
    for k, bit in enumerate(ones, start=1):
        lowest |= 1 << bit
        assert select_bit(mask, k) == bit
        assert lowest_bits(mask, k) == lowest
    assert lowest_bits(mask, 0) == 0
    for k in (0, len(ones) + 1):
        with pytest.raises(IndexError):
            select_bit(mask, k)
    assert list(iter_bits(mask)) == ones
    assert list(iter_bits_reversed(mask)) == ones[::-1]
    bound = st.integers(min_value=0, max_value=width)
    for lo, hi in data.draw(st.lists(st.tuples(bound, bound), max_size=10)):
        assert count_bits(mask, lo, hi) == sum(1 for bit in ones if lo <= bit < hi)
