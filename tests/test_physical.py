"""Unit tests for the embedding's physical array (slot kinds, chain moves).

Every test runs against both implementations — the slab-backed
:class:`PhysicalArray` and the seed's list-backed
:class:`ReferencePhysicalArray` — via the ``impl`` fixture, so the
differential oracle is held to the same contract as the production slab.
"""

from __future__ import annotations

import pytest

from repro.core.exceptions import InvariantViolation
from repro.core.operations import MoveRecorder, move_triples
from repro.core.physical import (
    BUFFER,
    F_SLOT,
    R_EMPTY,
    PhysicalArray,
    ReferencePhysicalArray,
)
from tests.conftest import recorder

IMPLEMENTATIONS = {
    "slab": PhysicalArray,
    "reference": ReferencePhysicalArray,
}


@pytest.fixture(params=sorted(IMPLEMENTATIONS))
def impl(request):
    """The physical-array class under test."""
    return IMPLEMENTATIONS[request.param]


def build_array(spec: str, cls=PhysicalArray):
    """Build an array from a compact spec string.

    Characters: ``f`` free F-slot, ``b`` dummy buffer, ``.`` R-empty;
    occupied slots are set afterwards via ``put_element``.
    """
    array = cls(len(spec))
    kinds = {"f": F_SLOT, "b": BUFFER, ".": R_EMPTY}
    array.initialize_kinds((i, kinds[c]) for i, c in enumerate(spec))
    return array


class TestBasics:
    def test_counts(self, impl):
        array = build_array("fbf.b.", impl)
        assert array.f_slot_count == 2
        assert array.buffer_count == 2
        assert array.dummy_buffer_count == 2
        assert array.buffered_element_count == 0

    def test_put_take_move(self, impl):
        array = build_array("ff.f", impl)
        array.put_element(0, 10)
        array.put_element(1, 20)
        assert array.elements() == [10, 20]
        array.move_element(1, 3)
        assert array.elements() == [10, 20]
        assert array.position_of(20) == 3
        array.take_element(0)
        assert array.elements() == [20]

    def test_put_on_occupied_rejected(self, impl):
        array = build_array("ff", impl)
        array.put_element(0, 1)
        with pytest.raises(InvariantViolation):
            array.put_element(0, 2)

    def test_f_coordinates(self, impl):
        array = build_array("bf.fbf", impl)
        assert array.f_position(0) == 1
        assert array.f_position(1) == 3
        assert array.f_position(2) == 5
        assert array.f_index_of(3) == 1
        with pytest.raises(ValueError):
            array.f_index_of(0)

    def test_token_rank_skips_empty_slots(self, impl):
        array = build_array("f.bf", impl)
        assert array.token_rank(0) == 1
        assert array.token_rank(2) == 2
        assert array.token_rank(3) == 3
        with pytest.raises(ValueError):
            array.token_rank(1)

    def test_element_at_rank(self, impl):
        array = build_array("ffff", impl)
        array.put_element(1, 5)
        array.put_element(3, 9)
        assert array.element_at_rank(1) == 5
        assert array.element_at_rank(2) == 9


class TestNearestDummy:
    def test_prefers_closer_side_in_token_order(self, impl):
        array = build_array("bffb", impl)
        array.put_element(1, 1)
        array.put_element(2, 2)
        assert array.nearest_dummy_buffer(1) == 0
        assert array.nearest_dummy_buffer(2) == 3

    def test_returns_none_without_dummies(self, impl):
        array = build_array("ff", impl)
        assert array.nearest_dummy_buffer(0) is None


class TestChainMove:
    def test_simple_move_without_deadweight(self, impl):
        array = build_array("fbf", impl)
        array.put_element(0, 10)
        cost = array.chain_move(0, 1)
        assert cost == 1
        assert array.total_deadweight_moves == 0
        # The element now reads at F-index 1 and order is preserved.
        assert array.f_contents() == [None, 10]
        array.check_consistency()

    def test_rightward_move_shifts_buffered_elements(self, impl):
        # Figure 2: an element hops over occupied buffer slots; the buffered
        # elements shift and are counted as deadweight.
        array = build_array("fbbf", impl)
        array.put_element(0, 10)
        array.put_element(1, 20)
        array.put_element(2, 30)
        cost = array.chain_move(0, 1)
        assert cost == 3  # the element plus two deadweight moves
        assert array.total_deadweight_moves == 2
        assert array.elements() == [10, 20, 30]
        assert array.f_contents() == [None, 10]
        array.check_consistency()

    def test_leftward_move_shifts_buffered_elements(self, impl):
        array = build_array("fbbf", impl)
        array.put_element(3, 40)
        array.put_element(1, 20)
        array.put_element(2, 30)
        cost = array.chain_move(3, 0)
        assert cost == 3
        assert array.elements() == [20, 30, 40]
        assert array.f_contents() == [40, None]
        array.check_consistency()

    def test_incorporation_from_buffer_slot(self, impl):
        array = build_array("fbf", impl)
        array.put_element(0, 10)
        array.put_element(1, 15)  # buffered element
        cost = array.chain_move(1, 1)  # incorporate at F-index 1
        assert cost >= 1
        assert array.f_contents() == [10, 15]
        assert array.buffered_element_count == 0
        assert array.dummy_buffer_count == 1
        array.check_consistency()

    def test_kind_counts_preserved(self, impl):
        array = build_array("fbbfbf", impl)
        array.put_element(0, 1)
        array.put_element(1, 2)
        array.put_element(2, 3)
        before = (array.f_slot_count, array.buffer_count)
        array.chain_move(0, 2)
        assert (array.f_slot_count, array.buffer_count) == before
        array.check_consistency()

    def test_move_onto_occupied_f_slot_rejected(self, impl):
        array = build_array("ff", impl)
        array.put_element(0, 1)
        array.put_element(1, 2)
        with pytest.raises(InvariantViolation):
            array.chain_move(0, 1)

    def test_long_sparse_chain_matches_between_implementations(self):
        # A span wider than a machine word, mostly R-empty: the slab reads it
        # as lane windows, the reference scans it slot by slot.
        spec = ["."] * 512
        for position in (0, 2, 4):
            spec[position] = "f"
        for position in (1, 3, 100, 300):
            spec[position] = "b"
        spec[500] = "f"
        spec = "".join(spec)
        results = {}
        for name, cls in IMPLEMENTATIONS.items():
            array = build_array(spec, cls)
            array.put_element(0, "pivot")
            array.put_element(100, "rider")
            # The slab records into a MoveRecorder, the reference into a list.
            sink = MoveRecorder() if cls is PhysicalArray else []
            array.move_sink = sink
            cost = array.chain_move(0, 3)  # rightmost F label: position 500
            array.move_sink = None
            results[name] = (
                cost,
                move_triples(sink),
                list(array.kinds()),
                list(array.slots()),
            )
        for name in IMPLEMENTATIONS:
            assert results[name] == results["reference"], name


class TestShellReplay:
    def test_placement_and_removal(self, impl):
        array = build_array("f..", impl)
        cost = array.apply_shell_moves(recorder(("token-1", None, 1)))
        assert cost == 0
        assert array.kind(1) == BUFFER
        cost = array.apply_shell_moves(recorder(("token-1", 1, None)))
        assert cost == 0
        assert array.kind(1) == R_EMPTY

    def test_token_move_carries_content(self, impl):
        array = build_array("f.b", impl)
        array.put_element(0, 10)
        cost = array.apply_shell_moves(recorder(("token-f", 0, 1)))
        assert cost == 1
        assert array.kind(0) == R_EMPTY
        assert array.kind(1) == F_SLOT
        assert array.position_of(10) == 1

    def test_move_onto_nonempty_rejected(self, impl):
        array = build_array("fb", impl)
        with pytest.raises(InvariantViolation):
            array.apply_shell_moves(recorder(("t", 0, 1)))

    def test_remove_and_replace_token_restores_content(self, impl):
        array = build_array("f..", impl)
        array.put_element(0, 7)
        cost = array.apply_shell_moves(
            recorder(("token", 0, None), ("token", None, 2))
        )
        assert cost == 1
        assert array.kind(2) == F_SLOT
        assert array.position_of(7) == 2


def _flip_lane(name, bit):
    def corrupt(array):
        setattr(array, name, getattr(array, name) ^ 1 << bit)

    return corrupt


def _element_bit_without_element(array):
    array._state[2] |= 4
    array._real |= 1 << 2


class TestSlabConsistencyCheck:
    """``PhysicalArray.check_consistency`` re-derives the three lanes and
    the F-position table from the state slab, so a stale copy of any of
    them is an invariant violation."""

    @pytest.mark.parametrize(
        "corrupt",
        [
            _flip_lane("_f", 3),
            _flip_lane("_nonempty", 3),
            _flip_lane("_real", 2),
            lambda array: array._f_positions.__setitem__(1, 4),
            lambda array: array._f_positions.pop(),
            _element_bit_without_element,
        ],
        ids=[
            "f-lane",
            "nonempty-lane",
            "element-lane",
            "f-table-entry",
            "f-table-length",
            "element-bit",
        ],
    )
    def test_stale_index_is_an_invariant_violation(self, corrupt):
        array = build_array("fbf.bf.f", PhysicalArray)
        array.put_element(0, 1)
        array.put_element(1, 2)
        array.check_consistency()
        corrupt(array)
        with pytest.raises(InvariantViolation):
            array.check_consistency()
