"""Tests for operations, moves, and result cost accounting."""

from __future__ import annotations

import pytest

from repro.core.operations import (
    DELETE,
    INSERT,
    Move,
    Operation,
    OperationResult,
)
from tests.conftest import recorder


class TestOperation:
    def test_insert_constructor(self):
        operation = Operation.insert(3, key="k")
        assert operation.is_insert and not operation.is_delete
        assert operation.rank == 3
        assert operation.key == "k"

    def test_delete_constructor(self):
        operation = Operation.delete(1)
        assert operation.is_delete
        assert operation.kind == DELETE

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            Operation("upsert", 1)

    def test_rank_must_be_positive(self):
        with pytest.raises(ValueError):
            Operation(INSERT, 0)

    def test_operations_are_hashable_and_frozen(self):
        operation = Operation.insert(1)
        assert hash(operation) == hash(Operation.insert(1))
        with pytest.raises(AttributeError):
            operation.rank = 2


class TestMove:
    def test_placement_costs_one(self):
        move = Move("x", None, 5)
        assert move.is_placement and not move.is_removal
        assert move.cost == 1

    def test_removal_costs_zero(self):
        move = Move("x", 5, None)
        assert move.is_removal
        assert move.cost == 0

    def test_relocation_costs_one(self):
        assert Move("x", 2, 9).cost == 1

    def test_noop_move_costs_zero(self):
        assert Move("x", 4, 4).cost == 0


class TestOperationResult:
    def test_cost_sums_moves(self):
        result = OperationResult(
            Operation.insert(1), recorder(("a", None, 0), ("b", 3, 4), ("c", 7, None))
        )
        assert result.cost == 2
        assert result.moved_elements() == ["a", "b"]

    def test_iteration_yields_moves(self):
        result = OperationResult(Operation.delete(1), recorder(("a", 1, None)))
        assert list(result) == [Move("a", 1, None)]
