"""The naive interleaving strawman the introduction argues against.

Section 1 explains why list-labeling algorithms "should not be composable":
if two algorithms ``F`` and ``R`` are simply interleaved in one array — some
elements logically belong to ``F``, some to ``R``, all physically sorted
together — then every rebalance of one algorithm must carry the other
algorithm's elements that lie in the same interval as *deadweight*, and the
combined cost can be arbitrarily worse than either component.

:class:`InterleavedComposition` is a faithful cost model of that strawman,
used by the E-DEAD ablation to quantify how badly it behaves compared to
the paper's embedding.  Each inserted element is routed to the component
whose simulated cost for the operation is lower (the "send it to whichever
is cheaper" heuristic of the introduction); the reported cost of the
operation is the component's own cost *plus* one deadweight move for every
element of the other component whose rank currently falls inside the rank
span the component rearranged.  The class tracks the same statistics as the
embedding (total deadweight, worst per-element deadweight), which is what
the benchmark compares.
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.core.interface import ListLabeler
from repro.core.operations import OperationResult


class InterleavedComposition:
    """Cost model of naively interleaving two list-labeling algorithms."""

    def __init__(
        self,
        capacity: int,
        first_factory: Callable[[int, int | None], ListLabeler],
        second_factory: Callable[[int, int | None], ListLabeler],
    ) -> None:
        self.capacity = capacity
        self._first = first_factory(capacity, None)
        self._second = second_factory(capacity, None)
        #: Which component owns each element, keyed by element.
        self._owner: dict[Hashable, str] = {}
        #: All elements in rank order (the merged logical array).
        self._merged: list[Hashable] = []
        self.total_cost = 0
        self.total_deadweight = 0
        self.deadweight_by_element: dict[Hashable, int] = {}
        self.per_operation_costs: list[int] = []

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._merged)

    def insert(self, rank: int, element: Hashable) -> int:
        """Insert and return the modelled cost of the operation."""
        if not 1 <= rank <= len(self._merged) + 1:
            raise ValueError(f"rank {rank} out of range")
        # Alternate ownership between the two components (the simplest
        # realization of "some elements are logically in X, some in Y"); any
        # routing policy suffers the same deadweight blow-up because the two
        # element populations stay interleaved in rank order.
        owner = "first" if self.size % 2 == 0 else "second"
        if owner == "second" and len(self._second) >= self._second.capacity:
            owner = "first"
        if owner == "first" and len(self._first) >= self._first.capacity:
            owner = "second"
        component = self._first if owner == "first" else self._second
        result = component.insert(self._component_rank(owner, rank), element)

        self._owner[element] = owner
        self._merged.insert(rank - 1, element)

        deadweight = self._deadweight_for(result, owner)
        cost = result.cost + deadweight
        self.total_cost += cost
        self.total_deadweight += deadweight
        self.per_operation_costs.append(cost)
        return cost

    def delete(self, rank: int) -> int:
        if not 1 <= rank <= len(self._merged):
            raise ValueError(f"rank {rank} out of range")
        element = self._merged.pop(rank - 1)
        owner = self._owner.pop(element)
        component = self._first if owner == "first" else self._second
        component_rank = component.rank_of(element)
        result = component.delete(component_rank)
        deadweight = self._deadweight_for(result, owner)
        cost = result.cost + deadweight
        self.total_cost += cost
        self.total_deadweight += deadweight
        self.per_operation_costs.append(cost)
        return cost

    # ------------------------------------------------------------------
    def _component_rank(self, owner: str, merged_rank: int) -> int:
        """Rank within one component of an insertion at ``merged_rank``."""
        count = 0
        for element in self._merged[: merged_rank - 1]:
            if self._owner[element] == owner:
                count += 1
        return count + 1

    def _deadweight_for(self, result: OperationResult, owner: str) -> int:
        """Deadweight incurred by the other component's elements.

        Every element of the *other* component whose merged rank lies within
        the merged-rank span of the elements the owner moved must be carried
        along, exactly once per operation in the best case — the strawman has
        no mechanism to consolidate these moves.
        """
        moved = set(result.moved_elements())
        if not moved:
            return 0
        moved_ranks = [
            index + 1
            for index, element in enumerate(self._merged)
            if element in moved
        ]
        if not moved_ranks:
            return 0
        lo, hi = min(moved_ranks), max(moved_ranks)
        deadweight = 0
        for element in self._merged[lo - 1 : hi]:
            if self._owner.get(element) != owner:
                deadweight += 1
                self.deadweight_by_element[element] = (
                    self.deadweight_by_element.get(element, 0) + 1
                )
        return deadweight

    # ------------------------------------------------------------------
    @property
    def amortized_cost(self) -> float:
        if not self.per_operation_costs:
            return 0.0
        return self.total_cost / len(self.per_operation_costs)

    @property
    def worst_case_cost(self) -> int:
        return max(self.per_operation_costs, default=0)

    @property
    def max_deadweight_per_element(self) -> int:
        return max(self.deadweight_by_element.values(), default=0)
