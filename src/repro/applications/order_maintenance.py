"""Order maintenance on top of list labeling.

The order-maintenance problem (Dietz [23]; Bender et al. [5, 6]) asks for a
data structure over opaque items supporting ``insert_after(x, y)``,
``insert_before(x, y)``, ``delete(x)`` and ``precedes(x, y)`` — the classic
substrate for persistence, fully-dynamic graph algorithms and MVCC version
ordering.  The textbook solution is exactly a list-labeling structure: each
item's *label* is its array slot, and ``precedes`` compares labels in O(1).

Any :class:`repro.core.interface.ListLabeler` works as the backend except
the sharding engine, which finds an element by key order and so cannot
hold opaque items; with the layered structure of Corollary 11 the
order-maintenance operations inherit its worst-case, expected and adaptive
move bounds.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterator

from repro.core.cost import CostTracker
from repro.core.interface import ListLabeler
from repro.core.layered import make_corollary11_labeler


class OrderMaintenance:
    """Maintain a total order over opaque items under insertions/deletions."""

    def __init__(
        self,
        capacity: int,
        labeler_factory: Callable[[int], ListLabeler] | None = None,
    ) -> None:
        if labeler_factory is None:
            labeler_factory = lambda cap: make_corollary11_labeler(cap)
        self._labeler = labeler_factory(capacity)
        #: Items in their current order; mirrors the labeler's contents.
        self._order: list[Hashable] = []
        self._present: set[Hashable] = set()
        self.costs = CostTracker()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._present

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._labeler.elements())

    # ------------------------------------------------------------------
    def _insert_at(self, position: int, item: Hashable) -> None:
        if item in self._present:
            raise ValueError(f"item {item!r} is already in the order")
        result = self._labeler.insert(position + 1, item)
        self.costs.record(result.cost)
        self._order.insert(position, item)
        self._present.add(item)

    def insert_first(self, item: Hashable) -> None:
        """Insert ``item`` as the first element of the order."""
        self._insert_at(0, item)

    def insert_last(self, item: Hashable) -> None:
        """Insert ``item`` as the last element of the order."""
        self._insert_at(len(self._order), item)

    def insert_after(self, anchor: Hashable, item: Hashable) -> None:
        """Insert ``item`` immediately after ``anchor``."""
        self._insert_at(self._position(anchor) + 1, item)

    def insert_before(self, anchor: Hashable, item: Hashable) -> None:
        """Insert ``item`` immediately before ``anchor``."""
        self._insert_at(self._position(anchor), item)

    def delete(self, item: Hashable) -> None:
        """Remove ``item`` from the order."""
        position = self._position(item)
        result = self._labeler.delete(position + 1)
        self.costs.record(result.cost)
        self._order.pop(position)
        self._present.remove(item)

    # ------------------------------------------------------------------
    def precedes(self, first: Hashable, second: Hashable) -> bool:
        """Whether ``first`` comes before ``second`` — an O(1) label compare."""
        return self.label_of(first) < self.label_of(second)

    def label_of(self, item: Hashable) -> int:
        """The item's current label (its slot in the labeling array)."""
        if item not in self._present:
            raise KeyError(f"item {item!r} is not in the order")
        return self._labeler.slot_of(item)

    def _position(self, item: Hashable) -> int:
        if item not in self._present:
            raise KeyError(f"item {item!r} is not in the order")
        # The labeler's occupancy index answers rank queries;
        # the mirror list is kept only for validation in :meth:`check`.
        return self._labeler.rank_of(item) - 1

    # ------------------------------------------------------------------
    def check(self) -> None:
        """Validate that labels are consistent with the logical order."""
        if list(self._labeler.elements()) != self._order:
            raise AssertionError("labeler order diverged from the logical order")
        labels = [self.label_of(item) for item in self._order]
        if labels != sorted(labels):
            raise AssertionError("labels are not monotone in the logical order")
