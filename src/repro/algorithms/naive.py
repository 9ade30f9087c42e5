"""Naive baselines: shift-to-fit list labeling.

:class:`NaiveLabeler` keeps all elements packed at the front of the array and
shifts a suffix by one slot on every insertion/deletion; its cost is
``Θ(n - r)`` per operation — the textbook strawman every PMA improves on and
a convenient "arbitrarily bad fast algorithm" to stress the General-Cost
guarantee of Theorem 2 (experiment E-GEN).

:class:`SparseNaiveLabeler` spreads elements evenly but rebuilds the whole
array whenever the local neighbourhood of an insertion is full — a slightly
less pessimal baseline whose worst case is still ``Θ(n)``.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.algorithms.base import DenseArrayLabeler
from repro.core.operations import Operation, OperationResult


class NaiveLabeler(DenseArrayLabeler):
    """Left-packed array with suffix shifting.

    Insertion at rank ``r`` moves every element of rank ``>= r`` one slot to
    the right (cost ``size - r + 2`` including the placement); deletion moves
    the suffix back.  Amortized and worst-case costs are both ``Θ(n)`` for
    adversarial (front-loaded) inputs and ``O(1)`` for append-only inputs.
    """

    #: The naive labeler does not need slack, but keep one extra slot so the
    #: structure is a legal list-labeling array of size ``(1 + Θ(1))n``.
    default_slack = 0.05

    def _insert(self, rank: int, element: Hashable) -> OperationResult:
        result = self._begin(Operation.insert(rank))
        index = rank - 1  # elements occupy slots [0, size)
        # Shift the suffix right by one, right-to-left.
        for position in range(self.size - 1, index - 1, -1):
            self._move(position, position + 1)
        self._place(index, element)
        self._finish()
        return result

    def _delete(self, rank: int) -> OperationResult:
        result = self._begin(Operation.delete(rank))
        index = rank - 1
        self._remove(index)
        for position in range(index + 1, self.size):
            self._move(position, position - 1)
        self._finish()
        return result

    # ------------------------------------------------------------------
    # Batched operations: one suffix rewrite for the whole batch
    # ------------------------------------------------------------------
    #: The singleton loop shifts the suffix once *per insertion*, so the
    #: merged rewrite (each displaced element moves exactly once) wins for
    #: any batch of two or more.
    batch_merge_threshold = 2

    def _batch_window(self, rank_lo: int, rank_hi: int, extra: int) -> tuple[int, int]:
        # Left-packed layout: everything from the first affected rank to the
        # end of the array is rewritten; elements below it stay put.
        return rank_lo - 1, self.num_slots

    def _batch_targets(self, lo: int, hi: int, count: int) -> list[int]:
        return list(range(lo, lo + count))

    def _bulk_targets(self, count: int) -> list[int]:
        # The even spread of the base class would violate the left-packed
        # invariant every other operation relies on.
        return list(range(count))

    def _delete_batch(self, prepared: Sequence[int]) -> list[OperationResult]:
        """Remove all batch ranks, then compact the suffix in one pass."""
        if len(prepared) < 2:
            return super()._delete_batch(prepared)
        result = self._begin(Operation.delete(prepared[-1]))
        try:
            size_before = self.size
            for rank in prepared:  # descending: slots are pre-batch ranks - 1
                self._remove(rank - 1)
            write = prepared[-1] - 1  # the leftmost freed slot
            for read in range(write + 1, size_before):
                if self._slots[read] is not None:
                    self._move(read, write)
                    write += 1
        finally:
            self._finish()
        self._size -= len(prepared)
        return [result]


class SparseNaiveLabeler(DenseArrayLabeler):
    """Evenly spread array with full rebuilds when a neighbourhood is packed.

    Insertions go to a free slot adjacent to the predecessor when one exists
    (cost ``O(1)``); otherwise the entire array is rebuilt with even spacing
    (cost ``Θ(n)``).  This mimics the behaviour of naive database page
    layouts that periodically reorganize the whole file.
    """

    default_slack = 0.5

    def _insert(self, rank: int, element: Hashable) -> OperationResult:
        result = self._begin(Operation.insert(rank))
        target = self._insertion_gap(rank)
        if target is None:
            self._rebuild_with(rank, element)
        else:
            self._place(target, element)
        self._finish()
        return result

    def _delete(self, rank: int) -> OperationResult:
        result = self._begin(Operation.delete(rank))
        self._remove(self.slot_of_rank(rank))
        self._finish()
        return result

    # ------------------------------------------------------------------
    def _insertion_gap(self, rank: int) -> int | None:
        """A free slot between the rank's neighbours, if one exists."""
        left, right = self._neighbour_slots(rank)
        if right - left > 1:
            # Any slot strictly between the neighbours keeps sorted order.
            return left + 1 + (right - left - 1) // 2
        return None

    def _rebuild_with(self, rank: int, element: Hashable) -> None:
        """Rebuild the array evenly with ``element`` inserted at ``rank``."""
        contents = self.elements()
        contents.insert(rank - 1, element)
        while self._occupied:
            self._remove(self.slot_of_rank(1))
        targets = self.even_targets(0, self.num_slots, len(contents))
        for item, target in zip(contents, targets):
            self._place(target, item)
