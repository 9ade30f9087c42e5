"""The classical packed-memory array (Itai–Konheim–Rodeh [31]).

This is the 1981 density-threshold algorithm that achieves amortized
``O(log² n)`` cost per operation and is the workhorse of every PMA-based
database index.  The array is divided into ``Θ(log n)``-sized leaf segments;
the segments are the leaves of an implicit binary tree of *windows*.  Each
tree level has upper and lower density thresholds, interpolated between leaf
and root.  An insertion that overfills its leaf rebalances (evenly spreads)
the smallest enclosing window whose density is within threshold; deletions
do the symmetric thing against the lower thresholds.

The class is written so the other PMA variants in this package only override
two policy hooks:

* :meth:`_window_bounds` — which physical window a level-``l`` rebalance
  covers (the randomized variant shifts it by a random offset);
* :meth:`_rebalance_targets` — where the window's elements are placed
  (the adaptive variant skews gaps toward insertion hotspots).
"""

from __future__ import annotations

import math
from typing import Hashable, Sequence

from repro.algorithms.base import DenseArrayLabeler
from repro.core.exceptions import InvariantViolation
from repro.core.operations import Operation, OperationResult


class ClassicalPMA(DenseArrayLabeler):
    """Density-threshold packed-memory array with amortized O(log² n) cost."""

    default_slack = 0.5

    #: Density thresholds: leaves may fill completely, the root is kept at
    #: ``tau_root``; lower thresholds are only enforced on deletion.
    tau_leaf = 1.0
    tau_root = 0.75
    delta_leaf = 0.05
    delta_root = 0.25

    def __init__(
        self,
        capacity: int,
        num_slots: int | None = None,
        *,
        segment_size: int | None = None,
    ) -> None:
        super().__init__(capacity, num_slots)
        if segment_size is None:
            segment_size = max(2, int(math.ceil(math.log2(max(2, self.num_slots)))))
        self._segment_size = segment_size
        self._num_segments = max(1, math.ceil(self.num_slots / segment_size))
        self._height = max(1, math.ceil(math.log2(self._num_segments)))
        # The root density can never be below the fill ratio at capacity,
        # otherwise the structure could not reach its declared capacity.
        fill_at_capacity = self.capacity / self.num_slots
        self._tau_root = max(self.tau_root, min(0.98, fill_at_capacity + 0.02))
        self._tau_leaf = max(self.tau_leaf, self._tau_root)
        # Statistics useful to the experiments.
        self.rebalance_count = 0
        self.rebalance_moves = 0
        self.rebalances_by_level: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Geometry and thresholds
    # ------------------------------------------------------------------
    @property
    def segment_size(self) -> int:
        return self._segment_size

    @property
    def height(self) -> int:
        """Number of window levels above the leaves."""
        return self._height

    def leaf_of(self, slot: int) -> int:
        """Index of the leaf segment containing ``slot``."""
        return slot // self._segment_size

    def upper_threshold(self, level: int) -> float:
        """Maximum density allowed for a level-``level`` window."""
        fraction = min(1.0, level / self._height)
        return self._tau_leaf - (self._tau_leaf - self._tau_root) * fraction

    def lower_threshold(self, level: int) -> float:
        """Minimum density required of a level-``level`` window."""
        fraction = min(1.0, level / self._height)
        return self.delta_leaf + (self.delta_root - self.delta_leaf) * fraction

    def _window_bounds(self, slot: int, level: int) -> tuple[int, int]:
        """Physical bounds ``[lo, hi)`` of the level-``level`` window at ``slot``.

        Level 0 is a single leaf segment; level ``l`` spans ``2^l`` segments
        aligned to multiples of ``2^l`` segments.  Subclasses may override
        (e.g. to randomize alignment), provided the window contains ``slot``.
        """
        span = self._segment_size * (1 << level)
        lo = (slot // span) * span
        hi = min(self.num_slots, lo + span)
        return lo, hi

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def _insert(self, rank: int, element: Hashable) -> OperationResult:
        result = self._begin(Operation.insert(rank))
        try:
            self._insert_impl(rank, element)
        finally:
            self._finish()
        return result

    def _insert_impl(self, rank: int, element: Hashable) -> None:
        self._insert_between(*self._neighbour_slots(rank), rank, element)

    def _insert_between(
        self, pred_slot: int, succ_slot: int, rank: int, element: Hashable
    ) -> None:
        """Insert ``element`` at ``rank``, between its neighbours' slots."""
        anchor = pred_slot if pred_slot >= 0 else min(succ_slot, self.num_slots - 1)
        anchor = max(0, min(anchor, self.num_slots - 1))

        if succ_slot - pred_slot > 1:
            # A free slot already separates the neighbours: place directly.
            self._place(pred_slot + 1 + (succ_slot - pred_slot - 1) // 2, element)
            self._maybe_rebalance_after_insert(anchor)
            return

        # Neighbours are adjacent: make room within the leaf when possible.
        leaf_lo, leaf_hi = self._window_bounds(anchor, 0)
        gap = self._find_gap_in(leaf_lo, leaf_hi, pred_slot, succ_slot)
        if gap is not None:
            self._shift_gap_to(gap, pred_slot + 1 if gap > pred_slot else pred_slot)
            # After shifting, the free slot sits right next to the predecessor.
            target = pred_slot + 1 if gap > pred_slot else pred_slot
            self._place(target, element)
            self._maybe_rebalance_after_insert(anchor)
            return

        # The leaf is full: rebalance the smallest within-threshold window,
        # inserting the new element as part of the redistribution.
        self._rebalance_for_insert(anchor, rank, element)

    def _find_gap_in(
        self, lo: int, hi: int, pred_slot: int, succ_slot: int
    ) -> int | None:
        """A free slot in ``[lo, hi)`` adjacent (in rank order) to the gap.

        Returns a free slot that can be shifted next to the predecessor
        without crossing other windows, or ``None`` if the leaf is full.
        """
        if self.occupied_in(lo, hi) >= hi - lo:
            return None
        left = self.free_slot_left(max(lo, min(pred_slot, hi - 1))) if pred_slot >= lo else None
        if left is not None and left >= lo:
            return left
        start = max(lo, min(succ_slot, hi - 1))
        right = self.free_slot_right(start)
        if right is not None and right < hi:
            return right
        return None

    def _maybe_rebalance_after_insert(self, anchor: int) -> None:
        """Classical post-insertion density check starting at the leaf."""
        lo, hi = self._window_bounds(anchor, 0)
        density = self.occupied_in(lo, hi) / (hi - lo)
        if density <= self.upper_threshold(0):
            return
        self._rebalance_up(anchor, insert_rank=None, insert_element=None)

    def _rebalance_for_insert(self, anchor: int, rank: int, element: Hashable) -> None:
        self._rebalance_up(anchor, insert_rank=rank, insert_element=element)

    def _rebalance_up(
        self,
        anchor: int,
        insert_rank: int | None,
        insert_element: Hashable | None,
    ) -> None:
        """Find the smallest within-threshold enclosing window and rebalance it."""
        extra = 1 if insert_element is not None else 0
        for level in range(0, self._height + 1):
            lo, hi = self._window_bounds(anchor, level)
            count = self.occupied_in(lo, hi) + extra
            if count <= (hi - lo) * self.upper_threshold(level) or (lo, hi) == (0, self.num_slots):
                if count > hi - lo:
                    raise InvariantViolation(
                        "window cannot hold its elements; capacity accounting is broken"
                    )
                self._rebalance(level, lo, hi, insert_rank, insert_element)
                return
        raise InvariantViolation("no window could absorb the insertion")

    # ------------------------------------------------------------------
    # Batched insertion: merge the batch into one PMA window
    # ------------------------------------------------------------------
    def _batch_window(self, rank_lo: int, rank_hi: int, extra: int) -> tuple[int, int]:
        """Smallest union of within-threshold PMA windows covering the batch.

        Instead of the generic doubling of the base class, the window is the
        span of the level-``l`` windows containing the batch's extreme rank
        neighbours, for the smallest level whose density threshold can
        absorb the merged contents — the natural batched generalization of
        :meth:`_rebalance_up`, so the post-merge state is exactly the state
        a (single) classical rebalance of that window would leave.
        """
        if self.size == 0:
            self._batch_level = self._height
            return 0, self.num_slots
        anchor_lo = self.slot_of_rank(min(rank_lo, self.size))
        anchor_hi = self.slot_of_rank(min(max(rank_hi - 1, 1), self.size))
        for level in range(self._height + 1):
            lo = self._window_bounds(anchor_lo, level)[0]
            hi = self._window_bounds(anchor_hi, level)[1]
            count = self.occupied_in(lo, hi) + extra
            at_root = (lo, hi) == (0, self.num_slots)
            if count <= (hi - lo) * self.upper_threshold(level) or at_root:
                self._batch_level = level
                return lo, hi
        # Unreachable: the level-``height`` window spans the whole array,
        # so the loop always returns at or before its last iteration.
        raise InvariantViolation("no window could absorb the batch")

    def _batch_targets(self, lo: int, hi: int, count: int) -> list[int]:
        """Lay the merged window out with the algorithm's rebalance policy."""
        return self._rebalance_targets(lo, hi, count, None)

    def _after_batch_merge(self, lo: int, hi: int) -> None:
        """Account the merged layout as one rebalance of the chosen level."""
        level = getattr(self, "_batch_level", 0)
        self.rebalance_count += 1
        if self._current_moves is not None:
            self.rebalance_moves += self._current_moves.total_cost
        self.rebalances_by_level[level] = self.rebalances_by_level.get(level, 0) + 1

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _snapshot_extra(self) -> dict:
        extra = super()._snapshot_extra()
        extra["pma"] = {
            "rebalance_count": self.rebalance_count,
            "rebalance_moves": self.rebalance_moves,
            "rebalances_by_level": sorted(self.rebalances_by_level.items()),
        }
        return extra

    def _restore_extra(self, extra: dict) -> None:
        super()._restore_extra(extra)
        pma = extra.get("pma")
        if pma:
            self.rebalance_count = pma["rebalance_count"]
            self.rebalance_moves = pma["rebalance_moves"]
            self.rebalances_by_level = {
                int(level): count for level, count in pma["rebalances_by_level"]
            }

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def _delete(self, rank: int) -> OperationResult:
        result = self._begin(Operation.delete(rank))
        try:
            slot = self.slot_of_rank(rank)
            self._remove(slot)
            self._maybe_rebalance_after_delete(slot)
        finally:
            self._finish()
        return result

    def _maybe_rebalance_after_delete(self, anchor: int) -> None:
        if self.size <= 2 * self._segment_size:
            return  # Nearly empty structures do not need density control.
        lo, hi = self._window_bounds(anchor, 0)
        density = self.occupied_in(lo, hi) / (hi - lo)
        if density >= self.lower_threshold(0):
            return
        for level in range(1, self._height + 1):
            lo, hi = self._window_bounds(anchor, level)
            density = self.occupied_in(lo, hi) / (hi - lo)
            if density >= self.lower_threshold(level) or (lo, hi) == (0, self.num_slots):
                self._rebalance(level, lo, hi, None, None)
                return

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------
    def _rebalance_targets(
        self,
        lo: int,
        hi: int,
        count: int,
        insert_slot_hint: int | None,
    ) -> list[int]:
        """Target slots for a rebalance of ``[lo, hi)`` holding ``count`` elements.

        The classical PMA spreads evenly; subclasses override this hook.
        ``insert_slot_hint`` is the position (index into the contents list)
        of a just-inserted element, which adaptive variants use to skew gaps.
        """
        return self.even_targets(lo, hi, count)

    def _rebalance(
        self,
        level: int,
        lo: int,
        hi: int,
        insert_rank: int | None,
        insert_element: Hashable | None,
    ) -> None:
        """Evenly redistribute ``[lo, hi)``, optionally inserting an element."""
        contents: list[Hashable] = [
            item for item in self._slots[lo:hi] if item is not None
        ]
        insert_pos: int | None = None
        if insert_element is not None:
            assert insert_rank is not None
            # Position of the new element among the window contents: the
            # number of stored elements of rank < insert_rank that live in
            # this window.
            below_window = self.occupied_in(0, lo)
            insert_pos = min(len(contents), max(0, (insert_rank - 1) - below_window))
            contents = contents[:insert_pos] + [insert_element] + contents[insert_pos:]

        targets = self._rebalance_targets(lo, hi, len(contents), insert_pos)
        if len(targets) != len(contents):
            raise InvariantViolation("rebalance targets must match contents")

        moves_before = len(self._current_moves) if self._current_moves is not None else 0
        self._execute_rebalance(lo, hi, contents, targets, insert_pos)
        moves_after = len(self._current_moves) if self._current_moves is not None else 0

        self.rebalance_count += 1
        self.rebalance_moves += moves_after - moves_before
        self.rebalances_by_level[level] = self.rebalances_by_level.get(level, 0) + 1

    def _execute_rebalance(
        self,
        lo: int,
        hi: int,
        contents: list[Hashable],
        targets: list[int],
        insert_pos: int | None,
    ) -> None:
        """Physically rewrite the window.

        A newly inserted element (the one at index ``insert_pos`` of
        ``contents``) is placed into its — by then free — target slot after
        the existing elements have been moved by the shared two-pass
        monotone rewrite.
        """
        fresh = () if insert_pos is None else (insert_pos,)
        self._layout_window(contents, targets, fresh)
