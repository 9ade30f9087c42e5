"""Shared machinery for array-based list-labeling algorithms.

:class:`DenseArrayLabeler` owns the physical slot array, an occupancy
bitmask and a per-operation move recorder.  Concrete algorithms (the naive
labeler, the PMA family) only implement placement and rebalancing policy on
top of the primitive :meth:`_move`, :meth:`_place` and :meth:`_remove`
operations, which flip the occupancy bits and keep the move log accurate.
Because the slot list is sorted, a key search
(:meth:`DenseArrayLabeler.count_below`) bisects the slots directly instead
of selecting rank by rank.

Definition 1 charges only element moves, so the occupancy index is
bookkeeping, kept as one Python int whose bit ``i`` is set while slot ``i``
holds an element.  Every occupancy question is a stdlib int operation: a
masked ``bit_count()`` counts a slot window or a rank prefix, the highest
or lowest clear bit of a masked complement is the nearest free slot, the
lowest set bit above a slot is the next element, and a select halves the
mask by popcount down to one byte and reads a 256-entry table
(:func:`repro.core.bitmask.select_bit`).

Batch execution: the class overrides the :meth:`_insert_batch` hook of the
interface with a *merged rebalance* — the batch is sorted, merged with the
contents of the smallest slot window that can absorb it, and the result is
laid out with a single two-pass monotone rewrite (:meth:`_layout_window`).
One rebalance serves the whole batch instead of one cascade per element,
which is what makes bulk loads cheap; subclasses customize the window choice
(:meth:`_batch_window`) and the slot targets (:meth:`_batch_targets`).
A sorted key batch is ranked in one call
(:meth:`DenseArrayLabeler.count_below_sorted`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Hashable, Iterator, Sequence

from repro.core.bitmask import count_bits, select_bit
from repro.core.exceptions import CapacityError, LabelerError
from repro.core.interface import ListLabeler
from repro.core.operations import MoveRecorder, Operation, OperationResult


def _bitmask_of(slots: list) -> int:
    """The occupancy bitmask of ``slots``, parsed from its base-2 digits
    (``48``/``49`` are ``b"0"``/``b"1"``) in ``O(m)``; ORing in one bit per
    element would copy the mask each time."""
    return int(bytes([48 if item is None else 49 for item in reversed(slots)]), 2)


class DenseArrayLabeler(ListLabeler):
    """Base class for labelers storing elements directly in a slot list."""

    #: Insert batches smaller than this fall back to the singleton loop —
    #: a merged window rewrite only pays off once it amortizes over enough
    #: elements.
    batch_merge_threshold = 8

    #: Maximum post-merge density of the chosen batch window; the window is
    #: grown until the merged contents fit below this fill ratio (or the
    #: whole array is reached), so the next few singleton insertions do not
    #: immediately hit a packed neighbourhood.
    batch_fill_limit = 0.85

    def __init__(self, capacity: int, num_slots: int | None = None) -> None:
        super().__init__(capacity, num_slots)
        self._slots: list[Hashable | None] = [None] * self.num_slots
        #: Bit ``i`` is set while slot ``i`` holds an element.
        self._occupied = 0
        self._position: dict[Hashable, int] = {}
        self._current_moves: MoveRecorder | None = None

    # ------------------------------------------------------------------
    # Physical state
    # ------------------------------------------------------------------
    def slots(self) -> Sequence[Hashable | None]:
        return tuple(self._slots)

    def raw_slots(self) -> list[Hashable | None]:
        """Mutable view for subclasses; callers must not modify it."""
        return self._slots

    def occupied_in(self, lo: int, hi: int) -> int:
        """Number of occupied slots in ``[lo, hi)``."""
        return count_bits(self._occupied, lo, hi)

    def slot_of_rank(self, rank: int) -> int:
        """Physical slot of the element with the given 1-based rank."""
        return select_bit(self._occupied, rank)

    def _neighbour_slots(self, rank: int) -> tuple[int, int]:
        """Slots of the elements of ranks ``rank - 1`` and ``rank``, with
        ``-1`` and ``num_slots`` standing in for a missing neighbour.

        One select finds the predecessor; the successor is the lowest
        occupied slot above it.
        """
        pred_slot = self.slot_of_rank(rank - 1) if rank > 1 else -1
        above = self._occupied >> (pred_slot + 1)
        if not above:
            return pred_slot, self._num_slots
        return pred_slot, pred_slot + (above & -above).bit_length()

    def slot_of(self, element: Hashable) -> int:
        """Physical slot currently holding ``element`` (``O(1)``)."""
        try:
            return self._position[element]
        except KeyError:
            raise KeyError(f"element {element!r} is not stored") from None

    def contains(self, element: Hashable) -> bool:
        """Whether ``element`` is currently stored."""
        return element in self._position

    def rank_at_slot(self, index: int) -> int:
        """1-based rank of the element stored at ``index`` (one prefix
        popcount); raises :class:`ValueError` on an empty slot."""
        occupied = self._occupied
        if not (occupied >> index) & 1:
            raise ValueError(f"slot {index} is not occupied")
        return (occupied & ((1 << index) - 1)).bit_count() + 1

    def rank_of(self, element: Hashable) -> int:
        """1-based rank of ``element`` (one prefix popcount)."""
        return self.rank_at_slot(self.slot_of(element))

    # ------------------------------------------------------------------
    # Read path: occupancy selects and streaming slot walks
    # ------------------------------------------------------------------
    def select(self, rank: int) -> Hashable:
        """The ``rank``-th element via one occupancy select."""
        self._check_read_rank(rank, "select")
        return self._slots[select_bit(self._occupied, rank)]

    def _iter_from(self, rank: int) -> "Iterator[Hashable]":
        """Seek the start slot once, then stream the slot slab rightward."""
        if rank > self._size:
            return
        slots = self._slots
        for index in range(select_bit(self._occupied, rank), self.num_slots):
            item = slots[index]
            if item is not None:
                yield item

    def count_range(self, lo: int, hi: int) -> int:
        """Stored elements in the slot window ``[lo, hi)`` (one popcount)."""
        return self.occupied_in(max(0, lo), min(self.num_slots, hi))

    def count_below(self, key, *, strict: bool = True) -> int:
        """Stored elements ``< key`` (``<= key`` when not strict).

        A binary search over the slot list itself: a probe that lands on a
        gap steps right to the next element inside the search window, and
        the boundary slot found is turned into a count with one prefix
        popcount.  ``O(log m)`` probes plus the gaps stepped over, against
        ``O(log n)`` occupancy selects for the rank search of the base
        class.
        """
        slots = self._slots
        lo, hi = 0, self._num_slots
        # Invariant: every element left of ``lo`` is below the key, and
        # the first element at or after ``hi`` (if any) is not.
        while lo < hi:
            mid = (lo + hi) // 2
            probe = mid
            while probe < hi and slots[probe] is None:
                probe += 1
            if probe == hi:
                hi = mid
                continue
            element = slots[probe]
            if element < key if strict else element <= key:
                lo = probe + 1
            else:
                hi = mid
        return (self._occupied & ((1 << lo) - 1)).bit_count()

    def count_below_sorted(self, keys: Sequence) -> list[int]:
        """``count_below(key)`` for every key of an ascending sequence.

        The stored elements are copied into one list and each key is
        bisected there, so the search runs at C speed instead of one
        Python slot bisection per key.
        """
        stored = [item for item in self._slots if item is not None]
        return [bisect_left(stored, key) for key in keys]

    def free_slot_left(self, index: int) -> int | None:
        """Nearest free slot at or to the left of ``index`` (or ``None``)."""
        free = ~self._occupied & ((1 << (index + 1)) - 1)
        return free.bit_length() - 1 if free else None

    def free_slot_right(self, index: int) -> int | None:
        """Nearest free slot at or to the right of ``index`` (or ``None``)."""
        occupied = self._occupied >> index
        # ``~x & (x + 1)`` isolates the lowest clear bit of ``x``.
        slot = index + (~occupied & (occupied + 1)).bit_length() - 1
        return slot if slot < self._num_slots else None

    # ------------------------------------------------------------------
    # Move-recorded primitives
    # ------------------------------------------------------------------
    def _begin(self, operation: Operation) -> OperationResult:
        # Recorder-backed move log: the rebalance loops append raw triples
        # instead of allocating one frozen Move dataclass per element moved.
        result = OperationResult(operation, MoveRecorder())
        self._current_moves = result.moves
        return result

    def _finish(self) -> None:
        self._current_moves = None

    def _record(self, element: Hashable, source: int | None, destination: int | None) -> None:
        if self._current_moves is not None:
            self._current_moves.record(element, source, destination)

    def _place(self, index: int, element: Hashable) -> None:
        """Place a brand-new element into a free slot."""
        if self._slots[index] is not None:
            raise RuntimeError(f"slot {index} is occupied; cannot place {element!r}")
        self._slots[index] = element
        self._occupied |= 1 << index
        self._position[element] = index
        self._record(element, None, index)

    def _remove(self, index: int) -> Hashable:
        """Remove and return the element stored at ``index``."""
        element = self._slots[index]
        if element is None:
            raise RuntimeError(f"slot {index} is empty; nothing to remove")
        self._slots[index] = None
        self._occupied ^= 1 << index
        del self._position[element]
        self._record(element, index, None)
        return element

    def _move(self, src: int, dst: int) -> None:
        """Move the element at ``src`` into the free slot ``dst``."""
        if src == dst:
            return
        element = self._slots[src]
        if element is None:
            raise RuntimeError(f"slot {src} is empty; nothing to move")
        if self._slots[dst] is not None:
            raise RuntimeError(f"slot {dst} is occupied; cannot move into it")
        self._slots[src] = None
        self._slots[dst] = element
        self._occupied ^= (1 << src) | (1 << dst)
        self._position[element] = dst
        self._record(element, src, dst)

    # ------------------------------------------------------------------
    # Common manoeuvres
    # ------------------------------------------------------------------
    def _shift_gap_to(self, gap: int, target: int) -> None:
        """Shift the free slot at ``gap`` until it sits at ``target``.

        Elements between the two positions each move by one slot; this is the
        classic make-room-by-shifting primitive and costs ``|gap - target|``
        minus the number of free slots encountered on the way.
        """
        if gap == target:
            return
        step = 1 if target > gap else -1
        position = gap
        while position != target:
            neighbour = position + step
            if self._slots[neighbour] is None:
                position = neighbour
                continue
            self._move(neighbour, position)
            position = neighbour

    # ------------------------------------------------------------------
    # Batched insertion: one merged rebalance for the whole batch
    # ------------------------------------------------------------------
    def _insert_batch(
        self, prepared: Sequence[tuple[int, Hashable]]
    ) -> list[OperationResult]:
        if len(prepared) < self.batch_merge_threshold:
            return super()._insert_batch(prepared)
        result = self._begin(Operation.insert(prepared[0][0]))
        try:
            self._merge_batch(prepared)
        finally:
            self._finish()
        self._size += len(prepared)
        return [result]

    def _merge_batch(self, prepared: Sequence[tuple[int, Hashable]]) -> None:
        """Merge a rank-sorted batch into one window with a single rewrite."""
        rank_lo = prepared[0][0]
        rank_hi = prepared[-1][0]
        lo, hi = self._batch_window(rank_lo, rank_hi, len(prepared))
        below = self.occupied_in(0, lo)
        window = [item for item in self._slots[lo:hi] if item is not None]

        # Interleave: a batch item of pre-batch rank r goes immediately
        # before the stored element of rank r; window element j (0-based)
        # holds pre-batch rank below + j + 1, and the window always covers
        # ranks [rank_lo, rank_hi - 1], so every local index is in range.
        contents: list[Hashable] = []
        fresh: list[int] = []
        consumed = 0
        for rank, element in prepared:
            local = rank - below - 1
            if consumed < local:
                contents.extend(window[consumed:local])
                consumed = local
            fresh.append(len(contents))
            contents.append(element)
        contents.extend(window[consumed:])

        targets = self._batch_targets(lo, hi, len(contents))
        self._layout_window(contents, targets, fresh)
        self._after_batch_merge(lo, hi)

    def _batch_window(self, rank_lo: int, rank_hi: int, extra: int) -> tuple[int, int]:
        """Smallest slot window that can absorb ``extra`` new elements.

        The window always contains the slots of the stored elements with
        ranks in ``[rank_lo, rank_hi - 1]`` (the rank neighbours of every
        batch item) and is grown symmetrically until the merged contents fit
        under :attr:`batch_fill_limit`, falling back to the whole array.
        """
        m = self.num_slots
        if self.size == 0:
            return 0, m
        lo = self.slot_of_rank(min(rank_lo, self.size))
        hi = self.slot_of_rank(min(max(rank_hi - 1, 1), self.size)) + 1
        while (lo, hi) != (0, m):
            width = hi - lo
            if self.occupied_in(lo, hi) + extra <= width * self.batch_fill_limit:
                break
            grow = max(1, width // 2)
            lo = max(0, lo - grow)
            hi = min(m, hi + grow)
        return lo, hi

    def _batch_targets(self, lo: int, hi: int, count: int) -> list[int]:
        """Slot targets for a merged batch layout; subclasses override."""
        return self.even_targets(lo, hi, count)

    def _after_batch_merge(self, lo: int, hi: int) -> None:
        """Hook called after a merged batch rewrite of ``[lo, hi)``."""

    def _layout_window(
        self,
        contents: list[Hashable],
        targets: list[int],
        fresh: Sequence[int],
    ) -> None:
        """Rewrite so ``contents[i]`` ends up at ``targets[i]`` in one pass.

        ``contents`` lists the final window contents in rank order and
        ``targets`` the (increasing) destination slots.  The indices in
        ``fresh`` mark brand-new elements; all other entries must currently
        be stored, in the same relative order.  Existing elements move in
        two monotone passes (left-movers left-to-right, right-movers
        right-to-left) so the array stays sorted after every individual
        move; the new elements are placed into their — by then free —
        targets at the end.  The moves are recorded in that order.
        """
        if len(contents) != len(targets):
            raise ValueError("contents and targets must have equal length")
        fresh_set = set(fresh)
        position = self._position
        plan = [
            (position[item], target)
            for index, (item, target) in enumerate(zip(contents, targets))
            if index not in fresh_set
        ]
        for src, dst in plan:
            if dst < src:
                self._move(src, dst)
        for src, dst in reversed(plan):
            if dst > src:
                self._move(src, dst)
        for index in fresh:
            self._place(targets[index], contents[index])

    # ------------------------------------------------------------------
    # Serialization (snapshot / restore)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Exact physical state: slot assignments plus algorithm extras.

        Unlike the ``"elements"`` fallback of the interface, the ``"dense"``
        format records the slot of every element, so a restore reproduces
        the physical array bit-for-bit.  Subclasses contribute whatever
        hidden state influences future behaviour (RNG state, pending
        rebalance tasks, hotspot counters) through :meth:`_snapshot_extra`,
        which is what makes snapshot + WAL-tail replay land in the same
        state as the uninterrupted run.
        """
        return {
            "format": "dense",
            "size": self._size,
            "num_slots": self._num_slots,
            "capacity": self._capacity,
            "layout": [
                [index, element]
                for index, element in enumerate(self._slots)
                if element is not None
            ],
            "extra": self._snapshot_extra(),
        }

    def restore(self, state: dict) -> None:
        if state.get("format") != "dense":
            super().restore(state)
            return
        if self._size:
            raise RuntimeError("restore requires an empty structure")
        if state["num_slots"] != self._num_slots or state["capacity"] != self._capacity:
            raise ValueError(
                f"snapshot geometry (capacity {state['capacity']}, "
                f"{state['num_slots']} slots) does not match this instance "
                f"(capacity {self._capacity}, {self._num_slots} slots)"
            )
        for index, element in state["layout"]:
            if not 0 <= index < self._num_slots:
                raise ValueError(f"snapshot assigns slot {index} outside the array")
            if self._slots[index] is not None:
                raise ValueError(f"snapshot assigns slot {index} twice")
            self._slots[index] = element
            self._position[element] = index
        self._occupied = _bitmask_of(self._slots)
        self._size = len(state["layout"])
        if self._size != state["size"]:
            raise ValueError("snapshot layout does not match its recorded size")
        self._restore_extra(state.get("extra") or {})

    def _snapshot_extra(self) -> dict:
        """Algorithm-specific hidden state; subclasses extend the dict."""
        return {}

    def _restore_extra(self, extra: dict) -> None:
        """Reinstall what :meth:`_snapshot_extra` recorded."""

    def bulk_load(self, elements) -> int:
        """Load sorted ``elements`` into an empty array with even spacing.

        Costs one placement per element (the minimum possible) and leaves the
        structure in the evenly-spread state a freshly rebalanced array would
        have — the natural starting point for the embedding's R-shell.
        Raises :class:`LabelerError` on a non-empty structure and
        :class:`CapacityError` past the capacity, before placing anything.
        """
        elements = list(elements)
        if self.size:
            raise LabelerError("bulk_load requires an empty structure")
        if len(elements) > self.capacity:
            raise CapacityError(self.capacity)
        targets = self._bulk_targets(len(elements))
        for element, target in zip(elements, targets):
            self._slots[target] = element
            self._position[element] = target
        self._occupied = _bitmask_of(self._slots)
        self._size = len(elements)
        return len(elements)

    def _bulk_targets(self, count: int) -> list[int]:
        """Slot targets of a bulk load; must match the subclass's layout
        invariant (left-packed subclasses override with a packed prefix)."""
        return self.even_targets(0, self.num_slots, count)

    @staticmethod
    def even_targets(lo: int, hi: int, count: int) -> list[int]:
        """Evenly spaced target slots for ``count`` elements in ``[lo, hi)``."""
        width = hi - lo
        if count > width:
            raise ValueError("cannot place more elements than slots")
        if count == 0:
            return []
        return [lo + (i * width) // count for i in range(count)]
