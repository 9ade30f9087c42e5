"""The embedding ``F ⊳ R`` of a fast algorithm into a reliable one (Section 3).

:class:`Embedding` is itself a list-labeling data structure (Theorem 2): all
elements appear in sorted order in one array of ``(1 + 3ε)n`` slots.  It is
built from factories for the two component algorithms so it can size them
the way the paper does:

* ``F`` runs on ``(1 + ε)n`` slots and capacity ``n`` (the simulated copy);
* ``R`` runs on the whole ``(1 + 3ε)n``-slot array and holds
  ``(1 + 2ε)n`` tokens (every F-slot and every buffer slot).  The tokens
  are bulk-loaded into ``R`` at one placement each, whatever ``R`` is —
  a nested embedding included, through :meth:`Embedding.bulk_load`, which
  lays its elements out with F's bulk layout on the F-slots.  That is what
  lets Theorem 3's double application build in linear time.

Each operation takes the **fast path** (emulate ``F`` directly) when there is
no pending rebuild and the simulated copy's cost for the operation is at most
``E_R``; otherwise it takes the **slow path**: the element is buffered in the
R-shell and ``Θ(E_R)`` of rebuild work is performed on the F-emulator,
following steps (a)/(b) of Section 3 verbatim.

The class exposes the statistics the paper's lemmas talk about
(:attr:`fast_operations`, :attr:`slow_operations`, buffer occupancy,
deadweight counts, the longest rebuild span) so the experiments can check
Lemmas 5–7 empirically.  Its key search (:meth:`Embedding.count_below`)
bisects the physical slots directly.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Sequence

from repro.core.emulator import FEmulator
from repro.core.exceptions import CapacityError, InvariantViolation, LabelerError
from repro.core.interface import ListLabeler
from repro.core.operations import MoveRecorder, Operation, OperationResult
from repro.core.physical import BUFFER, F_SLOT, PhysicalArray, R_EMPTY
from repro.core.shell import RShell

#: Type of the factories used to build the component algorithms: they receive
#: ``(capacity, num_slots)`` and return a ready list labeler.
LabelerFactory = Callable[[int, int], ListLabeler]

#: Type of the factory building the shared physical array from its slot
#: count.  The default is :class:`repro.core.physical.PhysicalArray`; the
#: tracer and the tests inject :class:`~repro.perf.trace.TracingPhysicalArray`
#: or the :class:`~repro.core.physical_reference.ReferencePhysicalArray`
#: oracle.
PhysicalFactory = Callable[[int], PhysicalArray]


def default_expected_cost(capacity: int) -> int:
    """Default ``E_R`` bound: ``ceil(log₂² n)``, the classical PMA guarantee."""
    log = math.log2(max(4, capacity))
    return max(4, int(math.ceil(log * log)))


class Embedding(ListLabeler):
    """The list-labeling algorithm ``F ⊳ R`` ("F in R")."""

    def __init__(
        self,
        capacity: int,
        fast_factory: LabelerFactory,
        reliable_factory: LabelerFactory,
        *,
        epsilon: float = 0.25,
        num_slots: int | None = None,
        reliable_expected_cost: int | None = None,
        rebuild_work_factor: float = 1.0,
        physical_factory: PhysicalFactory = PhysicalArray,
    ) -> None:
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if num_slots is None:
            f_slots = max(capacity + 1, int(math.ceil((1.0 + epsilon) * capacity)))
            buffer_slots = max(2, int(math.ceil(epsilon * capacity)))
            r_empty_slots = max(2, int(math.ceil(epsilon * capacity)))
            num_slots = f_slots + buffer_slots + r_empty_slots
        else:
            # A prescribed array size (e.g. when this embedding itself plays
            # the role of R inside an outer embedding): split the available
            # slack (num_slots - capacity) into the ε n of extra F-slots, the
            # ε n buffer slots and the ε n R-empty slots.
            slack = num_slots - capacity
            if slack < 6:
                raise ValueError(
                    "an embedding needs at least 6 slots of slack "
                    f"(capacity {capacity}, num_slots {num_slots})"
                )
            buffer_slots = max(2, slack // 3)
            r_empty_slots = max(2, slack // 3)
            f_slots = num_slots - buffer_slots - r_empty_slots
            epsilon = slack / (3.0 * capacity)
        super().__init__(capacity, num_slots)

        self.epsilon = epsilon
        self.e_r = (
            reliable_expected_cost
            if reliable_expected_cost is not None
            else default_expected_cost(capacity)
        )
        if self.e_r < 1:
            raise ValueError("reliable_expected_cost must be at least 1")
        self.rebuild_work_factor = rebuild_work_factor
        # Lemma 7 requires the rebuild to complete before the ~εn dummy
        # buffer slots run out: a rebuild costs up to (1 + ε)n moves while
        # only ~εn slow operations can be buffered, so the per-operation
        # budget needs a floor of ~(1 + ε)/ε units (with a factor-2 safety
        # margin for the small-n integer effects) no matter how small the
        # caller's E_R is.  For the default E_R = Θ(log² n) the floor is
        # inactive.
        lemma7_floor = int(math.ceil(2.0 * (1.0 + self.epsilon) / self.epsilon))
        self._work_budget = max(
            lemma7_floor, int(math.ceil(rebuild_work_factor * self.e_r))
        )

        self._physical = physical_factory(num_slots)
        self._shell = RShell(
            reliable_factory,
            f_slots=f_slots,
            buffer_slots=buffer_slots,
            physical=self._physical,
        )
        self._emulator = FEmulator(fast_factory(capacity, f_slots), self._physical)

        # --- statistics ---------------------------------------------------
        self.fast_operations = 0
        self.slow_operations = 0
        self.max_buffered_elements = 0

    # ------------------------------------------------------------------
    # Component access (read-only; useful for experiments and figures)
    # ------------------------------------------------------------------
    @property
    def physical(self) -> PhysicalArray:
        return self._physical

    @property
    def emulator(self) -> FEmulator:
        return self._emulator

    @property
    def shell(self) -> RShell:
        return self._shell

    @property
    def f_slot_count(self) -> int:
        return self._physical.f_slot_count

    @property
    def buffered_elements(self) -> int:
        return self._physical.buffered_element_count

    @property
    def deadweight_moves(self) -> int:
        return self._physical.total_deadweight_moves

    # ------------------------------------------------------------------
    # ListLabeler interface
    # ------------------------------------------------------------------
    def slots(self) -> Sequence[Hashable | None]:
        return self._physical.slots()

    def slot_of(self, element: Hashable) -> int:
        return self._physical.position_of(element)

    def rank_of(self, element: Hashable) -> int:
        """1-based rank via the physical array's indexes (``O(log m)``)."""
        return (
            self._physical.real_between(0, self._physical.position_of(element)) + 1
        )

    # ------------------------------------------------------------------
    # Read path: served by the shared physical array's lane bitmasks
    # ------------------------------------------------------------------
    def select(self, rank: int) -> Hashable:
        """The ``rank``-th element (one select on the element lane)."""
        self._check_read_rank(rank, "select")
        return self._physical.element_at_rank(rank)

    def _iter_from(self, rank: int):
        return self._physical.iter_elements_from(rank)

    def count_range(self, lo: int, hi: int) -> int:
        """Stored elements at physical positions in ``[lo, hi)``."""
        lo = max(0, lo)
        hi = min(self.num_slots, hi)
        if hi <= lo:
            return 0
        return self._physical.real_between(lo, hi)

    def slot_of_rank(self, rank: int) -> int:
        self._check_read_rank(rank, "select")
        return self._physical.position_of_rank(rank)

    def count_below(self, key, *, strict: bool = True) -> int:
        """Stored elements ``< key`` (``<= key`` when not strict).

        A binary search over the physical slots, as
        :meth:`repro.algorithms.base.DenseArrayLabeler.count_below` runs
        over its slot list: a probe on an element-free slot moves to the
        next element inside the window
        (:meth:`~repro.core.physical.PhysicalArray.next_element`, a short
        walk and then one element-lane lookup), and one element-lane
        prefix turns the boundary slot into a count.
        """
        next_element = self._physical.next_element
        lo, hi = 0, self._num_slots
        # Invariant: every element left of ``lo`` is below the key, and
        # the first element at or after ``hi`` (if any) is not.
        while lo < hi:
            mid = (lo + hi) // 2
            found = next_element(mid, hi)
            if found is None:
                hi = mid
                continue
            position, element = found
            if element < key if strict else element <= key:
                lo = position + 1
            else:
                hi = mid
        return self._physical.real_between(0, lo)

    def bulk_load(self, elements: Sequence[Hashable]) -> int:
        """Load ``elements`` (already in rank order) into an empty embedding.

        The simulated copy of F takes them with F's own bulk layout and each
        element goes straight into the physical F-slot of its F-index
        (:meth:`FEmulator.bulk_load`): one placement per element, and the
        embedding starts in the state a finished rebuild leaves — nothing
        buffered, no ghost, no pending rebuild.  No fast or slow operation,
        rebuild or deadweight move is counted.  Everything is validated before
        anything is placed: :class:`LabelerError` on a non-empty structure,
        :class:`CapacityError` past the capacity.  Returns the number of
        elements placed.  An outer embedding's R-shell loads its tokens into
        an inner embedding this way, so the layered structures build in
        linear time.
        """
        elements = list(elements)
        if self._size:
            raise LabelerError("bulk_load requires an empty structure")
        if len(elements) > self._capacity:
            raise CapacityError(self._capacity)
        self._emulator.bulk_load(elements)
        self._size = len(elements)
        return len(elements)

    def _insert(self, rank: int, element: Hashable) -> OperationResult:
        # The recorder-backed sink keeps the hot path allocation-free; the
        # result still exposes the Move API through it.
        result = OperationResult(Operation.insert(rank), MoveRecorder())
        self._physical.move_sink = result.moves
        try:
            simulated_result = self._emulator.simulated.insert(rank, element)
            fast = (
                not self._emulator.has_pending_rebuild
                and simulated_result.cost <= self.e_r
            )
            if fast:
                self.fast_operations += 1
                self._emulator.apply_fast(simulated_result.moves)
            else:
                self.slow_operations += 1
                self._buffer_insert(rank, element)
                self._emulator.admit(element)
                self._perform_rebuild_work()
            self._emulator.note_operation()
        finally:
            self._physical.move_sink = None
        self.max_buffered_elements = max(
            self.max_buffered_elements, self._physical.buffered_element_count
        )
        return result

    def _delete(self, rank: int) -> OperationResult:
        result = OperationResult(Operation.delete(rank), MoveRecorder())
        physical = self._physical
        physical.move_sink = result.moves
        try:
            position = physical.position_of_rank(rank)
            element = physical.element(position)
            simulated_result = self._emulator.simulated.delete(rank)
            fast = (
                not self._emulator.has_pending_rebuild
                and simulated_result.cost <= self.e_r
            )
            if fast:
                self.fast_operations += 1
                self._emulator.apply_fast(simulated_result.moves)
            else:
                self.slow_operations += 1
                physical.take_element(position)
                self._emulator.retire(element, position)
                self._perform_rebuild_work()
            self._emulator.note_operation()
        finally:
            physical.move_sink = None
        # Deadweight counts are kept for live elements only, so the map stays
        # sized by the key count under steady churn.
        physical.deadweight_by_element.pop(element, None)
        return result

    # ------------------------------------------------------------------
    # Slow path, part (a): buffering an insertion in the R-shell
    # ------------------------------------------------------------------
    def _buffer_insert(self, rank: int, element: Hashable) -> None:
        physical = self._physical
        if physical.dummy_buffer_count == 0:
            raise InvariantViolation(
                "no dummy buffer slot available — the halting condition of "
                "Section 4 occurred, contradicting Lemma 7"
            )
        # The element's rank predecessor anchors both the dummy choice and
        # the new buffer slot's R-rank; everything is derived from the
        # truncated state only (Lemma 4).
        predecessor = (
            physical.element_at_rank(rank - 1) if rank > 1 else None
        )
        anchor_position = (
            physical.position_of(predecessor) if predecessor is not None else 0
        )

        dummy_position = physical.nearest_dummy_buffer(anchor_position)
        assert dummy_position is not None
        self._shell.delete_token(physical.token_rank(dummy_position))

        if predecessor is not None:
            insert_rank = physical.token_rank(physical.position_of(predecessor)) + 1
        else:
            insert_rank = 1
        new_position = self._shell.insert_token(insert_rank)
        physical.put_element(new_position, element)

    # ------------------------------------------------------------------
    # Slow path, part (b): rebuild work on the F-emulator
    # ------------------------------------------------------------------
    def _perform_rebuild_work(self) -> None:
        """Steps (i)–(iv) of the slow path's rebuild work.

        Invariant: after every operation either a rebuild is pending or
        ``Ẽ_F`` equals the simulated copy of F (:meth:`check_consistency`
        checks it).  A slow operation always breaks that equality — a
        buffered insertion is in F but not in ``Ẽ_F``, and a slow delete
        with no rebuild pending leaves a ghost — so a rebuild starts here
        without a divergence test, and :meth:`FEmulator.diverged` runs only
        after a rebuild completes.
        """
        emulator = self._emulator
        if not emulator.has_pending_rebuild:
            emulator.start_rebuild()

        # (i) perform Θ(E_R) rebuild work.
        emulator.rebuild_work(self._work_budget)
        # (ii) finish the rebuild if it is nearly done.
        if (
            emulator.has_pending_rebuild
            and emulator.estimated_remaining_cost() < self.e_r
        ):
            emulator.rebuild_work(0, finish=True)
        # (iii) if complete, open the next checkpoint …
        if not emulator.has_pending_rebuild and emulator.diverged():
            emulator.start_rebuild()
            # (iv) … and finish it too if it is cheap.
            if emulator.estimated_remaining_cost() < self.e_r:
                emulator.rebuild_work(0, finish=True)

    # ------------------------------------------------------------------
    # Validation and rendering
    # ------------------------------------------------------------------
    def check_consistency(self, key=None) -> None:
        """Run every structural invariant of the embedding (used by tests),
        R's own included (:meth:`RShell.check_consistency`), and the
        invariant of :meth:`_perform_rebuild_work`: with no rebuild
        pending, ``Ẽ_F`` equals the simulated copy of F."""
        self._physical.check_consistency(key=key)
        self._emulator.check_consistency()
        if not self._emulator.has_pending_rebuild and self._emulator.diverged():
            raise InvariantViolation(
                "no rebuild is pending but Ẽ_F differs from the simulated copy of F"
            )
        self._shell.check_consistency()
        counts = {R_EMPTY: 0, F_SLOT: 0, BUFFER: 0}
        for kind in self._physical.kinds():
            counts[kind] += 1
        if counts[F_SLOT] != self._emulator.simulated.num_slots:
            raise InvariantViolation("the number of F-slots drifted")
        expected = [
            item for item in self._emulator.simulated.slots() if item is not None
        ]
        actual = self._physical.elements()
        if expected != actual:
            raise InvariantViolation(
                "the embedding's contents diverged from the simulated copy of F"
            )

    def render_views(self) -> dict[str, str]:
        """Render the three views of Figure 1 as strings (see examples/)."""
        kind_chars = {F_SLOT: "F", BUFFER: "B", R_EMPTY: "."}
        embedding_view = []
        f_view = []
        shell_view = []
        for position in range(self.num_slots):
            kind = self._physical.kind(position)
            occupied = self._physical.element(position) is not None
            symbol = kind_chars[kind]
            embedding_view.append(symbol if occupied else symbol.lower())
            if kind == F_SLOT:
                f_view.append("F" if occupied else "f")
            shell_view.append("." if kind == R_EMPTY else "X")
        return {
            "embedding": "".join(embedding_view),
            "f_emulator": "".join(f_view),
            "r_shell": "".join(shell_view),
        }
