"""The F-emulator: a simulated copy of ``F`` plus the actual array ``Ẽ_F``.

Section 3 of the paper splits the embedding's fast side in two:

* the **simulated copy of F** — a real instance of the fast algorithm that
  receives *every* operation of the original input in the original order.
  It never touches the physical array; it exists so that (a) the original
  input sequence is preserved from F's point of view (no input
  interference, Lemma 4) and (b) the emulator knows what state it should
  eventually reach;
* the **actual state** ``Ẽ_F`` — what the F-slots of the physical array
  really contain right now.  On the fast path the simulated moves are
  replayed onto the array immediately; on the slow path ``Ẽ_F`` lags behind
  and is brought forward by checkpointed rebuilds executed in
  ``Θ(E_R)``-cost chunks.

Deleted elements whose removal the emulator has not caught up with are kept
in ``Ẽ_F`` as *ghosts* (the paper: "the F-emulator will treat that slot as
containing the deleted element"); ghosts occupy an F-slot in the
bookkeeping but no physical element, so their rebuild steps cost nothing.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.core.exceptions import InvariantViolation
from repro.core.interface import ListLabeler
from repro.core.operations import MoveRecorder
from repro.core.physical import PhysicalArray
from repro.core.rebuild import CLEANUP, INCORPORATE, PLACE, RebuildPlan, build_plan


class FEmulator:
    """Keeps ``Ẽ_F`` synchronized with the simulated copy of ``F``."""

    def __init__(self, simulated: ListLabeler, physical: PhysicalArray) -> None:
        self._simulated = simulated
        self._physical = physical
        self._shadow: list[Hashable | None] = [None] * simulated.num_slots
        self._shadow_index: dict[Hashable, int] = {}
        self._ghosts: set[Hashable] = set()
        self._plan: RebuildPlan | None = None
        # --- statistics for the Lemma 5/6 experiments -------------------
        self.rebuilds_started = 0
        self.rebuilds_completed = 0
        #: Most operations any completed rebuild spanned (Lemma 6).
        self.max_rebuild_span = 0
        self._ops_in_current_rebuild = 0
        self.rebuild_cost = 0

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def simulated(self) -> ListLabeler:
        return self._simulated

    @property
    def shadow(self) -> Sequence[Hashable | None]:
        """The emulator's view of the F-array (``Ẽ_F``), ghosts included."""
        return tuple(self._shadow)

    @property
    def ghosts(self) -> frozenset:
        return frozenset(self._ghosts)

    @property
    def has_pending_rebuild(self) -> bool:
        return self._plan is not None

    @property
    def plan(self) -> RebuildPlan | None:
        return self._plan

    def is_ghost(self, element: Hashable) -> bool:
        return element in self._ghosts

    def in_shadow(self, element: Hashable) -> bool:
        return element in self._shadow_index

    # ------------------------------------------------------------------
    # Fast path
    # ------------------------------------------------------------------
    def apply_fast(self, moves: MoveRecorder) -> None:
        """Replay the simulated copy's moves directly onto the F-slots.

        Only legal when there is no pending rebuild, in which case there are
        no buffered elements (Lemma 10), so an element travelling between two
        F-slots crosses at most dummy buffer slots and incurs no deadweight.
        The recorder's columns are read directly, and each F-index becomes
        a position through the physical array's F-position table.
        """
        if self._plan is not None:
            raise InvariantViolation("fast path taken while a rebuild is pending")
        physical = self._physical
        f_position = physical.f_position
        for element, src, dst in zip(*moves.columns()):
            if dst < 0:
                physical.take_element(f_position(src))
                self._shadow_clear(src)
            elif src < 0:
                physical.put_element(f_position(dst), element)
                self._shadow_set(dst, element)
            else:
                physical.move_element(f_position(src), f_position(dst))
                self._shadow_clear(src)
                self._shadow_set(dst, element)

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------
    def bulk_load(self, elements: Sequence[Hashable]) -> None:
        """Load ``elements`` (in rank order) into the simulated copy and ``Ẽ_F``.

        The simulated copy takes them with F's own bulk layout, and each
        element is placed straight into the physical F-slot of its F-index,
        so ``Ẽ_F`` equals the simulated state: the state a finished rebuild
        leaves, reached at one placement per element.  Needs an emulator
        with nothing in ``Ẽ_F`` and no pending rebuild.
        """
        if self._plan is not None or self._shadow_index:
            raise InvariantViolation("bulk_load needs an empty, settled emulator")
        self._simulated.bulk_load(elements)
        physical = self._physical
        for f_index, element in enumerate(self._simulated.slots()):
            if element is not None:
                physical.put_element(physical.f_position(f_index), element)
                self._shadow_set(f_index, element)

    # ------------------------------------------------------------------
    # Slow-path bookkeeping
    # ------------------------------------------------------------------
    def mark_deleted(self, element: Hashable) -> None:
        """Record that a shadow element was physically removed (slow-path delete)."""
        if element in self._shadow_index:
            self._ghosts.add(element)

    def note_operation(self) -> None:
        """Count one operation toward the span of the current rebuild (Lemma 6)."""
        if self._plan is not None:
            self._ops_in_current_rebuild += 1

    # ------------------------------------------------------------------
    # Rebuild lifecycle
    # ------------------------------------------------------------------
    def diverged(self) -> bool:
        """Whether ``Ẽ_F`` differs from the simulated copy's current state."""
        if self._ghosts:
            return True
        simulated = self._simulated.slots()
        if len(simulated) != len(self._shadow):
            raise InvariantViolation("simulated copy changed its array size")
        return list(simulated) != self._shadow

    def start_rebuild(self) -> RebuildPlan:
        """Freeze the current simulated state as the checkpoint and plan for it."""
        if self._plan is not None:
            raise InvariantViolation("a rebuild is already pending")
        checkpoint = tuple(self._simulated.slots())
        self._plan = build_plan(self._shadow, checkpoint)
        self.rebuilds_started += 1
        self._ops_in_current_rebuild = 0
        return self._plan

    def _finish_rebuild(self) -> None:
        self.rebuilds_completed += 1
        self.max_rebuild_span = max(
            self.max_rebuild_span, self._ops_in_current_rebuild
        )
        self._ops_in_current_rebuild = 0
        self._plan = None

    def estimated_remaining_cost(self) -> int:
        """Lower bound on the cost of finishing the pending rebuild."""
        if self._plan is None:
            return 0
        live = 0
        for step in self._plan.pending_steps():
            if step.kind == CLEANUP:
                continue
            if self._physical.contains(step.element):
                live += 1
        return live

    # ------------------------------------------------------------------
    # Rebuild execution
    # ------------------------------------------------------------------
    def rebuild_work(self, budget: int, *, finish: bool = False) -> int:
        """Execute pending rebuild steps until ``budget`` cost is spent.

        With ``finish=True`` the budget is ignored and the plan is driven to
        completion (used by steps (ii) and (iv) of the slow path, which the
        embedding only invokes when the estimated remaining cost is below
        ``E_R``).  Returns the cost incurred (deadweight included).
        """
        plan = self._plan
        if plan is None:
            return 0
        spent = 0
        while not plan.is_complete and (finish or spent < budget):
            spent += self._execute_step(plan.advance())
        self.rebuild_cost += spent
        if plan.is_complete:
            self._finish_rebuild()
        return spent

    def _execute_step(self, step) -> int:
        if step.kind == CLEANUP:
            index = self._shadow_index.get(step.element)
            if index is not None:
                self._shadow_clear(index)
            self._ghosts.discard(step.element)
            return 0

        target = step.target_f_index
        assert target is not None
        if step.kind == PLACE:
            old_index = self._shadow_index.get(step.element)
            if not self._physical.contains(step.element):
                # The element became a ghost after the plan was frozen: the
                # move is pure bookkeeping.
                if old_index is not None:
                    self._shadow_clear(old_index)
                self._shadow_set(target, step.element)
                return 0
            cost = self._physical.chain_move(
                self._physical.position_of(step.element), target
            )
            if old_index is not None:
                self._shadow_clear(old_index)
            self._shadow_set(target, step.element)
            return cost

        if step.kind == INCORPORATE:
            if not self._physical.contains(step.element):
                # Buffered then deleted before incorporation: record a ghost.
                self._shadow_set(target, step.element)
                self._ghosts.add(step.element)
                return 0
            cost = self._physical.chain_move(
                self._physical.position_of(step.element), target
            )
            self._shadow_set(target, step.element)
            return cost

        raise InvariantViolation(f"unknown rebuild step kind {step.kind!r}")

    # ------------------------------------------------------------------
    # Shadow maintenance
    # ------------------------------------------------------------------
    def _shadow_set(self, index: int, element: Hashable) -> None:
        current = self._shadow[index]
        if current is not None and current != element:
            raise InvariantViolation(
                f"shadow slot {index} already holds {current!r}; cannot store {element!r}"
            )
        self._shadow[index] = element
        self._shadow_index[element] = index

    def _shadow_clear(self, index: int) -> None:
        element = self._shadow[index]
        if element is None:
            return
        self._shadow[index] = None
        if self._shadow_index.get(element) == index:
            del self._shadow_index[element]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Check that the F-slots of the array match ``Ẽ_F`` (ghosts excepted)."""
        contents = self._physical.f_contents()
        if len(contents) != len(self._shadow):
            raise InvariantViolation("the number of F-slots changed")
        for index, (physical_item, shadow_item) in enumerate(zip(contents, self._shadow)):
            if shadow_item is None or shadow_item in self._ghosts:
                if physical_item is not None and physical_item != shadow_item:
                    raise InvariantViolation(
                        f"F-slot {index} holds {physical_item!r} but Ẽ_F expects it empty"
                    )
                continue
            if physical_item != shadow_item:
                raise InvariantViolation(
                    f"F-slot {index} holds {physical_item!r} but Ẽ_F expects {shadow_item!r}"
                )
