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

**Names.**  The paper treats elements as distinct, but a key can be
deleted and put back.  So the emulator gives each insertion a *name*, a
small int, when it enters the embedding, and ``Ẽ_F``, the ghost table and
the rebuild plans (:mod:`repro.core.rebuild`) hold names, never keys.  Two
tables translate: name → key for every name in use, and key → name for the
live elements.  The simulated copy of F keeps keys, because Corollary 12's
learned F predicts ranks from them, and because F never holds a deleted
key: among F's elements, a key stands for one insertion.

**Ghosts.**  Deleted elements whose removal the emulator has not caught up
with stay in ``Ẽ_F`` as *ghosts* (the paper: "the F-emulator will treat that
slot as containing the deleted element"); ghosts occupy an F-slot in the
bookkeeping but no physical element, so their rebuild steps cost nothing.
The ghost table maps each ghost's name to its F-index.  A buffered element
deleted before the pending plan incorporates it keeps its name, and the
plan's step makes it a ghost.

**The pending plan.**  A rebuild's steps wait in a ``deque`` that
:meth:`FEmulator.rebuild_work` pops from the left, and the plan's name →
target F-index map holds the names its steps move or incorporate (a
buffered element's name is among them while the plan names it).

**Releasing a name.**  A name goes back to the free list only when its
element is off the array, it is not a ghost and the pending plan does not
name it.  So a ghost keeps its name, an equal key put back beside it gets
another, and the name table holds no more than the live elements, the
ghosts and the pending plan's names.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Sequence

from repro.core.exceptions import InvariantViolation
from repro.core.interface import ListLabeler
from repro.core.operations import MoveRecorder
from repro.core.physical import F_SLOT, PhysicalArray
from repro.core.rebuild import CLEANUP, PLACE, RebuildStep, build_plan


class FEmulator:
    """Keeps ``Ẽ_F`` synchronized with the simulated copy of ``F``."""

    def __init__(self, simulated: ListLabeler, physical: PhysicalArray) -> None:
        self._simulated = simulated
        self._physical = physical
        #: ``Ẽ_F``: the name in each F-slot (``None`` for an empty one).
        self._shadow: list[int | None] = [None] * simulated.num_slots
        #: name → key for every name in use, key → name for the live keys.
        self._key_of: dict[int, Hashable] = {}
        self._name_of: dict[Hashable, int] = {}
        self._free_names: list[int] = []
        #: Ghost name → its F-index in ``Ẽ_F``.
        self._ghosts: dict[int, int] = {}
        #: The pending rebuild's remaining steps (``None`` when none is
        #: pending) and the plan's name → target F-index map.
        self._steps: deque[RebuildStep] | None = None
        self._targets: dict[int, int] = {}
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
        """The emulator's view of the F-array (``Ẽ_F``) as keys, ghosts included."""
        return tuple(map(self._key_of.get, self._shadow))

    @property
    def ghosts(self) -> dict[int, int]:
        """The ghost table: ghost name → F-index (a copy)."""
        return dict(self._ghosts)

    @property
    def names_in_use(self) -> int:
        """Names not on the free list: live elements, ghosts and names
        the pending plan still holds."""
        return len(self._key_of)

    @property
    def has_pending_rebuild(self) -> bool:
        return self._steps is not None

    @property
    def plan_targets(self) -> dict[int, int]:
        """The pending plan's name → target F-index map (empty when no
        rebuild is pending; read-only use)."""
        return self._targets

    # ------------------------------------------------------------------
    # Names
    # ------------------------------------------------------------------
    def admit(self, element: Hashable) -> int:
        """Name ``element``, which has just entered the embedding."""
        free = self._free_names
        name = free.pop() if free else len(self._key_of)
        self._key_of[name] = element
        self._name_of[element] = name
        return name

    def retire(self, element: Hashable, position: int) -> None:
        """Record that a slow-path delete has just taken ``element`` off
        ``position``.

        An element of ``Ẽ_F`` leaves its name there as a ghost.  A buffered
        element's name is held while the pending plan names it (the plan's
        step then records the ghost); any other name is released.
        """
        name = self._name_of.pop(element)
        if self._physical.kind(position) == F_SLOT:
            self._ghosts[name] = self._physical.f_index_of(position)
        elif name not in self._targets:
            self._release(name)

    def _release(self, name: int) -> None:
        del self._key_of[name]
        self._free_names.append(name)

    def _is_live(self, name: int) -> bool:
        """Whether ``name``'s element is still stored: a deleted element's
        key no longer maps back to its name."""
        return self._name_of.get(self._key_of[name]) == name

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
        if self._steps is not None:
            raise InvariantViolation("fast path taken while a rebuild is pending")
        physical = self._physical
        f_position = physical.f_position
        shadow = self._shadow
        for element, src, dst in zip(*moves.columns()):
            if dst < 0:
                physical.take_element(f_position(src))
                self._release(self._name_of.pop(element))
                shadow[src] = None
            elif src < 0:
                physical.put_element(f_position(dst), element)
                shadow[dst] = self.admit(element)
            else:
                physical.move_element(f_position(src), f_position(dst))
                shadow[dst] = shadow[src]
                shadow[src] = None

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------
    def bulk_load(self, elements: Sequence[Hashable]) -> None:
        """Load ``elements`` (in rank order) into the simulated copy and ``Ẽ_F``.

        The simulated copy takes them with F's own bulk layout, and each
        element is placed straight into the physical F-slot of its F-index,
        so ``Ẽ_F`` equals the simulated state: the state a finished rebuild
        leaves, reached at one placement per element.  Needs an emulator
        with no name in use and no pending rebuild.
        """
        if self._steps is not None or self._key_of:
            raise InvariantViolation("bulk_load needs an empty, settled emulator")
        self._simulated.bulk_load(elements)
        physical = self._physical
        for f_index, element in enumerate(self._simulated.slots()):
            if element is not None:
                physical.put_element(physical.f_position(f_index), element)
                self._shadow[f_index] = self.admit(element)

    # ------------------------------------------------------------------
    # Slow-path bookkeeping
    # ------------------------------------------------------------------
    def note_operation(self) -> None:
        """Count one operation toward the span of the current rebuild (Lemma 6)."""
        if self._steps is not None:
            self._ops_in_current_rebuild += 1

    # ------------------------------------------------------------------
    # Rebuild lifecycle
    # ------------------------------------------------------------------
    def diverged(self) -> bool:
        """Whether ``Ẽ_F`` differs from the simulated copy's current state."""
        if self._ghosts:
            return True
        return tuple(map(self._key_of.get, self._shadow)) != tuple(
            self._simulated.slots()
        )

    def start_rebuild(self) -> None:
        """Freeze the current simulated state as the checkpoint and plan for it."""
        if self._steps is not None:
            raise InvariantViolation("a rebuild is already pending")
        name_of = self._name_of
        checkpoint = [
            None if key is None else name_of[key] for key in self._simulated.slots()
        ]
        steps, self._targets = build_plan(self._shadow, checkpoint)
        self._steps = deque(steps)
        self.rebuilds_started += 1
        self._ops_in_current_rebuild = 0

    def _finish_rebuild(self) -> None:
        self.rebuilds_completed += 1
        self.max_rebuild_span = max(
            self.max_rebuild_span, self._ops_in_current_rebuild
        )
        self._ops_in_current_rebuild = 0
        self._steps = None
        self._targets = {}

    def estimated_remaining_cost(self) -> int:
        """Lower bound on the cost of finishing the pending rebuild."""
        is_live = self._is_live
        return sum(
            1
            for kind, name, _, _ in self._steps or ()
            if kind != CLEANUP and is_live(name)
        )

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
        steps = self._steps
        if steps is None:
            return 0
        spent = 0
        while steps and (finish or spent < budget):
            spent += self._execute_step(*steps.popleft())
        self.rebuild_cost += spent
        if not steps:
            self._finish_rebuild()
        return spent

    def _execute_step(
        self, kind: str, name: int, target: int | None, source: int | None
    ) -> int:
        shadow = self._shadow
        if kind == CLEANUP:
            shadow[self._ghosts.pop(name)] = None
            self._release(name)
            return 0
        if kind == PLACE:
            shadow[source] = None
        shadow[target] = name
        if not self._is_live(name):
            # Deleted after the plan was frozen: the step places its ghost,
            # pure bookkeeping.
            self._ghosts[name] = target
            return 0
        physical = self._physical
        return physical.chain_move(physical.position_of(self._key_of[name]), target)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Check ``Ẽ_F`` against the F-slots of the array and the name tables.

        Each live key and its name name each other; each ghost is dead and
        sits at its F-index; every other name in ``Ẽ_F`` is live, and its
        F-slot holds its key.  A ghost's F-slot, like an empty entry's,
        holds no element.
        """
        key_of, ghosts, shadow = self._key_of, self._ghosts, self._shadow
        for key, name in self._name_of.items():
            if key_of.get(name) != key:
                raise InvariantViolation(f"key {key!r} and its name {name} disagree")
        for name, index in ghosts.items():
            if shadow[index] != name or self._is_live(name):
                raise InvariantViolation(f"ghost {name} is not a dead name at F-index {index}")
        contents = self._physical.f_contents()
        for index, (physical_item, name) in enumerate(zip(contents, shadow)):
            expected = None
            if name is not None and name not in ghosts:
                if not self._is_live(name):
                    raise InvariantViolation(f"F-index {index} holds dead name {name}, no ghost")
                expected = key_of[name]
            if physical_item != expected:
                raise InvariantViolation(
                    f"F-slot {index} holds {physical_item!r} but Ẽ_F expects {expected!r}"
                )
