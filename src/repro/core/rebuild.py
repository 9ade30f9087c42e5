"""Checkpointed rebuilds of the F-emulator (Figures 3 and 4).

A *rebuild* transforms the F-emulator's actual array ``Ẽ_F`` into the frozen
checkpoint state ``C = F(t₀)`` of the simulated copy of ``F``.  Plans are
built over the emulator's *names* (:mod:`repro.core.emulator`), one small
int per insertion, not over keys: a ghost and a live element with an equal
key are two different items here.  Following the paper, the plan is
computed once when the rebuild starts:

1. ``Q`` is the set of names whose slot differs between ``Ẽ_F`` and ``C``
   (including names present in only one of the two states);
2. the F-emulator's array is split into maximal *dirty intervals* — runs of
   F-slots containing only names of ``Q``, delimited by clean occupied
   slots (Figure 3);
3. each interval is rewritten by a sequence of per-name steps (Figure 4):
   ghost clean-ups, then elements moving to a lower-or-equal F-index in
   increasing rank order, then elements moving to a higher F-index together
   with buffered-element incorporations in decreasing rank order.  This
   ordering guarantees that every step's target F-slot (and every F-slot on
   the way) is element-free when the step runs, so each step is realized by
   a single :meth:`repro.core.physical.PhysicalArray.chain_move`.

A step carries its name, its target F-index and, for a move inside
``Ẽ_F``, its source F-index, and the plan keeps the checkpoint's name →
F-index map: the emulator executes a step without searching ``Ẽ_F`` and
asks the map which names the plan holds.

The plan is *incremental*: the embedding executes it in ``Θ(E_R)``-cost
chunks across the slow-path operations (Section 3, slow path, part (b)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

#: Step kinds.
CLEANUP = "cleanup"          # remove a ghost from Ẽ_F (cost 0)
PLACE = "place"              # move a name already in Ẽ_F to a new F-index
INCORPORATE = "incorporate"  # move a buffered element into its F-slot


@dataclass(frozen=True)
class RebuildStep:
    """One per-name action of a rebuild plan."""

    kind: str
    name: Hashable
    target_f_index: int | None = None
    #: Where a ``PLACE`` step's name sits in ``Ẽ_F`` when the step runs.
    source_f_index: int | None = None


class RebuildPlan:
    """An ordered list of :class:`RebuildStep` realizing one checkpoint."""

    def __init__(self, steps: Sequence[RebuildStep], targets: dict[Hashable, int]):
        self._steps: list[RebuildStep] = list(steps)
        self._cursor = 0
        #: Every name of the checkpoint → its F-index there.
        self.targets = targets

    # ------------------------------------------------------------------
    @property
    def total_steps(self) -> int:
        return len(self._steps)

    @property
    def remaining_steps(self) -> int:
        return len(self._steps) - self._cursor

    @property
    def is_complete(self) -> bool:
        return self._cursor >= len(self._steps)

    def peek(self) -> RebuildStep | None:
        if self.is_complete:
            return None
        return self._steps[self._cursor]

    def advance(self) -> RebuildStep:
        step = self._steps[self._cursor]
        self._cursor += 1
        return step

    def pending_steps(self) -> list[RebuildStep]:
        """Remaining steps, in execution order (read-only copy)."""
        return list(self._steps[self._cursor:])


def _interval_boundaries(
    shadow: Sequence[Hashable | None], checkpoint: Sequence[Hashable | None]
) -> list[tuple[int, int]]:
    """Maximal dirty intervals of F-indices, delimited by clean occupied slots.

    A position is *clean* when both states agree on it; intervals are runs of
    positions containing no clean occupied slot, trimmed to runs that contain
    at least one dirty position (Figure 3).
    """
    assert len(shadow) == len(checkpoint)
    intervals: list[tuple[int, int]] = []
    run_start: int | None = None
    run_dirty = False
    for index in range(len(shadow)):
        same = shadow[index] == checkpoint[index]
        clean_occupied = same and shadow[index] is not None
        if clean_occupied:
            if run_start is not None and run_dirty:
                intervals.append((run_start, index - 1))
            run_start = None
            run_dirty = False
            continue
        if run_start is None:
            run_start = index
        if not same:
            run_dirty = True
    if run_start is not None and run_dirty:
        intervals.append((run_start, len(shadow) - 1))
    return intervals


def build_plan(
    shadow: Sequence[Hashable | None],
    checkpoint: Sequence[Hashable | None],
) -> RebuildPlan:
    """Construct the rebuild plan that turns ``shadow`` (``Ẽ_F``) into ``checkpoint``.

    Steps are grouped per dirty interval and ordered so that every step's
    target F-slot is element-free by the time the step executes (see the
    module docstring); elements never cross interval boundaries because the
    delimiting slots are clean in both states.
    """
    if len(shadow) != len(checkpoint):
        raise ValueError("shadow and checkpoint must have the same length")

    shadow_pos = {item: idx for idx, item in enumerate(shadow) if item is not None}
    checkpoint_pos = {item: idx for idx, item in enumerate(checkpoint) if item is not None}

    steps: list[RebuildStep] = []
    for lo, hi in _interval_boundaries(shadow, checkpoint):
        # Names leaving Ẽ_F entirely (ghost clean-ups) go first.
        for index in range(lo, hi + 1):
            item = shadow[index]
            if item is not None and item not in checkpoint_pos:
                steps.append(RebuildStep(CLEANUP, item))

        # Names of the checkpoint interval, by increasing target position.
        lowering: list[RebuildStep] = []
        raising_or_new: list[RebuildStep] = []
        for target in range(lo, hi + 1):
            item = checkpoint[target]
            if item is None:
                continue
            source = shadow_pos.get(item)
            if source is None:
                raising_or_new.append(RebuildStep(INCORPORATE, item, target))
            elif target < source:
                lowering.append(RebuildStep(PLACE, item, target, source))
            elif target > source:
                raising_or_new.append(RebuildStep(PLACE, item, target, source))
        steps.extend(lowering)
        steps.extend(reversed(raising_or_new))

    return RebuildPlan(steps, checkpoint_pos)
