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

A plan is its ordered list of :class:`RebuildStep` tuples plus the name →
target F-index map of the names those steps move or incorporate.  A step
carries its name, its target F-index and, for a move inside ``Ẽ_F``, its
source F-index, so the emulator executes it without searching ``Ẽ_F``.
Both maps are built per dirty interval, never over the whole array: the
live names keep key order in both states, so no name crosses a clean
delimiter, and a name's two positions lie in the same interval.

The plan is *incremental*: the embedding executes it in ``Θ(E_R)``-cost
chunks across the slow-path operations (Section 3, slow path, part (b)).
"""

from __future__ import annotations

from typing import Hashable, NamedTuple, Sequence

#: Step kinds.
CLEANUP = "cleanup"          # remove a ghost from Ẽ_F (cost 0)
PLACE = "place"              # move a name already in Ẽ_F to a new F-index
INCORPORATE = "incorporate"  # move a buffered element into its F-slot


class RebuildStep(NamedTuple):
    """One per-name action of a rebuild plan."""

    kind: str
    name: Hashable
    target_f_index: int | None = None
    #: Where a ``PLACE`` step's name sits in ``Ẽ_F`` when the step runs.
    source_f_index: int | None = None


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
) -> tuple[list[RebuildStep], dict[Hashable, int]]:
    """The steps that turn ``shadow`` (``Ẽ_F``) into ``checkpoint``, in
    execution order, and the target F-index of each name they move or
    incorporate.

    Steps are grouped per dirty interval and ordered so that every step's
    target F-slot is element-free by the time the step executes (see the
    module docstring).  A name present in both states must keep its order
    among the others, as live names keep key order, so that its two
    positions lie in one interval; inside an interval no position holds
    the same name in both states, so every checkpoint name there gets a
    step.
    """
    if len(shadow) != len(checkpoint):
        raise ValueError("shadow and checkpoint must have the same length")

    steps: list[RebuildStep] = []
    targets: dict[Hashable, int] = {}
    for lo, hi in _interval_boundaries(shadow, checkpoint):
        # Both maps keep position order.
        sources = {
            name: i for i, name in enumerate(shadow[lo : hi + 1], lo) if name is not None
        }
        interval_targets = {
            name: i for i, name in enumerate(checkpoint[lo : hi + 1], lo) if name is not None
        }
        # Names leaving Ẽ_F entirely (ghost clean-ups) go first.
        steps.extend(
            RebuildStep(CLEANUP, name) for name in sources if name not in interval_targets
        )
        lowering: list[RebuildStep] = []
        raising_or_new: list[RebuildStep] = []
        for name, target in interval_targets.items():
            source = sources.get(name)
            if source is None:
                raising_or_new.append(RebuildStep(INCORPORATE, name, target))
            elif target < source:
                lowering.append(RebuildStep(PLACE, name, target, source))
            else:
                raising_or_new.append(RebuildStep(PLACE, name, target, source))
        steps.extend(lowering)
        steps.extend(reversed(raising_or_new))
        targets.update(interval_targets)
    return steps, targets
