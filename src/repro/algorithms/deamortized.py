"""Deamortized (worst-case bounded) packed-memory array.

This is the library's stand-in for Willard's ``O(log² n)`` worst-case
algorithm [49] — the reliable algorithm ``Z`` of Corollary 11.  Rather than
reproducing Willard's construction verbatim, the class keeps the PMA
skeleton of :class:`repro.algorithms.classical.ClassicalPMA` and removes the
amortization spikes with *incremental rebalancing*:

* density violations never trigger an immediate full-window rebalance;
  instead they enqueue a **rebalance task** whose target layout (the even
  spreading the classical PMA would have produced) is frozen when the task
  is created;
* every operation executes at most ``work_cap = ceil(work_factor · log²₂ m)``
  element moves drawn from the active tasks, smallest window first, so the
  per-operation cost is capped at ``Θ(log² n)``;
* leaves are triggered *early* (at ``tau_leaf < 1``) so a task normally
  finishes long before its leaf can actually fill up.

Task execution is *best effort*: a planned move is skipped when an element
inserted after the plan was frozen blocks either the target slot or the path
to it, which keeps every executed move order-safe.  In the (rare) event
that a leaf still fills up before its task has made room, the structure
falls back to an immediate classical rebalance; these events are counted in
:attr:`forced_rebalances` and reported by the E-WC / E-TAIL benchmarks, so
the deamortization quality is measured rather than assumed — see the
substitution note in ``DESIGN.md``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Hashable

from repro.algorithms.classical import ClassicalPMA
from repro.core.exceptions import InvariantViolation
from repro.core.operations import Operation, OperationResult


@dataclass
class RebalanceTask:
    """An in-progress incremental rebalance of one window."""

    level: int
    lo: int
    hi: int
    #: Remaining planned moves: ``(element, target_slot)`` in execution order.
    queue: Deque[tuple[Hashable, int]] = field(default_factory=deque)

    @property
    def width(self) -> int:
        return self.hi - self.lo

    def covers(self, slot: int) -> bool:
        return self.lo <= slot < self.hi


class DeamortizedPMA(ClassicalPMA):
    """PMA whose rebalancing work is spread out with a hard per-op move cap."""

    default_slack = 0.75
    #: Leaves are considered "over threshold" early, leaving headroom while
    #: their rebalance task drains.
    tau_leaf = 0.85
    tau_root = 0.6
    #: ``work_cap = ceil(work_factor * log2(m) ** 2)`` moves per operation.
    work_factor = 2.0

    def __init__(self, capacity: int, num_slots: int | None = None, **kwargs) -> None:
        super().__init__(capacity, num_slots, **kwargs)
        log_m = math.log2(max(4, self.num_slots))
        self.work_cap = max(self._segment_size * 2, int(math.ceil(self.work_factor * log_m * log_m)))
        self._tasks: list[RebalanceTask] = []
        #: Number of times the structure had to fall back to an immediate
        #: classical rebalance because a leaf filled before its task drained.
        self.forced_rebalances = 0
        #: Per-operation number of moves spent on background task execution.
        self.background_moves = 0

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _insert(self, rank: int, element: Hashable) -> OperationResult:
        result = self._begin(Operation.insert(rank))
        try:
            anchor = self._placement(rank, element)
            self._schedule_tasks(anchor)
            used = len(result.moves)
            self._run_tasks(anchor, budget=max(0, self.work_cap - used))
        finally:
            self._finish()
        return result

    def _delete(self, rank: int) -> OperationResult:
        result = self._begin(Operation.delete(rank))
        try:
            slot = self.slot_of_rank(rank)
            self._remove(slot)
            # Deletions only create slack, never density violations, so they
            # simply contribute their budget to draining pending tasks.
            self._run_tasks(slot, budget=self.work_cap)
        finally:
            self._finish()
        return result

    def _after_batch_merge(self, lo: int, hi: int) -> None:
        super()._after_batch_merge(lo, hi)
        # A merged batch rewrite supersedes any frozen incremental plan that
        # overlaps the window; stale tasks would only burn budget on moves
        # the order-safety checks skip anyway.
        self._cancel_tasks_overlapping(lo, hi)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _placement(self, rank: int, element: Hashable) -> int:
        """Place the new element, falling back to a forced rebalance if needed.

        Returns the anchor slot (the slot of the predecessor, or of the new
        element itself when it becomes the smallest).
        """
        pred_slot, succ_slot = self._neighbour_slots(rank)
        anchor = max(0, min(pred_slot if pred_slot >= 0 else succ_slot, self.num_slots - 1))

        if succ_slot - pred_slot > 1:
            self._place(pred_slot + 1 + (succ_slot - pred_slot - 1) // 2, element)
            return anchor

        leaf_lo, leaf_hi = ClassicalPMA._window_bounds(self, anchor, 0)
        gap = self._find_gap_in(leaf_lo, leaf_hi, pred_slot, succ_slot)
        if gap is not None:
            target = pred_slot + 1 if gap > pred_slot else pred_slot
            self._shift_gap_to(gap, target)
            self._place(target, element)
            return anchor

        # Leaf completely full before its task could drain: emergency path.
        # Rather than a full (possibly Θ(n)-cost) window rebalance, pull the
        # nearest free slot into the leaf by shifting the gap over; the cost
        # is the gap distance, which stays small as long as the background
        # tasks keep densities under control, and is measured either way.
        self.forced_rebalances += 1
        target = pred_slot + 1 if pred_slot >= 0 else succ_slot
        left_gap = self.free_slot_left(pred_slot) if pred_slot >= 0 else None
        right_gap = (
            self.free_slot_right(succ_slot) if succ_slot < self.num_slots else None
        )
        if left_gap is None and right_gap is None:
            raise InvariantViolation("the array is completely full")
        if right_gap is None or (
            left_gap is not None and (pred_slot - left_gap) <= (right_gap - succ_slot)
        ):
            self._shift_gap_to(left_gap, pred_slot)
            self._place(pred_slot, element)
        else:
            self._shift_gap_to(right_gap, succ_slot)
            self._place(succ_slot, element)
        return anchor

    # ------------------------------------------------------------------
    # Task scheduling
    # ------------------------------------------------------------------
    def _schedule_tasks(self, anchor: int) -> None:
        """Create a rebalance task if any window containing ``anchor`` is too dense.

        Unlike the classical PMA, the check starts at the leaf but considers
        *every* level: a mid-level window drifting over its threshold starts
        its (incremental) rebalance long before the leaf inside it can fill,
        which is what keeps the per-operation cost capped.
        """
        violated_level: int | None = None
        for level in range(0, self._height + 1):
            lo, hi = self._window_bounds(anchor, level)
            if self.occupied_in(lo, hi) > (hi - lo) * self.upper_threshold(level):
                violated_level = level
                break
        if violated_level is None:
            return
        # Target the smallest enclosing window that is within its threshold —
        # the same window the classical PMA would rebalance immediately.
        for level in range(violated_level + 1, self._height + 1):
            lo, hi = self._window_bounds(anchor, level)
            count = self.occupied_in(lo, hi)
            at_root = (lo, hi) == (0, self.num_slots)
            if count <= (hi - lo) * self.upper_threshold(level) or at_root:
                if self._task_covering(lo, hi) is not None:
                    return
                self._cancel_tasks_inside(lo, hi)
                self._tasks.append(self._build_task(level, lo, hi))
                return

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _snapshot_extra(self) -> dict:
        extra = super()._snapshot_extra()
        # The frozen task queues decide which background moves future
        # operations will spend their budget on — without them a recovered
        # structure would drift from the uninterrupted run on the very next
        # operation.
        extra["deamortized"] = {
            "tasks": [
                {
                    "level": task.level,
                    "lo": task.lo,
                    "hi": task.hi,
                    "queue": [[element, target] for element, target in task.queue],
                }
                for task in self._tasks
            ],
            "forced_rebalances": self.forced_rebalances,
            "background_moves": self.background_moves,
        }
        return extra

    def _restore_extra(self, extra: dict) -> None:
        super()._restore_extra(extra)
        state = extra.get("deamortized")
        if state:
            self._tasks = [
                RebalanceTask(
                    level=task["level"],
                    lo=task["lo"],
                    hi=task["hi"],
                    queue=deque(
                        (element, target) for element, target in task["queue"]
                    ),
                )
                for task in state["tasks"]
            ]
            self.forced_rebalances = state["forced_rebalances"]
            self.background_moves = state["background_moves"]

    def _task_covering(self, lo: int, hi: int) -> RebalanceTask | None:
        for task in self._tasks:
            if task.lo <= lo and hi <= task.hi:
                return task
        return None

    def _cancel_tasks_inside(self, lo: int, hi: int) -> None:
        self._tasks = [t for t in self._tasks if not (lo <= t.lo and t.hi <= hi)]

    def _cancel_tasks_overlapping(self, lo: int, hi: int) -> None:
        self._tasks = [t for t in self._tasks if t.hi <= lo or hi <= t.lo]

    def _build_task(self, level: int, lo: int, hi: int) -> RebalanceTask:
        """Freeze an even-spreading plan for ``[lo, hi)`` as a task queue."""
        contents = [item for item in self._slots[lo:hi] if item is not None]
        targets = self._rebalance_targets(lo, hi, len(contents), None)
        current = {
            item: slot
            for slot, item in enumerate(self._slots[lo:hi], start=lo)
            if item is not None
        }
        left_movers = [
            (item, dst) for item, dst in zip(contents, targets) if dst < current[item]
        ]
        right_movers = [
            (item, dst) for item, dst in zip(contents, targets) if dst > current[item]
        ]
        queue: Deque[tuple[Hashable, int]] = deque(left_movers + list(reversed(right_movers)))
        return RebalanceTask(level=level, lo=lo, hi=hi, queue=queue)

    # ------------------------------------------------------------------
    # Task execution
    # ------------------------------------------------------------------
    def _run_tasks(self, anchor: int, budget: int) -> None:
        """Spend up to ``budget`` moves draining active tasks.

        Tasks covering the current anchor are drained first (they are the
        ones protecting the leaf that is filling up), then the remaining
        tasks from the smallest window to the largest.
        """
        if not self._tasks or budget <= 0:
            return
        ordered = sorted(
            self._tasks, key=lambda t: (not t.covers(anchor), t.width)
        )
        moves_used = 0
        for task in ordered:
            if moves_used >= budget:
                break
            moves_used += self._drain_task(task, budget - moves_used)
        self.background_moves += moves_used
        self._tasks = [t for t in self._tasks if t.queue]

    def _drain_task(self, task: RebalanceTask, budget: int) -> int:
        """Execute planned moves from ``task``; returns the number of moves spent."""
        spent = 0
        while task.queue and spent < budget:
            element, target = task.queue.popleft()
            if not self.contains(element):
                continue  # The element was deleted after the plan froze.
            src = self.slot_of(element)
            if src == target:
                continue
            if self._slots[target] is not None:
                continue  # A newer element occupies the target: skip.
            lo, hi = (src, target) if src < target else (target, src)
            if self.occupied_in(lo + 1, hi) > 0:
                continue  # The path is blocked: moving would break order.
            self._move(src, target)
            spent += 1
        return spent
