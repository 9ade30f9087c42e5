"""Drive a list-labeling structure through a workload and measure its cost.

The runner owns the reference model (the sorted key sequence), synthesizes
keys for rank-only operations, forwards every operation to the structure
under test, and records per-operation element-move costs.  It can optionally
re-validate the structure's full state every ``validate_every`` operations,
which is how the integration tests exercise long mixed workloads.

Two execution modes are provided.  The **singleton** mode (``batch_size <=
1``) forwards one operation at a time, exactly as before.  The **batched**
mode groups the stream into same-kind batches (via
:meth:`repro.workloads.base.Workload.iter_batches`), converts each batch's
sequential ranks into the pre-batch ranks :meth:`ListLabeler.insert_batch` /
:meth:`~ListLabeler.delete_batch` expect, and records one cost event per
batch through :meth:`CostTracker.record_batch`.  Both modes run on the
calling thread (a sharded structure executes its per-shard sub-batches
inline) and maintain the reference model as a
:class:`repro.analysis.reference.ChunkedList` — a blocked sorted list with
``O(√n)`` point updates — instead of a flat Python list whose ``O(n)``
``insert`` dominated wall-clock at scale.

**Moves, not time.**  The tracker records each write event's element
moves and nothing else; the percentiles ``RunResult.summary()`` reports
are move-cost percentiles.  One :func:`time.perf_counter` pair per run
gives :attr:`RunResult.elapsed_seconds`.  Per-operation latency is
measured by the repository benchmark (``perfbench/``) and, on a live
server, by the ``service.latency.*`` histograms of :mod:`repro.obs`.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Sequence

from repro.analysis.reference import ChunkedList
from repro.core.cost import CostTracker
from repro.core.exceptions import InvariantViolation
from repro.core.interface import ListLabeler
from repro.core.operations import (
    COUNT_RANGE,
    LOOKUP,
    RANGE,
    SELECT,
    Operation,
)
from repro.core.validation import check_labeler
from repro.workloads.base import Workload, synthesize_key


@dataclass
class RunResult:
    """Everything measured while running one workload on one structure."""

    labeler: ListLabeler
    workload_name: str
    tracker: CostTracker
    elapsed_seconds: float
    final_keys: list[Hashable] = field(default_factory=list)
    #: Batch size the run used (1 = singleton execution).
    batch_size: int = 1

    @property
    def amortized_cost(self) -> float:
        return self.tracker.amortized

    @property
    def worst_case_cost(self) -> int:
        return self.tracker.worst_case

    @property
    def total_cost(self) -> int:
        return self.tracker.total_cost

    @property
    def ops_per_second(self) -> float:
        """Logical-operation throughput of the run (wall-clock derived).

        Reads count: a read-heavy workload's throughput is dominated by its
        queries, which the tracker records separately from the move-cost
        events.  For write-only runs this is unchanged.
        """
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return (
            self.tracker.operations + self.tracker.queries
        ) / self.elapsed_seconds

    def summary(self) -> dict[str, float]:
        data = self.tracker.summary()
        data["elapsed_seconds"] = self.elapsed_seconds
        data["ops_per_second"] = self.ops_per_second
        data["batch_size"] = float(self.batch_size)
        shard_statistics = getattr(self.labeler, "shard_statistics", None)
        if callable(shard_statistics):
            # Event counters (splits/merges/moves) must be run-scoped: the
            # tracker owns them (fed the labeler's counter differences over
            # this run), while the labeler's counters are lifetime totals
            # that would misattribute prior runs' work on a reused
            # structure.  Only the state-shaped keys come from the labeler.
            stats = shard_statistics()
            for key in (
                "splits", "merges", "borrows", "rewrites", "restructure_moves"
            ):
                stats.pop(key, None)
            data.update(stats)
        if self.tracker.restructures:
            data["restructure_moves"] = float(self.tracker.restructure_moves)
        return data


def run_workload(
    labeler: ListLabeler,
    workload: Workload,
    *,
    validate_every: int = 0,
    stop_after: int | None = None,
    batch_size: int = 1,
) -> RunResult:
    """Run ``workload`` against ``labeler`` and record the move costs.

    ``validate_every`` > 0 re-checks the full structural invariants (sorted
    order, size, contents against the reference model) every that many
    operations — slow, only used by tests.  ``stop_after`` truncates the
    workload, which lets one workload definition serve several sweep sizes.
    ``batch_size`` > 1 switches to batched execution: operations are grouped
    into same-kind batches of up to that many and forwarded through
    ``insert_batch`` / ``delete_batch``.
    """
    tracker = CostTracker()
    reference = ChunkedList(
        block_size=max(8, math.isqrt(max(1, workload.operations)))
    )
    # Sharded structures count their splits/merges; only the difference
    # over this run is attributed to it.
    restructure_counts = getattr(labeler, "restructure_counts", None)
    counts_before = restructure_counts() if restructure_counts else {}
    started = time.perf_counter()

    if batch_size > 1:
        _run_batched(
            labeler, workload, tracker, reference,
            batch_size=batch_size,
            validate_every=validate_every,
            stop_after=stop_after,
        )
    else:
        _run_singleton(
            labeler, workload, tracker, reference,
            validate_every=validate_every,
            stop_after=stop_after,
        )

    elapsed = time.perf_counter() - started
    if restructure_counts:
        for kind, (events, moves) in restructure_counts().items():
            events_before, moves_before = counts_before[kind]
            if events > events_before:
                tracker.record_restructures(
                    kind, events - events_before, moves - moves_before
                )
    return RunResult(
        labeler=labeler,
        workload_name=workload.name,
        tracker=tracker,
        elapsed_seconds=elapsed,
        final_keys=reference.to_list(),
        batch_size=max(1, batch_size),
    )


def _validate(labeler: ListLabeler, reference: ChunkedList) -> None:
    # check_contents (inside check_labeler) raises InvariantViolation when
    # the structure diverges from the reference model.
    check_labeler(labeler, expected=reference.to_list())


def _execute_read(
    labeler: ListLabeler,
    reference: ChunkedList,
    operation: Operation,
    tracker: CostTracker,
) -> None:
    """Serve one read op and verify it against the reference model inline.

    Every query is checked as it runs — a wrong answer raises
    :class:`InvariantViolation` immediately, so a completed read-heavy run
    certifies every one of its reads.  Reads are recorded through
    :meth:`CostTracker.record_query` (they never contribute element moves).
    Interval bounds are clamped to the current size, so a workload may
    address ``[rank, rank + span - 1]`` without tracking deletions exactly.
    """
    size = len(reference)
    kind = operation.kind
    if size == 0 or operation.rank > size:
        tracker.record_query(kind, 0)
        return
    rank = operation.rank
    if kind == SELECT:
        value = labeler.select(rank)
        expected = reference.select(rank)
        if value != expected:
            raise InvariantViolation(
                f"select({rank}) returned {value!r}, reference holds {expected!r}"
            )
        tracker.record_query(kind, 1)
    elif kind == LOOKUP:
        key = operation.key if operation.key is not None else reference.select(rank)
        found_rank = labeler.rank_of(key)
        slot = labeler.slot_of(key)
        if found_rank != rank:
            raise InvariantViolation(
                f"lookup({key!r}) resolved to rank {found_rank}, expected {rank}"
            )
        if labeler.slot_of_rank(rank) != slot:
            raise InvariantViolation(
                f"lookup({key!r}) label {slot} disagrees with slot_of_rank"
            )
        tracker.record_query(kind, 1)
    elif kind == RANGE:
        hi = min(operation.end_rank, size)
        expected = reference.range_ranks(rank, hi)
        got: list = []
        for value in labeler.iter_from(rank):
            got.append(value)
            if len(got) >= hi - rank + 1:
                break
        if got != expected:
            raise InvariantViolation(
                f"range({rank}, {hi}) diverged from the reference model"
            )
        tracker.record_query(kind, len(got))
    elif kind == COUNT_RANGE:
        hi = min(operation.end_rank, size)
        count = labeler.count_rank_range(rank, hi)
        expected_count = reference.count_range(rank, hi)
        if count != expected_count:
            raise InvariantViolation(
                f"count_range({rank}, {hi}) returned {count}, "
                f"reference counts {expected_count}"
            )
        tracker.record_query(kind, count)
    else:  # pragma: no cover - the operation model validates kinds
        raise ValueError(f"unknown read kind {kind!r}")


def _run_singleton(
    labeler: ListLabeler,
    workload: Workload,
    tracker: CostTracker,
    reference: ChunkedList,
    *,
    validate_every: int,
    stop_after: int | None,
) -> None:
    executed = 0
    for operation in workload:
        if stop_after is not None and executed >= stop_after:
            break
        if operation.is_read:
            _execute_read(labeler, reference, operation, tracker)
            executed += 1
            if validate_every and executed % validate_every == 0:
                _validate(labeler, reference)
            continue
        if operation.is_insert:
            key = operation.key
            if key is None:
                key = synthesize_key(reference, operation.rank)
            result = labeler.insert(operation.rank, key)
            reference.insert(operation.rank - 1, key)
        else:
            result = labeler.delete(operation.rank)
            reference.pop(operation.rank - 1)
        tracker.record(result.cost)
        executed += 1
        if validate_every and executed % validate_every == 0:
            _validate(labeler, reference)


def _run_batched(
    labeler: ListLabeler,
    workload: Workload,
    tracker: CostTracker,
    reference: ChunkedList,
    *,
    batch_size: int,
    validate_every: int,
    stop_after: int | None,
) -> None:
    executed = 0
    next_check = validate_every if validate_every else None
    for batch in workload.iter_batches(batch_size):
        if stop_after is not None:
            if executed >= stop_after:
                break
            batch = batch[: stop_after - executed]
        if not batch:
            continue
        if batch[0].is_read:
            # Reads pass through one at a time: batching buys nothing for
            # side-effect-free operations, and the inline verification
            # wants each query against the current reference state.
            for operation in batch:
                _execute_read(labeler, reference, operation, tracker)
        elif batch[0].is_insert:
            result = _execute_insert_batch(labeler, reference, batch)
            tracker.record_batch(result.cost, result.count)
        else:
            result = _execute_delete_batch(labeler, reference, batch)
            tracker.record_batch(result.cost, result.count)
        executed += len(batch)
        if next_check is not None and executed >= next_check:
            _validate(labeler, reference)
            next_check = (executed // validate_every + 1) * validate_every


def _execute_insert_batch(
    labeler: ListLabeler,
    reference: ChunkedList,
    batch: Sequence[Operation],
):
    """Forward a run of insertions as one ``insert_batch`` call.

    The workload's ranks are *sequential* (each against the state left by
    the previous operation); the batch API wants ranks against the
    *pre-batch* state.  The conversion tracks where each pending key lands
    in the final sequence: the ``j``-th pending entry (in final order) at
    final position ``p_j`` has pre-batch rank ``p_j - j``.
    """
    positions: list[int] = []  # final sequence positions of pending keys
    keys: list[Hashable] = []
    for operation in batch:
        sequential_rank = operation.rank
        key = operation.key
        if key is None:
            key = _synthesize_mid_batch(reference, positions, keys, sequential_rank)
        index = bisect.bisect_left(positions, sequential_rank)
        for later in range(index, len(positions)):
            positions[later] += 1
        positions.insert(index, sequential_rank)
        keys.insert(index, key)
    items = [(positions[j] - j, keys[j]) for j in range(len(keys))]
    result = labeler.insert_batch(items)
    for j, key in enumerate(keys):
        # Ascending final positions: all j earlier entries are already in,
        # so inserting at position - 1 reproduces the final sequence.
        reference.insert(positions[j] - 1, key)
    return result


class _MergedView:
    """Read-only view of reference ⊎ pending batch entries, in final order.

    Lets :func:`synthesize_key` generate mid-batch keys against the state
    the sequence *will* have, without materializing it.
    """

    def __init__(
        self, reference: ChunkedList, positions: list[int], keys: list[Hashable]
    ) -> None:
        self._reference = reference
        self._positions = positions
        self._keys = keys

    def __len__(self) -> int:
        return len(self._reference) + len(self._positions)

    def __getitem__(self, index: int) -> Hashable:
        position = index + 1
        pending = bisect.bisect_left(self._positions, position)
        if pending < len(self._positions) and self._positions[pending] == position:
            return self._keys[pending]
        # ``pending`` batch entries sit before this position.
        return self._reference[index - pending]


def _synthesize_mid_batch(
    reference: ChunkedList,
    positions: list[int],
    keys: list[Hashable],
    rank: int,
) -> Fraction:
    """A key for sequential ``rank`` against reference ⊎ pending entries."""
    return synthesize_key(_MergedView(reference, positions, keys), rank)


def _execute_delete_batch(
    labeler: ListLabeler,
    reference: ChunkedList,
    batch: Sequence[Operation],
):
    """Forward a run of deletions as one ``delete_batch`` call.

    A sequential delete rank ``s`` maps to the smallest pre-batch rank
    ``p`` with ``p - |{deleted < p}| = s``, found by iterating
    ``p ← s + |{deleted ≤ p}|`` to its fixed point.
    """
    deleted: list[int] = []  # pre-batch ranks, kept sorted
    for operation in batch:
        sequential_rank = operation.rank
        pre_rank = sequential_rank
        while True:
            shifted = sequential_rank + bisect.bisect_right(deleted, pre_rank)
            if shifted == pre_rank:
                break
            pre_rank = shifted
        bisect.insort(deleted, pre_rank)
    result = labeler.delete_batch(deleted)
    for rank in reversed(deleted):
        reference.pop(rank - 1)
    return result
