"""The abstract list-labeling interface shared by every algorithm.

Definition 1 of the paper: a list-labeling structure of capacity ``n``
stores up to ``n`` elements in sorted order in an array of ``m = cn`` slots
for ``c = 1 + Θ(1)``, supporting rank-addressed insertions and deletions,
and is charged one unit per element moved.

Every algorithm in :mod:`repro.algorithms` (and the embedding itself)
implements :class:`ListLabeler`.  Beyond the two mutating operations the
interface deliberately exposes the *physical* slot array — the embedding of
Section 3 needs to observe exactly which slot each element of its simulated
copy of ``F`` occupies in order to plan rebuilds.

**Batch API.**  :meth:`ListLabeler.insert_batch` and
:meth:`~ListLabeler.delete_batch` apply many operations in one call.  All
ranks are interpreted against the **pre-batch** state, the application
order is deterministic (stable ascending for inserts, descending for
deletes), and the whole batch is validated — ranks in range, capacity not
exceeded, no duplicate delete ranks — before any element moves, raising
:class:`repro.core.exceptions.BatchError` otherwise.  The default
implementation loops over the singleton hooks so every algorithm supports
batches unchanged; array-based algorithms override the ``_insert_batch`` /
``_delete_batch`` hooks to service the whole batch with a single merged
rebalance (see :mod:`repro.algorithms.base`).

**Read API (the cursor protocol).**  The labels exist to make ordered reads
cheap, so every labeler also serves rank-addressed queries:

* :meth:`ListLabeler.select` — the ``rank``-th element (``O(log m)`` via an
  occupancy index everywhere in this library);
* :meth:`ListLabeler.iter_from` — a *lazy* iterator over the elements from
  ``rank`` upward: one ``O(log m)`` seek, then a streaming slot walk that
  never materializes the whole element list;
* :meth:`ListLabeler.count_range` — stored elements in a physical slot
  window (one occupancy count), with :meth:`~ListLabeler.count_rank_range`
  translating a rank interval into that window;
* :meth:`ListLabeler.count_below` — the number of stored elements below a
  key: the key-order search an ordered map runs before every insertion
  and range read (:meth:`~ListLabeler.count_below_sorted` answers it for
  a whole sorted batch of keys in one call);
* :meth:`ListLabeler.cursor` — a :class:`Cursor` wrapping ``iter_from`` with
  rank bookkeeping.

Reads are side-effect-free: they must not move elements, relabel slots, or
change any observable state (the differential suite fuzzes a layout digest
across interleaved reads to enforce this).  The indexed reads — ``select``,
the stream behind ``iter_from``, ``count_range``, ``slot_of_rank`` and
``count_below`` — are abstract, like :meth:`~ListLabeler.bulk_load`: each
of the three concrete bases (the dense arrays, the embedding and the
sharding engine) answers them from its own index.  Only ``slot_of`` and
``rank_of`` keep ``O(m)`` scans, which ``tests/test_query.py`` uses as its
oracle.
"""

from __future__ import annotations

import abc
import math
from operator import itemgetter, le
from typing import Hashable, Iterator, Sequence

from repro.core.exceptions import BatchError, CapacityError, LabelerError, RankError
from repro.core.operations import (
    DELETE,
    INSERT,
    RANGE,
    SELECT,
    BatchResult,
    Operation,
    OperationResult,
)


class Cursor:
    """A lazy forward reader over a labeler's elements, positioned by rank.

    Wraps :meth:`ListLabeler.iter_from` and keeps the rank of the *next*
    element, so callers can interleave streaming with rank bookkeeping
    (pagination, merge joins).  Like any iterator over a live structure, a
    cursor is invalidated by mutations of the underlying labeler.
    """

    __slots__ = ("_labeler", "_next_rank", "_stream")

    def __init__(self, labeler: "ListLabeler", rank: int = 1) -> None:
        self._labeler = labeler
        self._next_rank = rank
        self._stream = labeler.iter_from(rank)

    @property
    def rank(self) -> int:
        """1-based rank of the element the next ``__next__`` returns."""
        return self._next_rank

    def __iter__(self) -> "Cursor":
        return self

    def __next__(self) -> Hashable:
        value = next(self._stream)
        self._next_rank += 1
        return value

    def take(self, count: int) -> list[Hashable]:
        """Up to ``count`` further elements (fewer at the end of the data)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        out: list[Hashable] = []
        for value in self._stream:
            out.append(value)
            if len(out) >= count:
                break
        self._next_rank += len(out)
        return out


class ListLabeler(abc.ABC):
    """Abstract base class for list-labeling data structures.

    Subclasses must implement :meth:`_insert`, :meth:`_delete`,
    :meth:`slots`, :meth:`bulk_load` and the indexed reads (see the module
    docstring); the public :meth:`insert` / :meth:`delete` wrappers
    perform rank and capacity validation and keep the element count.

    Parameters
    ----------
    capacity:
        Maximum number of elements (``n`` in the paper).
    num_slots:
        Physical array size (``m = cn``).  Subclasses provide a default via
        :meth:`default_num_slots` when the caller passes ``None``.
    """

    #: Default slack constant ``c - 1``; subclasses may override.
    default_slack = 0.25

    def __init__(self, capacity: int, num_slots: int | None = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self._capacity = capacity
        if num_slots is None:
            num_slots = self.default_num_slots(capacity)
        if num_slots < capacity:
            raise ValueError(
                f"num_slots ({num_slots}) must be at least capacity ({capacity})"
            )
        self._num_slots = num_slots
        self._size = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def default_num_slots(cls, capacity: int) -> int:
        """Default physical size ``m = ceil((1 + slack) n)``."""
        return max(capacity + 1, int(math.ceil((1.0 + cls.default_slack) * capacity)))

    # ------------------------------------------------------------------
    # Read-only properties
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum number of elements the structure may hold (``n``)."""
        return self._capacity

    @property
    def num_slots(self) -> int:
        """Physical array size (``m``)."""
        return self._num_slots

    @property
    def size(self) -> int:
        """Number of elements currently stored."""
        return self._size

    def __len__(self) -> int:
        return self._size

    @property
    def is_full(self) -> bool:
        return self._size >= self._capacity

    @property
    def is_empty(self) -> bool:
        return self._size == 0

    # ------------------------------------------------------------------
    # Mutating operations
    # ------------------------------------------------------------------
    def insert(self, rank: int, element: Hashable) -> OperationResult:
        """Insert ``element`` so that it becomes the ``rank``-th smallest.

        Raises :class:`RankError` when ``rank`` is not in ``[1, size + 1]``
        and :class:`CapacityError` when the structure is full.
        """
        if not 1 <= rank <= self._size + 1:
            raise RankError(rank, self._size, INSERT)
        if self._size >= self._capacity:
            raise CapacityError(self._capacity)
        result = self._insert(rank, element)
        self._size += 1
        return result

    def delete(self, rank: int) -> OperationResult:
        """Delete the element of the given rank.

        Raises :class:`RankError` when ``rank`` is not in ``[1, size]``.
        """
        if not 1 <= rank <= self._size:
            raise RankError(rank, self._size, DELETE)
        result = self._delete(rank)
        self._size -= 1
        return result

    # ------------------------------------------------------------------
    # Batched mutating operations
    # ------------------------------------------------------------------
    def insert_batch(
        self, items: Sequence[tuple[int, Hashable]]
    ) -> BatchResult:
        """Insert a batch of ``(rank, element)`` pairs in one call.

        Every rank is interpreted against the **pre-batch** state: a pair
        ``(r, e)`` places ``e`` immediately before the element that held rank
        ``r`` when the call started.  Pairs sharing a rank land in the order
        given.  The batch is applied deterministically — items are stably
        sorted by rank and applied in ascending order — so the final element
        sequence is the merge of the current contents with the batch.

        The whole batch is validated up front: :class:`BatchError` is raised
        (before any element moves) when a rank falls outside
        ``[1, size + 1]`` or the batch would exceed the capacity.

        The default implementation loops over singleton :meth:`insert` calls;
        array-based subclasses override the :meth:`_insert_batch` hook with a
        single merged rebalance pass, which is what makes bulk loads cheap.
        """
        prepared = self._prepare_insert_batch(items)
        if not prepared:
            return BatchResult(count=0)
        results = self._insert_batch(prepared)
        return BatchResult(count=len(prepared), results=results)

    def delete_batch(self, ranks: Sequence[int]) -> BatchResult:
        """Delete the elements holding the given **pre-batch** ranks.

        Ranks are interpreted against the state before the call; duplicates
        (which would delete one element twice) raise :class:`BatchError`, as
        do ranks outside ``[1, size]`` — in both cases before any element
        moves.  The batch is applied deterministically in descending rank
        order, which keeps every remaining pre-batch rank valid.
        """
        prepared = self._prepare_delete_batch(ranks)
        if not prepared:
            return BatchResult(count=0)
        results = self._delete_batch(prepared)
        return BatchResult(count=len(prepared), results=results)

    def _prepare_insert_batch(
        self, items: Sequence[tuple[int, Hashable]]
    ) -> list[tuple[int, Hashable]]:
        """Validate an insert batch and return it stably sorted by rank."""
        prepared = self._sorted_insert_batch(items)
        if self._size + len(prepared) > self._capacity:
            raise BatchError(
                f"insert_batch of {len(prepared)} element(s) exceeds capacity "
                f"{self._capacity} (size {self._size})"
            )
        return prepared

    def _sorted_insert_batch(
        self, items: Sequence[tuple[int, Hashable]]
    ) -> list[tuple[int, Hashable]]:
        """``items`` stably sorted by rank (ties keep their order; ``O(n)``
        on a sorted batch), with every rank checked to lie in
        ``[1, size + 1]``.  The sorted ranks must be pairwise
        non-decreasing — a NaN compares false with everything, so the sort
        can leave one anywhere — and then checking the first and the last
        is checking them all."""
        prepared = sorted(items, key=itemgetter(0))
        if prepared:
            ranks = list(map(itemgetter(0), prepared))
            if not all(map(le, ranks, ranks[1:])):
                raise BatchError(
                    "insert_batch ranks do not sort into order (a NaN rank?)"
                )
            for rank in (ranks[0], ranks[-1]):
                if not 1 <= rank <= self._size + 1:
                    raise BatchError(
                        f"insert_batch rank {rank} out of range for a structure "
                        f"holding {self._size} element(s)"
                    )
        return prepared

    def _prepare_delete_batch(self, ranks: Sequence[int]) -> list[int]:
        """Validate a delete batch and return its ranks sorted descending."""
        prepared = list(ranks)
        seen: set[int] = set()
        for rank in prepared:
            if not 1 <= rank <= self._size:
                raise BatchError(
                    f"delete_batch rank {rank} out of range for a structure "
                    f"holding {self._size} element(s)"
                )
            if rank in seen:
                raise BatchError(f"delete_batch names rank {rank} twice")
            seen.add(rank)
        prepared.sort(reverse=True)
        return prepared

    def _insert_batch(
        self, prepared: Sequence[tuple[int, Hashable]]
    ) -> list[OperationResult]:
        """Apply a validated, rank-sorted insert batch; must update the size.

        The default loops over the singleton hook: the ``i``-th prepared item
        (0-based) goes to rank ``rank + i``, which realizes the pre-batch
        rank semantics under sequential application.
        """
        results = []
        for offset, (rank, element) in enumerate(prepared):
            results.append(self._insert(rank + offset, element))
            self._size += 1
        return results

    def _delete_batch(self, prepared: Sequence[int]) -> list[OperationResult]:
        """Apply a validated, descending-sorted delete batch; updates the size."""
        results = []
        for rank in prepared:
            results.append(self._delete(rank))
            self._size -= 1
        return results

    def apply(self, operation: Operation, element: Hashable | None = None) -> OperationResult:
        """Apply an :class:`Operation`, generating an element if needed.

        For insertions, ``element`` defaults to ``operation.key`` when given
        and otherwise to a fresh integer identifier.
        """
        if operation.is_insert:
            if element is None:
                element = operation.key
            if element is None:
                element = self._fresh_element()
            return self.insert(operation.rank, element)
        return self.delete(operation.rank)

    @abc.abstractmethod
    def bulk_load(self, elements: Sequence[Hashable]) -> int:
        """Load ``elements`` (already in rank order) into an empty structure.

        Returns the total move cost, one placement per element: the dense
        array algorithms lay them out evenly, the sharding engine fills
        fresh shards evenly, and :class:`repro.core.embedding.Embedding`
        places F's layout straight on its F-slots.  The embedding's R-shell
        uses it for its Θ(n) initialization tokens, so even an embedding
        nested as R is built in linear time.  Raises :class:`LabelerError`
        on a non-empty structure.
        """

    # ------------------------------------------------------------------
    # Serialization (snapshot / restore)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A pure-Python description of the structure's current state.

        The returned document contains only dicts, lists and the stored
        elements themselves (as leaves), so a codec that knows how to encode
        the elements can persist it — this is what the durable store
        (:mod:`repro.store`) writes into its per-shard snapshot files.

        The default format, ``"elements"``, records the element sequence
        only; :meth:`restore` rebuilds it via :meth:`bulk_load`, which yields
        a *valid* (evenly laid out) state but not necessarily the exact slot
        assignment this instance currently has.  Structures whose physical
        layout must survive a round-trip exactly override both hooks (every
        dense array algorithm and the sharding engine do).
        """
        return {
            "format": "elements",
            "size": self._size,
            "elements": list(self.elements()),
        }

    def restore(self, state: dict) -> None:
        """Reinstall a :meth:`snapshot` document into this (empty) structure.

        The default handles the ``"elements"`` format by bulk-loading the
        recorded sequence.  Raises :class:`LabelerError` when the structure
        is not empty or the format is not recognized.
        """
        if self._size:
            raise LabelerError("restore requires an empty structure")
        if state.get("format") != "elements":
            raise LabelerError(
                f"{type(self).__name__} cannot restore snapshot format "
                f"{state.get('format')!r}"
            )
        self.bulk_load(state["elements"])

    _fresh_counter = 0

    def _fresh_element(self) -> str:
        """Generate a unique element identifier for anonymous insertions."""
        ListLabeler._fresh_counter += 1
        return f"auto-{ListLabeler._fresh_counter}"

    # ------------------------------------------------------------------
    # Physical state
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def slots(self) -> Sequence[Hashable | None]:
        """The physical array: one entry per slot, ``None`` marks a free slot.

        Occupied slots read left-to-right must yield the stored elements in
        rank order — this is the defining invariant of list labeling and is
        enforced by :func:`repro.core.validation.check_labeler`.
        """

    def elements(self) -> list[Hashable]:
        """The stored elements in rank order."""
        return [item for item in self.slots() if item is not None]

    def slot_of(self, element: Hashable) -> int:
        """Physical slot index currently holding ``element``.

        The default implementation is an ``O(m)`` scan of :meth:`slots` — a
        last-resort fallback only.  Every concrete structure in this library
        overrides it with an indexed ``O(1)``/``O(log m)`` lookup
        (:class:`repro.algorithms.base.DenseArrayLabeler` via its position
        dict, the embedding via the physical array's index), and callers on
        hot paths must go through those overrides rather than this scan —
        ``tests/test_interface.py`` guards that no registered algorithm
        silently falls back here.
        """
        for index, item in enumerate(self.slots()):
            if item == element:
                return index
        raise KeyError(f"element {element!r} is not stored")

    def rank_of(self, element: Hashable) -> int:
        """1-based rank of a stored element.

        The default implementation scans the slot array (``O(m)``);
        subclasses with occupancy indexes override it with an
        ``O(log m)`` rank query.
        """
        rank = 0
        for item in self.slots():
            if item is None:
                continue
            rank += 1
            if item == element:
                return rank
        raise KeyError(f"element {element!r} is not stored")

    def labels(self) -> dict[Hashable, int]:
        """Map each stored element to its current label (slot index).

        This is the "label" view of the problem described in footnote 1 of
        the paper: labels are monotone in rank.
        """
        return {
            item: index for index, item in enumerate(self.slots()) if item is not None
        }

    # ------------------------------------------------------------------
    # Read path (the cursor protocol)
    # ------------------------------------------------------------------
    def _check_read_rank(self, rank: int, kind: str, *, slack: int = 0) -> None:
        """Validate a read rank; ``slack=1`` admits the one-past-end rank."""
        if not 1 <= rank <= self._size + slack:
            raise RankError(rank, self._size, kind)

    @abc.abstractmethod
    def select(self, rank: int) -> Hashable:
        """The element of the given 1-based rank (select-kth), through an
        occupancy index (``O(log m)``); raises :class:`RankError` outside
        ``[1, size]``."""

    def iter_from(self, rank: int) -> Iterator[Hashable]:
        """Lazily yield the stored elements of ranks ``rank, rank+1, …``.

        ``rank == size + 1`` is allowed and yields nothing (the natural
        "cursor at the end" state).  The stream is lazy: elements are read
        off the physical array as the consumer advances, never materialized
        up front.  Structures seek the start slot through an occupancy index
        (``O(log m)``) and then walk slots.  Mutating the labeler
        invalidates the stream.
        """
        self._check_read_rank(rank, RANGE, slack=1)
        return self._iter_from(rank)

    @abc.abstractmethod
    def _iter_from(self, rank: int) -> Iterator[Hashable]:
        """The stream behind :meth:`iter_from`; the rank is already valid."""

    def cursor(self, rank: int = 1) -> Cursor:
        """A :class:`Cursor` positioned so its next element has ``rank``."""
        return Cursor(self, rank)

    @abc.abstractmethod
    def count_range(self, lo: int, hi: int) -> int:
        """Number of stored elements occupying slots in ``[lo, hi)``.

        This is the label-window count (how many elements carry labels in a
        physical interval); bounds are clamped to the array.  Structures
        answer it from their occupancy index (one popcount of a dense
        array's bitmask or of the embedding's element lane).
        """

    @abc.abstractmethod
    def slot_of_rank(self, rank: int) -> int:
        """Physical slot (label) of the element with the given rank."""

    @abc.abstractmethod
    def count_below(self, key, *, strict: bool = True) -> int:
        """Number of stored elements ``< key`` (``<= key`` when not strict).

        The key-order search behind every ordered-map lookup; the stored
        elements must be totally ordered by ``<``.  The sharding engine
        runs a fence-key descent, and the dense array algorithms and
        :class:`repro.core.embedding.Embedding` a bisection of their slots.
        """

    def count_below_sorted(self, keys: Sequence) -> list[int]:
        """:meth:`count_below` (strict) of every key of an ascending
        sequence, in order.

        The batch form of the key search, for ranking a sorted insert
        batch.  The default asks :meth:`count_below` once per key; the
        sharding engine visits each touched shard once and the dense
        array algorithms bisect one copy of their elements.
        """
        return [self.count_below(key) for key in keys]

    def count_rank_range(self, lo_rank: int, hi_rank: int) -> int:
        """Number of stored elements with ranks in ``[lo_rank, hi_rank]``.

        Answered through the *slot-window* count between the two rank
        endpoints' labels, so the call exercises — and cross-checks — the
        occupancy indexes: a consistent structure always returns
        ``hi_rank - lo_rank + 1``, and the workload runner asserts exactly
        that on every COUNT_RANGE operation.
        """
        if hi_rank < lo_rank:
            return 0
        self._check_read_rank(lo_rank, SELECT)
        self._check_read_rank(hi_rank, SELECT)
        return self.count_range(
            self.slot_of_rank(lo_rank), self.slot_of_rank(hi_rank) + 1
        )

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.elements())

    # ------------------------------------------------------------------
    # Subclass responsibilities
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _insert(self, rank: int, element: Hashable) -> OperationResult:
        """Perform the insertion; rank and capacity are already validated."""

    @abc.abstractmethod
    def _delete(self, rank: int) -> OperationResult:
        """Perform the deletion; the rank is already validated."""

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"{type(self).__name__}(capacity={self._capacity}, "
            f"num_slots={self._num_slots}, size={self._size})"
        )
