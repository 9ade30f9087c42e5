"""Operations, element moves, and per-operation results.

The paper's cost model (Definition 1) charges one unit per *element move*:
whenever an element is written into an array slot different from the one it
currently occupies.  Every algorithm in this library reports the moves it
performs through :class:`OperationResult`, which both drives the cost
accounting in :mod:`repro.core.cost` and lets the embedding of Section 3
replay a fast algorithm's moves on the shared physical array.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from operator import ne
from typing import Hashable, Iterable, Iterator, Sequence

#: Marker for insert operations (``σ`` in the paper's ``x_t = (r, σ)``).
INSERT = "insert"

#: Marker for delete operations.
DELETE = "delete"

#: Key-addressed point read: find the label/rank of a stored element.  The
#: rank names which element is probed; the runner resolves it to a key and
#: routes the read through ``slot_of``/``rank_of`` (over the sharding
#: engine, the fence-key route).
LOOKUP = "lookup"

#: Rank-addressed point read (select-kth): return the ``rank``-th element.
SELECT = "select"

#: Streaming read of the elements with ranks in ``[rank, end_rank]``.
RANGE = "range"

#: Count of the stored elements with ranks in ``[rank, end_rank]``, served
#: through the occupancy indexes (a slot-window count).
COUNT_RANGE = "count_range"

#: The query (side-effect-free) operation kinds.
READ_KINDS = frozenset({LOOKUP, SELECT, RANGE, COUNT_RANGE})

#: Kinds whose addressing is a rank *interval* rather than a single rank.
_SPAN_KINDS = (RANGE, COUNT_RANGE)

_VALID_KINDS = (INSERT, DELETE, LOOKUP, SELECT, RANGE, COUNT_RANGE)


@dataclass(frozen=True)
class Operation:
    """A single list-labeling operation ``x_t = (r, σ)``.

    Parameters
    ----------
    kind:
        One of :data:`INSERT`, :data:`DELETE` (the mutating kinds of
        Definition 1) or the read kinds :data:`LOOKUP`, :data:`SELECT`,
        :data:`RANGE`, :data:`COUNT_RANGE` (the query surface the labels
        exist to serve).
    rank:
        The 1-based rank at which the operation applies.  An insertion at
        rank ``r`` makes the new element the ``r``-th smallest; a deletion at
        rank ``r`` removes the ``r``-th smallest element; a read at rank
        ``r`` addresses the ``r``-th smallest element (the *first* one, for
        the interval kinds).
    key:
        Optional application-level payload carried by an insertion (for
        example a database key).  The list-labeling algorithms never inspect
        it — per Section 2 the elements are black boxes.
    end_rank:
        Last rank (inclusive) of a :data:`RANGE` / :data:`COUNT_RANGE`
        interval; required for those kinds, disallowed for all others.
    """

    kind: str
    rank: int
    key: Hashable | None = None
    end_rank: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"unknown operation kind {self.kind!r}")
        if self.rank < 1:
            raise ValueError(f"ranks are 1-based; got {self.rank}")
        if self.kind in _SPAN_KINDS:
            if self.end_rank is None:
                raise ValueError(f"{self.kind} operations need an end_rank")
            if self.end_rank < self.rank:
                raise ValueError(
                    f"end_rank {self.end_rank} precedes rank {self.rank}"
                )
        elif self.end_rank is not None:
            raise ValueError(f"{self.kind} operations carry no end_rank")

    @property
    def is_insert(self) -> bool:
        return self.kind == INSERT

    @property
    def is_delete(self) -> bool:
        return self.kind == DELETE

    @property
    def is_read(self) -> bool:
        """True for the side-effect-free query kinds."""
        return self.kind in READ_KINDS

    @property
    def is_write(self) -> bool:
        return self.kind == INSERT or self.kind == DELETE

    @property
    def span(self) -> int:
        """Number of ranks an interval read addresses (1 for point kinds)."""
        if self.end_rank is None:
            return 1
        return self.end_rank - self.rank + 1

    @staticmethod
    def insert(rank: int, key: Hashable | None = None) -> "Operation":
        """Convenience constructor for an insertion."""
        return Operation(INSERT, rank, key)

    @staticmethod
    def delete(rank: int) -> "Operation":
        """Convenience constructor for a deletion."""
        return Operation(DELETE, rank)

    @staticmethod
    def lookup(rank: int, key: Hashable | None = None) -> "Operation":
        """A key-addressed point lookup of the ``rank``-th element."""
        return Operation(LOOKUP, rank, key)

    @staticmethod
    def select(rank: int) -> "Operation":
        """A rank-addressed point read (select-kth)."""
        return Operation(SELECT, rank)

    @staticmethod
    def range(rank: int, end_rank: int) -> "Operation":
        """A streaming read of ranks ``[rank, end_rank]``."""
        return Operation(RANGE, rank, None, end_rank)

    @staticmethod
    def count_range(rank: int, end_rank: int) -> "Operation":
        """A count of the stored elements with ranks in ``[rank, end_rank]``."""
        return Operation(COUNT_RANGE, rank, None, end_rank)


@dataclass(frozen=True)
class Move:
    """One element move performed while serving an operation.

    ``source is None`` records the initial placement of a newly inserted
    element; ``destination is None`` records the removal of a deleted
    element.  Following the paper, placements count one unit of cost and
    removals count zero.
    """

    element: Hashable
    source: int | None
    destination: int | None

    @property
    def is_placement(self) -> bool:
        return self.source is None and self.destination is not None

    @property
    def is_removal(self) -> bool:
        return self.destination is None

    @property
    def cost(self) -> int:
        """Cost of this move under the paper's element-move metric."""
        if self.is_removal:
            return 0
        if self.source == self.destination:
            return 0
        return 1


class MoveRecorder:
    """An append-only, allocation-free move log (the fast-path ``move_sink``).

    The paper's cost metric only needs the *count* of element moves, yet the
    seed implementation materialized one frozen :class:`Move` dataclass per
    move even on paths where nobody ever reads the log.  The recorder stores
    the raw ``(element, source, destination)`` triple in parallel slabs — a
    plain object list plus two ``array('q')`` columns with ``-1`` standing in
    for ``None`` — and keeps :attr:`total_cost` incrementally, so recording a
    move is three appends and an integer add.

    It is the one move log: every :class:`OperationResult` carries one, and
    every replay (the F-emulator's fast path, the R-shell) reads its
    columns.  The :class:`Move` API is preserved for tests and analysis:
    iterating, indexing or comparing a recorder materializes `Move` objects
    on demand, so any reader written against ``list[Move]`` keeps working.
    Only the reference physical array (the differential oracle) still logs
    into a plain ``list[Move]``, which :func:`move_triples` also accepts.

    Composite structures stay on the slabs too: the sharding engine lifts
    a shard's log into global slot coordinates with :meth:`append_shifted`
    (one slab extend per column, no :class:`Move` built), records its
    split, merge and rewrite traffic column-wise with :meth:`record_all`,
    and reads each restructure's cost off :attr:`total_cost`.
    """

    __slots__ = ("_elements", "_sources", "_destinations", "total_cost")

    def __init__(self) -> None:
        self._elements: list[Hashable] = []
        self._sources = array("q")
        self._destinations = array("q")
        #: Element-move cost of everything recorded so far (Definition 1).
        self.total_cost = 0

    def columns(self) -> tuple[list[Hashable], array, array]:
        """The log as its three columns — elements, sources, destinations,
        ``-1`` standing in for ``None`` — for replays that read moves
        without building :class:`Move` objects.  Read-only views."""
        return self._elements, self._sources, self._destinations

    def record(
        self, element: Hashable, source: int | None, destination: int | None
    ) -> None:
        """Record one move given as raw coordinates (``None`` = off-array)."""
        self._elements.append(element)
        self._sources.append(-1 if source is None else source)
        self._destinations.append(-1 if destination is None else destination)
        if destination is not None and source != destination:
            self.total_cost += 1

    def record_all(
        self,
        elements: Sequence[Hashable],
        sources: Sequence[int | None],
        destinations: list[int],
    ) -> None:
        """Record moves given as three parallel columns, in order: the
        slab form of calling :meth:`record` once per move, with the same
        log and the same cost.  Every destination is a slot (``None``
        sources are fresh placements)."""
        sources = [-1 if source is None else source for source in sources]
        self._elements.extend(elements)
        self._sources.fromlist(sources)
        self._destinations.fromlist(destinations)
        self.total_cost += sum(map(ne, sources, destinations))

    def append_shifted(self, moves: MoveRecorder, offset: int) -> None:
        """Append another log with every slot coordinate shifted by
        ``offset`` (``None`` stays ``None``).

        The log is copied slab to slab, and its cost carries over
        unchanged: a shift by a slot offset (never negative) keeps
        placements, removals and stationary moves what they were.
        """
        assert offset >= 0, offset
        sources, destinations = moves._sources, moves._destinations
        self._elements.extend(moves._elements)
        if offset:
            self._sources.fromlist(
                [source + offset if source >= 0 else -1 for source in sources]
            )
            self._destinations.fromlist(
                [target + offset if target >= 0 else -1 for target in destinations]
            )
        else:
            self._sources.extend(sources)
            self._destinations.extend(destinations)
        self.total_cost += moves.total_cost

    def clear(self) -> None:
        self._elements.clear()
        del self._sources[:]
        del self._destinations[:]
        self.total_cost = 0

    def __len__(self) -> int:
        return len(self._elements)

    def __bool__(self) -> bool:
        return bool(self._elements)

    def __iter__(self) -> Iterator[Move]:
        for element, source, destination in zip(
            self._elements, self._sources, self._destinations
        ):
            yield Move(
                element,
                None if source < 0 else source,
                None if destination < 0 else destination,
            )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        source = self._sources[index]
        destination = self._destinations[index]
        return Move(
            self._elements[index],
            None if source < 0 else source,
            None if destination < 0 else destination,
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (MoveRecorder, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def moves(self) -> list[Move]:
        """Materialize the log as a plain list of :class:`Move` objects."""
        return list(self)

    def triples(self) -> list[tuple[Hashable, int | None, int | None]]:
        """The raw log as ``(element, source, destination)`` tuples."""
        return [
            (
                element,
                None if source < 0 else source,
                None if destination < 0 else destination,
            )
            for element, source, destination in zip(
                self._elements, self._sources, self._destinations
            )
        ]

    def moved_elements(self) -> list[Hashable]:
        """Elements that physically moved (or were placed), in move order."""
        return [
            element
            for element, source, destination in zip(
                self._elements, self._sources, self._destinations
            )
            if destination >= 0 and source != destination
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"MoveRecorder(moves={len(self)}, total_cost={self.total_cost})"


def move_triples(moves: Iterable[Move]) -> list[tuple[Hashable, int | None, int | None]]:
    """Normalize any move log to ``(element, source, destination)`` tuples.

    The differential suite compares move logs across physical-array
    implementations; this helper gives both the list-of-:class:`Move` and the
    :class:`MoveRecorder` representations a common comparable form.
    """
    if isinstance(moves, MoveRecorder):
        return moves.triples()
    return [(move.element, move.source, move.destination) for move in moves]


@dataclass
class OperationResult:
    """The outcome of a single insert/delete on a list-labeling structure.

    ``moves`` is the operation's :class:`MoveRecorder`, which keeps its
    cost pre-aggregated, so :attr:`cost` is ``O(1)`` instead of a sum over
    materialized moves.
    """

    operation: Operation
    moves: MoveRecorder

    @property
    def cost(self) -> int:
        """Total element-move cost of the operation."""
        return self.moves.total_cost

    def moved_elements(self) -> list[Hashable]:
        """Elements that physically moved (or were placed), in move order."""
        return self.moves.moved_elements()

    def __iter__(self) -> Iterator[Move]:
        return iter(self.moves)


@dataclass
class BatchResult:
    """The outcome of one ``insert_batch`` / ``delete_batch`` call.

    ``count`` is the number of *logical* operations the batch contained;
    ``results`` holds the physical work performed.  A loop fallback produces
    one :class:`OperationResult` per logical operation, while an optimized
    implementation that services the whole batch with a single merged pass
    may report fewer results than operations — only the totals are
    comparable across implementations.
    """

    count: int
    results: list[OperationResult] = field(default_factory=list)

    @property
    def cost(self) -> int:
        """Total element-move cost of the whole batch."""
        return sum(result.cost for result in self.results)

    @property
    def amortized(self) -> float:
        """Average element-move cost per logical operation of the batch."""
        return self.cost / self.count if self.count else 0.0

    @property
    def moves(self) -> list[Move]:
        """All moves performed while serving the batch, in execution order."""
        return [move for result in self.results for move in result.moves]

    def moved_elements(self) -> list[Hashable]:
        """Elements that physically moved (or were placed), in move order."""
        return [move.element for move in self.moves if move.cost > 0]

    def __iter__(self) -> Iterator[OperationResult]:
        return iter(self.results)
