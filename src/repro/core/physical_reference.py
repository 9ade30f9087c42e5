"""The seed's list-backed physical array, preserved as a differential oracle.

:class:`ReferencePhysicalArray` is the original pure-python implementation of
the embedding's shared array ``A`` (parallel ``list`` slabs, four independent
:class:`~repro.core.fenwick.FenwickTree` indexes refreshed with four ``set``
calls per mutation, and an ``O(hi - lo)`` linear scan in
:meth:`ReferencePhysicalArray.chain_positions`).  The slab-backed
:class:`repro.core.physical.PhysicalArray` replaced it on every hot path; this
copy survives so that

* the differential suite can replay recorded workload traces on both
  implementations and assert *move-log equality* (element, source,
  destination — not just final state), and
* the ``repro.perf`` benchmarks can quantify the slab array's speedup
  against the seed behaviour on identical operation sequences.

The algorithms in this module are intentionally kept byte-for-byte equivalent
to the seed; do not "improve" them — their value is being the fixed point the
fast implementation is measured and verified against.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Sequence

from repro.core.exceptions import InvariantViolation
from repro.core.fenwick import FenwickTree
from repro.core.operations import Move
from repro.core.physical_kinds import BUFFER, F_SLOT, R_EMPTY


class ReferencePhysicalArray:
    """The seed's array ``A``: list slabs + four independent Fenwick trees."""

    def __init__(self, num_slots: int) -> None:
        self._m = num_slots
        self._kinds: list[int] = [R_EMPTY] * num_slots
        self._elems: list[Hashable | None] = [None] * num_slots
        self._fen_f = FenwickTree(num_slots)         # kind == F_SLOT
        self._fen_nonempty = FenwickTree(num_slots)  # kind != R_EMPTY
        self._fen_real = FenwickTree(num_slots)      # element present
        self._fen_dummy_buf = FenwickTree(num_slots)  # BUFFER and no element
        self._pos_of: dict[Hashable, int] = {}
        #: Where recorded moves are appended during an operation (or None).
        self.move_sink = None
        #: Per-element count of deadweight moves (Lemma 5 accounting).
        self.deadweight_by_element: dict[Hashable, int] = {}
        self.total_deadweight_moves = 0

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_slots(self) -> int:
        return self._m

    def kind(self, position: int) -> int:
        return self._kinds[position]

    def element(self, position: int) -> Hashable | None:
        return self._elems[position]

    def kinds(self) -> Sequence[int]:
        return tuple(self._kinds)

    def slots(self) -> Sequence[Hashable | None]:
        """Physical contents, one entry per slot (``None`` = no element)."""
        return tuple(self._elems)

    def elements(self) -> list[Hashable]:
        """All stored elements in physical (= rank) order."""
        return [item for item in self._elems if item is not None]

    def position_of(self, element: Hashable) -> int:
        try:
            return self._pos_of[element]
        except KeyError:
            raise KeyError(f"element {element!r} is not stored") from None

    def contains(self, element: Hashable) -> bool:
        return element in self._pos_of

    @property
    def element_count(self) -> int:
        return self._fen_real.total

    def element_at_rank(self, rank: int) -> Hashable:
        """The ``rank``-th (1-based) stored element."""
        position = self._fen_real.select(rank)
        element = self._elems[position]
        assert element is not None
        return element

    def position_of_rank(self, rank: int) -> int:
        """Physical position of the ``rank``-th (1-based) stored element."""
        return self._fen_real.select(rank)

    def iter_elements_from(self, rank: int):
        """Lazily yield the stored elements of ranks ``rank, rank+1, …``.

        The reference twin of
        :meth:`repro.core.physical.PhysicalArray.iter_elements_from`:
        one Fenwick select seeks the start, then the element list is walked
        directly.  Additive read-only API — the seed mutation paths above
        stay untouched.
        """
        if rank > self._fen_real.total:
            return
        elems = self._elems
        for position in range(self._fen_real.select(rank), self._m):
            element = elems[position]
            if element is not None:
                yield element

    def next_element(self, position: int, stop: int) -> tuple[int, Hashable] | None:
        """The first stored element at a position in ``[position, stop)``,
        as ``(position, element)``, or ``None`` — the reference twin of
        :meth:`repro.core.physical.PhysicalArray.next_element`, a plain
        scan.  Additive read-only API, like :meth:`iter_elements_from`.
        """
        elems = self._elems
        for probe in range(position, stop):
            if elems[probe] is not None:
                return probe, elems[probe]
        return None

    # ------------------------------------------------------------------
    # Counting helpers
    # ------------------------------------------------------------------
    def real_between(self, lo: int, hi: int) -> int:
        """Number of stored elements at positions in ``[lo, hi)``."""
        return self._fen_real.count(lo, hi)

    def nonempty_between(self, lo: int, hi: int) -> int:
        """Number of non-``R_EMPTY`` slots at positions in ``[lo, hi)``."""
        return self._fen_nonempty.count(lo, hi)

    def token_rank(self, position: int) -> int:
        """1-based R-shell rank of the (non-empty) slot at ``position``."""
        if self._kinds[position] == R_EMPTY:
            raise ValueError(f"slot {position} is an R-empty slot, not a token")
        return self._fen_nonempty.prefix(position) + 1

    @property
    def f_slot_count(self) -> int:
        return self._fen_f.total

    @property
    def buffer_count(self) -> int:
        return self._fen_nonempty.total - self._fen_f.total

    @property
    def dummy_buffer_count(self) -> int:
        return self._fen_dummy_buf.total

    @property
    def buffered_element_count(self) -> int:
        """Number of real elements currently living in buffer slots."""
        return self.buffer_count - self.dummy_buffer_count

    # ------------------------------------------------------------------
    # F-coordinate translation
    # ------------------------------------------------------------------
    def f_position(self, f_index: int) -> int:
        """Physical position of the ``f_index``-th (0-based) F-slot."""
        return self._fen_f.select(f_index + 1)

    def f_index_of(self, position: int) -> int:
        """0-based F-index of the F-slot at ``position``."""
        if self._kinds[position] != F_SLOT:
            raise ValueError(f"slot {position} is not an F-slot")
        return self._fen_f.prefix(position)

    def f_contents(self) -> list[Hashable | None]:
        """Contents of the F-slots in F-order (the array ``Ẽ_F`` of Section 3)."""
        return [self._elems[p] for p, k in enumerate(self._kinds) if k == F_SLOT]

    # ------------------------------------------------------------------
    # Dummy-buffer queries (needed by the slow path, Lemma 4 compatible)
    # ------------------------------------------------------------------
    def nearest_dummy_buffer(self, position: int) -> int | None:
        """Position of the dummy buffer slot nearest to ``position``.

        "Nearest" is measured in *truncated-state order* (number of non-empty
        slots in between), which depends only on the truncated state ``T`` and
        therefore keeps the R-shell's input independent of its random bits
        (Lemma 4).  Ties prefer the left neighbour.
        """
        if self._fen_dummy_buf.total == 0:
            return None
        before = self._fen_dummy_buf.prefix(position + 1)
        left = self._fen_dummy_buf.select(before) if before > 0 else None
        right = (
            self._fen_dummy_buf.select(before + 1)
            if before < self._fen_dummy_buf.total
            else None
        )
        if left is None:
            return right
        if right is None:
            return left
        left_distance = self.nonempty_between(left, position + 1)
        right_distance = self.nonempty_between(position, right + 1)
        return left if left_distance <= right_distance else right

    # ------------------------------------------------------------------
    # Low-level mutation (records moves, keeps every index consistent)
    # ------------------------------------------------------------------
    def _record(self, element: Hashable, source: int | None, destination: int | None) -> None:
        sink = self.move_sink
        if sink is not None:
            if isinstance(sink, list):
                sink.append(Move(element, source, destination))
            else:
                sink.record(element, source, destination)

    def _refresh_indexes(self, position: int) -> None:
        kind = self._kinds[position]
        element = self._elems[position]
        self._fen_f.set(position, 1 if kind == F_SLOT else 0)
        self._fen_nonempty.set(position, 1 if kind != R_EMPTY else 0)
        self._fen_real.set(position, 1 if element is not None else 0)
        self._fen_dummy_buf.set(
            position, 1 if (kind == BUFFER and element is None) else 0
        )

    def set_kind(self, position: int, kind: int) -> None:
        """Relabel a slot (free of charge — no element moves)."""
        self._kinds[position] = kind
        self._refresh_indexes(position)

    def put_element(self, position: int, element: Hashable, *, deadweight: bool = False) -> None:
        """Place ``element`` into the empty slot at ``position`` (cost 1)."""
        if self._elems[position] is not None:
            raise InvariantViolation(
                f"slot {position} already holds {self._elems[position]!r}"
            )
        self._elems[position] = element
        self._pos_of[element] = position
        self._refresh_indexes(position)
        self._record(element, None, position)
        if deadweight:
            self._note_deadweight(element)

    def take_element(self, position: int) -> Hashable:
        """Remove and return the element at ``position`` (cost 0)."""
        element = self._elems[position]
        if element is None:
            raise InvariantViolation(f"slot {position} holds no element")
        self._elems[position] = None
        del self._pos_of[element]
        self._refresh_indexes(position)
        self._record(element, position, None)
        return element

    def move_element(self, src: int, dst: int, *, deadweight: bool = False) -> None:
        """Move the element at ``src`` to the element-free slot ``dst`` (cost 1)."""
        if src == dst:
            return
        element = self._elems[src]
        if element is None:
            raise InvariantViolation(f"slot {src} holds no element")
        if self._elems[dst] is not None:
            raise InvariantViolation(f"slot {dst} already holds an element")
        self._elems[src] = None
        self._elems[dst] = element
        self._pos_of[element] = dst
        self._refresh_indexes(src)
        self._refresh_indexes(dst)
        self._record(element, src, dst)
        if deadweight:
            self._note_deadweight(element)

    def _note_deadweight(self, element: Hashable) -> None:
        self.total_deadweight_moves += 1
        self.deadweight_by_element[element] = (
            self.deadweight_by_element.get(element, 0) + 1
        )

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def initialize_kinds(self, positions_and_kinds: Iterable[tuple[int, int]]) -> None:
        """Bulk-set the slot kinds at construction time (no cost recorded)."""
        for position, kind in positions_and_kinds:
            self._kinds[position] = kind
            self._refresh_indexes(position)

    # ------------------------------------------------------------------
    # The R-shell primitive: replay shell moves
    # ------------------------------------------------------------------
    def apply_shell_moves(self, moves: Iterable[Move]) -> int:
        """Replay a move sequence of the R-shell on the physical array.

        The R-shell moves whole *slots*: when it relocates one of its tokens
        from physical position ``src`` to ``dst``, the slot's kind and
        content travel together and ``dst`` must currently be an ``R_EMPTY``
        slot.  Token placements create a fresh ``BUFFER`` slot; token
        removals turn the position back into ``R_EMPTY``.  Returns the number
        of *real element* moves incurred (the embedding's cost for the
        replayed work — dummy and free slots move for free).
        """
        cost = 0
        lifted: dict[Hashable, tuple[int, Hashable | None]] = {}
        for move in moves:
            if move.is_placement:
                position = move.destination
                if self._kinds[position] != R_EMPTY:
                    raise InvariantViolation(
                        f"R-shell placed a token on non-empty slot {position}"
                    )
                if move.element in lifted:
                    # A token the shell removed earlier in this very operation
                    # (remove-and-replace rebalancing): restore its content.
                    kind, element = lifted.pop(move.element)
                    self.set_kind(position, kind)
                    if element is not None:
                        self.put_element(position, element)
                        cost += 1
                else:
                    self.set_kind(position, BUFFER)
                continue
            if move.is_removal:
                position = move.source
                if self._kinds[position] == R_EMPTY:
                    raise InvariantViolation(
                        f"R-shell removed a token from empty slot {position}"
                    )
                carried = self._elems[position]
                if carried is not None:
                    # Token removed while carrying an element: the shell is
                    # doing a remove-and-replace rebalance; lift the content
                    # and wait for the matching placement.
                    self.take_element(position)
                lifted[move.element] = (self._kinds[position], carried)
                self.set_kind(position, R_EMPTY)
                continue
            src, dst = move.source, move.destination
            if self._kinds[dst] != R_EMPTY:
                raise InvariantViolation(
                    f"R-shell moved a token onto non-empty slot {dst}"
                )
            kind = self._kinds[src]
            element = self._elems[src]
            self._kinds[dst] = kind
            self._kinds[src] = R_EMPTY
            if element is not None:
                self._elems[src] = None
                self._elems[dst] = element
                self._pos_of[element] = dst
                self._record(element, src, dst)
                cost += 1
            self._refresh_indexes(src)
            self._refresh_indexes(dst)
        return cost

    # ------------------------------------------------------------------
    # The F-emulator primitive: chain moves with deadweight (Figure 2)
    # ------------------------------------------------------------------
    def chain_positions(self, lo: int, hi: int) -> list[int]:
        """Non-``R_EMPTY`` positions in ``[lo, hi]`` in increasing order.

        This is the seed's ``O(hi - lo)`` linear scan — the behaviour the
        slab array's Fenwick select-walk is differentially tested and
        benchmarked against.
        """
        return [
            position
            for position in range(lo, hi + 1)
            if self._kinds[position] != R_EMPTY
        ]

    def chain_move(self, source: int, target_f_index: int) -> int:
        """Move the element at ``source`` so it occupies F-index ``target_f_index``.

        ``source`` may be an F-slot (a plain F-emulator move) or a buffer
        slot (an incorporation).  The target F-slot must currently be free of
        elements, and every F-slot between the source and the target must be
        element-free as well (the rebuild planner and the fast path only
        generate such moves).  Buffered elements physically in between are
        shifted by one chain position each — the deadweight moves of
        Figure 2 — and slot kinds are relabelled so the element ends up on an
        F-slot that reads at exactly ``target_f_index`` while the R-shell's
        view (which slots are occupied) is unchanged.

        Returns the cost (1 + number of deadweight moves); 0 when the element
        is already in place.
        """
        element = self._elems[source]
        if element is None:
            raise InvariantViolation(f"slot {source} holds no element")
        target_pos = self.f_position(target_f_index)
        if target_pos == source:
            return 0
        if self._elems[target_pos] is not None:
            raise InvariantViolation(
                f"target F-slot {target_f_index} (position {target_pos}) is occupied"
            )

        if source < target_pos:
            return self._chain_move_right(source, target_pos)
        return self._chain_move_left(source, target_pos)

    def _chain_move_right(self, source: int, target_pos: int) -> int:
        chain = self.chain_positions(source, target_pos)
        reals = [p for p in chain if self._elems[p] is not None]
        if reals[0] != source:
            raise InvariantViolation("chain_move source must be the leftmost element")
        # Final layout: prefix of element-free slots, then the moved element,
        # then the buffered (deadweight) elements, each shifted to the last
        # len(reals) chain positions.  Execute right-to-left so every move
        # lands on an element-free slot and never crosses another element.
        suffix = chain[len(chain) - len(reals):]
        f_labels_needed = sum(1 for p in chain if self._kinds[p] == F_SLOT)
        cost = 0
        for old, new in zip(reversed(reals), reversed(suffix)):
            if old != new:
                self.move_element(old, new, deadweight=(old != source))
                cost += 1
        element_pos = suffix[0]
        self._relabel_chain(chain, element_pos, f_labels_needed)
        return cost

    def _chain_move_left(self, source: int, target_pos: int) -> int:
        chain = self.chain_positions(target_pos, source)
        reals = [p for p in chain if self._elems[p] is not None]
        if reals[-1] != source:
            raise InvariantViolation("chain_move source must be the rightmost element")
        prefix = chain[: len(reals)]
        f_labels_needed = sum(1 for p in chain if self._kinds[p] == F_SLOT)
        cost = 0
        for old, new in zip(reals, prefix):
            if old != new:
                self.move_element(old, new, deadweight=(old != source))
                cost += 1
        element_pos = prefix[-1]
        self._relabel_chain(chain, element_pos, f_labels_needed, element_first=False)
        return cost

    def _relabel_chain(
        self,
        chain: list[int],
        element_pos: int,
        f_labels_needed: int,
        element_first: bool = True,
    ) -> None:
        """Reassign slot kinds along ``chain`` after a chain move.

        The moved element's position becomes an F-slot.  For a rightward
        move (``element_first``) the remaining F-labels go to the earliest
        chain positions so the freed F-slots read *before* the element; for a
        leftward move they go to the latest positions so they read *after*
        it.  The number of F-labels (and hence of buffer slots) in the chain
        is preserved, so the R-shell's occupied set and the global slot-kind
        counts never change.
        """
        others = [p for p in chain if p != element_pos]
        if element_first:
            f_positions = set(others[: f_labels_needed - 1])
        else:
            f_positions = set(others[len(others) - (f_labels_needed - 1):])
        f_positions.add(element_pos)
        for position in chain:
            desired = F_SLOT if position in f_positions else BUFFER
            if self._kinds[position] != desired:
                # Only positions without a *mis-kinded* element may flip: an
                # F-slot may not end up holding a buffered element.
                self._kinds[position] = desired
                self._refresh_indexes(position)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check_consistency(self, key: Callable[[Hashable], object] | None = None) -> None:
        """Raise :class:`InvariantViolation` if any structural invariant fails."""
        previous = None
        for position, element in enumerate(self._elems):
            if element is None:
                continue
            if self._kinds[position] == R_EMPTY:
                raise InvariantViolation(
                    f"element {element!r} stored in an R-empty slot {position}"
                )
            value = key(element) if key is not None else element
            if previous is not None and not value > previous:
                raise InvariantViolation(
                    f"physical order violated at slot {position}: {value!r} after {previous!r}"
                )
            previous = value
            if self._pos_of.get(element) != position:
                raise InvariantViolation(
                    f"position index out of date for element {element!r}"
                )
