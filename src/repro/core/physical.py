"""The shared physical array of the embedding ``F ⊳ R`` — slab-backed.

Section 3 of the paper describes one array ``A`` of ``(1 + 3ε)n`` slots in
which three kinds of slots coexist (Figure 1):

* ``F_SLOT`` — the ``(1 + ε)n`` slots the F-emulator knows about (blue);
* ``BUFFER`` — the ``εn`` R-shell buffer slots (green), holding either a
  buffered element or a *buffer dummy*;
* ``R_EMPTY`` — the ``εn`` slots only the R-shell sees as free (white).

:class:`PhysicalArray` stores the kinds and contents, maintains the
bitmask lanes needed to translate between the three coordinate systems
(physical position, F-emulator index, R-shell token rank), records element
moves for cost accounting, and implements the two physical primitives of
the paper:

* :meth:`apply_shell_moves` — replay a move sequence produced by the R-shell
  (slots travel with their contents; the F-emulator's view is unchanged);
* :meth:`chain_move` — move an element to a target F-slot by shifting the
  buffered elements in between (the deadweight mechanism of Figure 2) and
  relabelling slot kinds so that neither the sorted order nor the R-shell's
  view of which slots are occupied ever changes.

**Storage layout.**  This is the wire-speed rewrite of the seed
implementation (which survives as
:class:`repro.core.physical_reference.ReferencePhysicalArray` and is the
move-for-move differential oracle for this class):

* a slot's state is three bits in a ``bytearray`` slab — F-slot, non-empty
  (a token of the R-shell) and element present — which :meth:`kind` reads;
* each state bit also has a *lane*: one Python int whose bit ``p`` is that
  bit of slot ``p``, flipped by XOR on every state change.  A count, token
  rank or F-index is a masked ``bit_count()``, the dummy buffers are
  ``nonempty & ~f & ~element``, and the position of a given element rank
  is a :func:`repro.core.bitmask.select_bit`;
* the F lane's set bits are also kept as an F-index → position
  ``array('q')``, so :meth:`f_position` is one lookup.  The table changes
  only where the F lane does: after a :meth:`chain_move` relabel, an
  :meth:`apply_shell_moves` replay or a direct :meth:`set_kind`, only the
  entries from the first slot whose F bit flipped to the last are
  rewritten (a chain move keeps its span's F count, and the shell keeps
  its tokens in order, so every F-index outside that stretch stays put),
  and :meth:`initialize_kinds` rebuilds it;
* contents live in an ``array('q')`` slab of interned element ids
  (``-1`` = empty) with an id → position ``array('q')`` replacing the
  per-element position dict on the hot paths; :meth:`next_element`
  walks a few of those ids, then finds the end of a longer empty run on
  the element lane, which is how the embedding's key search steps past
  gaps;
* :meth:`chain_move` reads the span's lanes as window masks, so its work
  follows the elements it moves and the labels it flips, not the span;
* moves are recorded into a :class:`repro.core.operations.MoveRecorder`
  (``move_sink``): three slab appends per move, no :class:`Move` objects,
  and :meth:`apply_shell_moves` reads the shell's recorder column by
  column.  :meth:`check_consistency` re-derives the lanes and the
  F-position table from the state slab.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from repro import obs
from repro.core.bitmask import (
    count_bits,
    iter_bits,
    iter_bits_reversed,
    lowest_bits,
    select_bit,
)
from repro.core.exceptions import InvariantViolation
from repro.core.operations import MoveRecorder
from repro.core.physical_kinds import BUFFER, F_SLOT, KIND_NAMES, R_EMPTY
from repro.core.physical_reference import ReferencePhysicalArray

__all__ = [
    "BUFFER",
    "F_SLOT",
    "KIND_NAMES",
    "PhysicalArray",
    "R_EMPTY",
    "ReferencePhysicalArray",
]

# A slot's state bits; each has a lane of the same name.
_BIT_F = 1         # kind == F_SLOT
_BIT_NONEMPTY = 2  # kind != R_EMPTY
_BIT_REAL = 4      # element present

#: ``_KIND_BITS[kind]`` — the state bits of ``kind``, the element bit aside.
_KIND_BITS = {R_EMPTY: 0, F_SLOT: _BIT_F | _BIT_NONEMPTY, BUFFER: _BIT_NONEMPTY}

#: ``_STATE_KIND[state]`` — the slot kind of the state bits.
_STATE_KIND = tuple(
    F_SLOT if state & _BIT_F else BUFFER if state & _BIT_NONEMPTY else R_EMPTY
    for state in range(8)
)

#: ``_LANE_DIGITS[bit][state]`` is ``ord("1")`` when ``state`` has ``bit``,
#: else ``ord("0")``: the base-2 digit of a slot in its lane.  A state slab
#: translated through it is searched for its ``1`` digits at C speed.
_LANE_DIGITS = {
    bit: bytes(49 if state & bit else 48 for state in range(256))
    for bit in (_BIT_F, _BIT_NONEMPTY, _BIT_REAL)
}
#: One ``1`` digit of a translated state slab.
_ONE = re.compile(b"1")


def _lane_of(states: bytearray, bit: int) -> int:
    """The lane of ``bit`` re-derived from the state slab, in ``O(m)``:
    the slots' digits, highest slot first, parsed as one base-2 int."""
    return int(states.translate(_LANE_DIGITS[bit])[::-1] or b"0", 2)


#: Id-slab entries :meth:`PhysicalArray.next_element` reads one by one
#: before it looks the rest of an empty run up on the element lane.
_NEXT_ELEMENT_WALK = 4


class PhysicalArray:
    """The embedding's array ``A`` with slot kinds, contents, and lanes."""

    # Defaults so instances materialized without ``__init__`` (object graphs
    # rebuilt via ``__new__``) never trip on missing observability state.
    _obs_enabled = False

    def __init__(self, num_slots: int) -> None:
        self._m = num_slots
        #: State bits per slot (``_BIT_F``, ``_BIT_NONEMPTY``, ``_BIT_REAL``).
        self._state = bytearray(num_slots)
        #: The lanes: bit ``p`` is slot ``p``'s F-slot, non-empty and
        #: element bit.
        self._f = 0
        self._nonempty = 0
        self._real = 0
        #: F-index → position: the set bits of the F lane, lowest first.
        self._f_positions = array("q")
        #: Interned element id per slot; -1 marks an element-free slot.
        self._eid = array("q", b"\xff" * (8 * num_slots)) if num_slots else array("q")
        #: id → element object and element → id (the interning table).
        self._elem_of: list[Hashable | None] = []
        self._id_of: dict[Hashable, int] = {}
        #: id → physical position (-1 while the element is off the array).
        self._pos = array("q")
        #: Ids released by :meth:`take_element`, ready for reuse — keeps the
        #: interning table sized by the *live* set, not every element ever seen.
        self._free_ids: list[int] = []
        #: Where recorded moves go during an operation (or ``None``).
        self.move_sink: MoveRecorder | None = None
        #: Per-element count of deadweight moves (Lemma 5 accounting).
        self.deadweight_by_element: dict[Hashable, int] = {}
        self.total_deadweight_moves = 0
        reg = obs.get_registry()
        if reg.enabled:
            self._obs_enabled = True
            self._obs_chain_moves = reg.counter("physical.chain_moves")
            self._obs_shell_moves = reg.counter("physical.shell_moves")
            self._obs_relabel_flips = reg.counter("physical.relabel_flips")

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def _intern(self, element: Hashable) -> int:
        eid = self._id_of.get(element)
        if eid is None:
            free = self._free_ids
            if free:
                eid = free.pop()
                self._elem_of[eid] = element
            else:
                eid = len(self._elem_of)
                self._elem_of.append(element)
                self._pos.append(-1)
            self._id_of[element] = eid
        return eid

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_slots(self) -> int:
        return self._m

    def kind(self, position: int) -> int:
        return _STATE_KIND[self._state[position]]

    def element(self, position: int) -> Hashable | None:
        eid = self._eid[position]
        return None if eid < 0 else self._elem_of[eid]

    def kinds(self) -> Sequence[int]:
        return tuple(_STATE_KIND[state] for state in self._state)

    def slots(self) -> Sequence[Hashable | None]:
        """Physical contents, one entry per slot (``None`` = no element)."""
        elem_of = self._elem_of
        return tuple(None if eid < 0 else elem_of[eid] for eid in self._eid)

    def elements(self) -> list[Hashable]:
        """All stored elements in physical (= rank) order."""
        elem_of = self._elem_of
        return [elem_of[eid] for eid in self._eid if eid >= 0]

    def position_of(self, element: Hashable) -> int:
        eid = self._id_of.get(element, -1)
        if eid >= 0:
            position = self._pos[eid]
            if position >= 0:
                return position
        raise KeyError(f"element {element!r} is not stored")

    def contains(self, element: Hashable) -> bool:
        eid = self._id_of.get(element, -1)
        return eid >= 0 and self._pos[eid] >= 0

    @property
    def element_count(self) -> int:
        return self._real.bit_count()

    def element_at_rank(self, rank: int) -> Hashable:
        """The ``rank``-th (1-based) stored element."""
        eid = self._eid[select_bit(self._real, rank)]
        assert eid >= 0
        return self._elem_of[eid]

    def position_of_rank(self, rank: int) -> int:
        """Physical position of the ``rank``-th (1-based) stored element."""
        return select_bit(self._real, rank)

    def iter_elements_from(self, rank: int) -> Iterator[Hashable]:
        """Lazily yield the stored elements of ranks ``rank, rank+1, …``.

        One select seeks the start position; from there the element-id
        slab is walked directly, yielding as the consumer advances —
        nothing is materialized.  ``rank`` past the element count yields
        nothing.
        """
        if rank > self._real.bit_count():
            return
        eids = self._eid
        elem_of = self._elem_of
        for position in range(select_bit(self._real, rank), self._m):
            eid = eids[position]
            if eid >= 0:
                yield elem_of[eid]

    def next_element(self, position: int, stop: int) -> tuple[int, Hashable] | None:
        """The first stored element at a position in ``[position, stop)``,
        as ``(position, element)``; ``None`` when that window holds none.

        The first few id-slab entries are read one by one; past them, one
        lookup of the lowest set bit of the element lane skips the rest
        of an empty run, however long.
        """
        if position >= stop:
            return None
        eids = self._eid
        eid = eids[position]
        if eid < 0:
            walk_end = position + _NEXT_ELEMENT_WALK
            if walk_end > stop:
                walk_end = stop
            position += 1
            while position < walk_end:
                eid = eids[position]
                if eid >= 0:
                    break
                position += 1
            else:
                above = self._real >> position
                if not above:
                    return None
                position += (above & -above).bit_length() - 1
                if position >= stop:
                    return None
                eid = eids[position]
        return position, self._elem_of[eid]

    # ------------------------------------------------------------------
    # Counting helpers
    # ------------------------------------------------------------------
    def real_between(self, lo: int, hi: int) -> int:
        """Number of stored elements at positions in ``[lo, hi)``."""
        return count_bits(self._real, lo, hi)

    def nonempty_between(self, lo: int, hi: int) -> int:
        """Number of non-``R_EMPTY`` slots at positions in ``[lo, hi)``."""
        return count_bits(self._nonempty, lo, hi)

    def token_rank(self, position: int) -> int:
        """1-based R-shell rank of the (non-empty) slot at ``position``."""
        if not self._state[position] & _BIT_NONEMPTY:
            raise ValueError(f"slot {position} is an R-empty slot, not a token")
        return count_bits(self._nonempty, 0, position) + 1

    @property
    def f_slot_count(self) -> int:
        return self._f.bit_count()

    @property
    def buffer_count(self) -> int:
        return self._nonempty.bit_count() - self._f.bit_count()

    @property
    def dummy_buffer_count(self) -> int:
        return self._dummies().bit_count()

    @property
    def buffered_element_count(self) -> int:
        """Number of real elements currently living in buffer slots."""
        return (self._real & self._nonempty & ~self._f).bit_count()

    def _dummies(self) -> int:
        """The dummy-buffer lane: buffer slots holding no element."""
        return self._nonempty & ~(self._f | self._real)

    # ------------------------------------------------------------------
    # F-coordinate translation
    # ------------------------------------------------------------------
    def f_position(self, f_index: int) -> int:
        """Physical position of the ``f_index``-th (0-based) F-slot.

        One lookup in the F-position table, with no select: the table is
        the F lane's set bits in order, and every relabel rewrites the
        entries it moved (:meth:`_reindex_f`).  :class:`IndexError` for an
        index below zero or past the last F-slot.
        """
        if f_index < 0:
            raise IndexError(f"F-index {f_index} is negative")
        return self._f_positions[f_index]

    def f_index_of(self, position: int) -> int:
        """0-based F-index of the F-slot at ``position``."""
        if not self._state[position] & _BIT_F:
            raise ValueError(f"slot {position} is not an F-slot")
        return count_bits(self._f, 0, position)

    def f_contents(self) -> list[Hashable | None]:
        """Contents of the F-slots in F-order (the array ``Ẽ_F`` of Section 3)."""
        eid = self._eid
        elem_of = self._elem_of
        return [
            None if eid[p] < 0 else elem_of[eid[p]]
            for p, state in enumerate(self._state)
            if state & _BIT_F
        ]

    # ------------------------------------------------------------------
    # Dummy-buffer queries (needed by the slow path, Lemma 4 compatible)
    # ------------------------------------------------------------------
    def nearest_dummy_buffer(self, position: int) -> int | None:
        """Position of the dummy buffer slot nearest to ``position``.

        "Nearest" is measured in *truncated-state order* (number of non-empty
        slots in between), which depends only on the truncated state ``T`` and
        therefore keeps the R-shell's input independent of its random bits
        (Lemma 4).  Ties prefer the left neighbour.  The candidates are the
        nearest dummy at or left of ``position`` and the nearest right of it.
        """
        dummies = self._dummies()
        at_or_left = dummies & ((2 << position) - 1)
        right_of = dummies >> (position + 1)
        right = (
            position + (right_of & -right_of).bit_length() if right_of else None
        )
        if not at_or_left:
            return right
        left = at_or_left.bit_length() - 1
        if right is None:
            return left
        left_distance = self.nonempty_between(left, position + 1)
        right_distance = self.nonempty_between(position, right + 1)
        return left if left_distance <= right_distance else right

    # ------------------------------------------------------------------
    # Low-level mutation (records moves, keeps every lane consistent)
    # ------------------------------------------------------------------
    def _set_state(self, position: int, state: int) -> None:
        """Give the slot at ``position`` the state bits ``state``, flipping
        the lane bit of every state bit that changes."""
        changed = self._state[position] ^ state
        if changed:
            self._state[position] = state
            bit = 1 << position
            if changed & _BIT_F:
                self._f ^= bit
            if changed & _BIT_NONEMPTY:
                self._nonempty ^= bit
            if changed & _BIT_REAL:
                self._real ^= bit

    def set_kind(self, position: int, kind: int) -> None:
        """Relabel a slot (free of charge — no element moves)."""
        state = self._state[position]
        self._set_state(position, _KIND_BITS[kind] | state & _BIT_REAL)
        if (state ^ self._state[position]) & _BIT_F:
            self._reindex_f([position])

    def _reindex_f(self, flipped: list[int]) -> None:
        """Update the F-position table after the F bit of each slot in
        ``flipped`` (ascending positions) changed.

        Only the entries from the first flipped slot to the last change:
        they become the old ones with the flipped slots toggled, and the
        entries after them shift to their new F-indices with the slice
        assignment.
        """
        positions = self._f_positions
        start = bisect_left(positions, flipped[0])
        stop = bisect_left(positions, flipped[-1] + 1, start)
        positions[start:stop] = array(
            "q", sorted(set(positions[start:stop]).symmetric_difference(flipped))
        )

    def put_element(self, position: int, element: Hashable, *, deadweight: bool = False) -> None:
        """Place ``element`` into the empty slot at ``position`` (cost 1)."""
        eids = self._eid
        if eids[position] >= 0:
            raise InvariantViolation(
                f"slot {position} already holds {self._elem_of[eids[position]]!r}"
            )
        eid = self._intern(element)
        eids[position] = eid
        self._pos[eid] = position
        self._state[position] ^= _BIT_REAL
        self._real ^= 1 << position
        if self.move_sink is not None:
            self.move_sink.record(element, None, position)
        if deadweight:
            self._note_deadweight(element)

    def take_element(self, position: int) -> Hashable:
        """Remove and return the element at ``position`` (cost 0)."""
        eids = self._eid
        eid = eids[position]
        if eid < 0:
            raise InvariantViolation(f"slot {position} holds no element")
        element = self._elem_of[eid]
        eids[position] = -1
        self._pos[eid] = -1
        self._elem_of[eid] = None
        del self._id_of[element]
        self._free_ids.append(eid)
        self._state[position] ^= _BIT_REAL
        self._real ^= 1 << position
        if self.move_sink is not None:
            self.move_sink.record(element, position, None)
        return element

    def move_element(self, src: int, dst: int, *, deadweight: bool = False) -> None:
        """Move the element at ``src`` to the element-free slot ``dst`` (cost 1)."""
        if src == dst:
            return
        eids = self._eid
        eid = eids[src]
        if eid < 0:
            raise InvariantViolation(f"slot {src} holds no element")
        if eids[dst] >= 0:
            raise InvariantViolation(f"slot {dst} already holds an element")
        eids[src] = -1
        eids[dst] = eid
        self._pos[eid] = dst
        state = self._state
        state[src] ^= _BIT_REAL
        state[dst] ^= _BIT_REAL
        self._real ^= (1 << src) | (1 << dst)
        element = self._elem_of[eid]
        if self.move_sink is not None:
            self.move_sink.record(element, src, dst)
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
        state = self._state
        for position, kind in positions_and_kinds:
            self._set_state(position, _KIND_BITS[kind] | state[position] & _BIT_REAL)
        f_digits = state.translate(_LANE_DIGITS[_BIT_F])
        self._f_positions = array(
            "q", [digit.start() for digit in _ONE.finditer(f_digits)]
        )

    # ------------------------------------------------------------------
    # The R-shell primitive: replay shell moves
    # ------------------------------------------------------------------
    def apply_shell_moves(self, moves: MoveRecorder) -> int:
        """Replay a move sequence of the R-shell on the physical array.

        The R-shell moves whole *slots*: when it relocates one of its tokens
        from physical position ``src`` to ``dst``, the slot's kind and
        content travel together and ``dst`` must currently be an ``R_EMPTY``
        slot.  Token placements create a fresh ``BUFFER`` slot; token
        removals turn the position back into ``R_EMPTY``.  Returns the number
        of *real element* moves incurred (the embedding's cost for the
        replayed work — dummy and free slots move for free).

        The recorder's three columns are read directly.  The shell keeps
        its tokens in order, so the F-slots keep their F-order: once the
        moves are replayed, the F-position table changes only between the
        first and the last slot whose F bit flipped.
        """
        if self._obs_enabled:
            self._obs_shell_moves.inc()
        tokens, sources, destinations = moves.columns()
        cost = 0
        lifted: dict[Hashable, tuple[int, Hashable | None]] = {}
        state = self._state
        eids = self._eid
        sink = self.move_sink
        f_before = self._f
        for token, src, dst in zip(tokens, sources, destinations):
            if src < 0 <= dst:
                if state[dst] & _BIT_NONEMPTY:
                    raise InvariantViolation(
                        f"R-shell placed a token on non-empty slot {dst}"
                    )
                if token in lifted:
                    # A token the shell removed earlier in this very operation
                    # (remove-and-replace rebalancing): restore its content.
                    kind, element = lifted.pop(token)
                    self._set_state(dst, _KIND_BITS[kind] | state[dst] & _BIT_REAL)
                    if element is not None:
                        self.put_element(dst, element)
                        cost += 1
                else:
                    self._set_state(dst, _KIND_BITS[BUFFER] | state[dst] & _BIT_REAL)
                continue
            if dst < 0:
                if not state[src] & _BIT_NONEMPTY:
                    raise InvariantViolation(
                        f"R-shell removed a token from empty slot {src}"
                    )
                kind = _STATE_KIND[state[src]]
                carried = None if eids[src] < 0 else self._elem_of[eids[src]]
                if carried is not None:
                    # Token removed while carrying an element: the shell is
                    # doing a remove-and-replace rebalance; lift the content
                    # and wait for the matching placement.
                    self.take_element(src)
                lifted[token] = (kind, carried)
                self._set_state(src, 0)
                continue
            if state[dst] & _BIT_NONEMPTY:
                raise InvariantViolation(
                    f"R-shell moved a token onto non-empty slot {dst}"
                )
            eid = eids[src]
            if eid >= 0:
                eids[src] = -1
                eids[dst] = eid
                self._pos[eid] = dst
                if sink is not None:
                    sink.record(self._elem_of[eid], src, dst)
                cost += 1
            carried_state = state[src]
            self._set_state(src, 0)
            self._set_state(dst, carried_state)
        flips = self._f ^ f_before
        if flips:
            low = (flips & -flips).bit_length() - 1
            self._reindex_f([low + offset for offset in iter_bits(flips >> low)])
        return cost

    # ------------------------------------------------------------------
    # The F-emulator primitive: chain moves with deadweight (Figure 2)
    # ------------------------------------------------------------------
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

        The span's lanes are read as window masks (bit ``i`` is slot
        ``lo + i``), so the work follows the elements moved and the labels
        flipped, whatever the span's width.

        Returns the cost (1 + number of deadweight moves); 0 when the element
        is already in place.
        """
        eids = self._eid
        if eids[source] < 0:
            raise InvariantViolation(f"slot {source} holds no element")
        target = self.f_position(target_f_index)
        if target == source:
            return 0
        if eids[target] >= 0:
            raise InvariantViolation(
                f"target F-slot {target_f_index} (position {target}) is occupied"
            )
        if self._obs_enabled:
            self._obs_chain_moves.inc()
        rightward = source < target
        lo, hi = (source, target) if rightward else (target, source)
        window = (1 << (hi + 1 - lo)) - 1
        # The chain is the span's tokens (non-R_EMPTY slots).
        tokens = self._nonempty >> lo & window
        f_labels = self._f >> lo & window
        reals = self._real >> lo & tokens
        origin = source - lo
        if not tokens >> origin & 1:
            raise InvariantViolation(f"chain_move source {source} is not a token")
        # The chain's elements keep their order and pack against the
        # target's end: counted from that end, the i-th element lands on the
        # i-th token.  The target holds no element, so every element of the
        # span moves; walking from the target's end, each lands on a token
        # already vacated, and the source, moved last, on ``landing``.
        walk = iter_bits_reversed if rightward else iter_bits
        for old, landing in zip(walk(reals), walk(tokens)):
            self.move_element(lo + old, lo + landing, deadweight=old != origin)
        # Relabel: the element's slot is an F-slot, and the span's other F
        # labels go to the tokens nearest the source's end, so the freed
        # F-slots read before the element on a rightward move and after it
        # on a leftward one.  The label counts, and so the R-shell's view,
        # are unchanged.
        others = tokens ^ (1 << landing)
        spare = f_labels.bit_count() - 1
        if rightward:
            wanted = lowest_bits(others, spare)
        else:
            wanted = others ^ lowest_bits(others, others.bit_count() - spare)
        flips = (wanted | 1 << landing) ^ f_labels
        if flips:
            # Every flip is between F_SLOT and BUFFER: only the F bit changes.
            self._f ^= flips << lo
            state = self._state
            flipped = [lo + offset for offset in iter_bits(flips)]
            for position in flipped:
                state[position] ^= _BIT_F
            self._reindex_f(flipped)
            if self._obs_enabled:
                self._obs_relabel_flips.inc(flips.bit_count())
        return reals.bit_count()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check_consistency(self, key: Callable[[Hashable], object] | None = None) -> None:
        """Raise :class:`InvariantViolation` if any structural invariant fails.

        Besides the physical order, the id → position slab and the
        interning table, the three lanes and the F-position table are
        re-derived from the state slab and must equal the ones kept
        incrementally.
        """
        state = self._state
        for name, bit, lane in (
            ("F", _BIT_F, self._f),
            ("non-empty", _BIT_NONEMPTY, self._nonempty),
            ("element", _BIT_REAL, self._real),
        ):
            if _lane_of(state, bit) != lane:
                raise InvariantViolation(
                    f"the {name} lane differs from the slot states"
                )
        if self._f_positions.tolist() != [
            position for position, bits in enumerate(state) if bits & _BIT_F
        ]:
            raise InvariantViolation(
                "the F-position table differs from the slot states"
            )
        previous = None
        for position, eid in enumerate(self._eid):
            if eid < 0:
                if state[position] & _BIT_REAL:
                    raise InvariantViolation(
                        f"element-free slot {position} is in the element index"
                    )
                continue
            element = self._elem_of[eid]
            if not state[position] & _BIT_NONEMPTY:
                raise InvariantViolation(
                    f"element {element!r} stored in an R-empty slot {position}"
                )
            value = key(element) if key is not None else element
            if previous is not None and not value > previous:
                raise InvariantViolation(
                    f"physical order violated at slot {position}: {value!r} after {previous!r}"
                )
            previous = value
            if self._pos[eid] != position:
                raise InvariantViolation(
                    f"position index out of date for element {element!r}"
                )
            if self._id_of.get(element) != eid:
                raise InvariantViolation(
                    f"interning table out of date for element {element!r}"
                )
            if not state[position] & _BIT_REAL:
                raise InvariantViolation(
                    f"occupied slot {position} missing from the element index"
                )
