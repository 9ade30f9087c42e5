"""The shared physical array of the embedding ``F ⊳ R`` — slab-backed.

Section 3 of the paper describes one array ``A`` of ``(1 + 3ε)n`` slots in
which three kinds of slots coexist (Figure 1):

* ``F_SLOT`` — the ``(1 + ε)n`` slots the F-emulator knows about (blue);
* ``BUFFER`` — the ``εn`` R-shell buffer slots (green), holding either a
  buffered element or a *buffer dummy*;
* ``R_EMPTY`` — the ``εn`` slots only the R-shell sees as free (white).

:class:`PhysicalArray` stores the kinds and contents, maintains the Fenwick
indexes needed to translate between the three coordinate systems (physical
position, F-emulator index, R-shell token rank), records element moves for
cost accounting, and implements the two physical primitives of the paper:

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

* slot state lives in one packed bitmask per slot inside a
  :class:`repro.core.fenwick.PackedFenwick` — one ``array('B')`` slab plus
  four Fenwick lanes (F-slot / non-empty / element-present / dummy-buffer),
  so a mutation performs a *single* combined tree walk instead of four
  independent ``FenwickTree.set`` refreshes;
* contents live in an ``array('q')`` slab of interned element ids
  (``-1`` = empty) with an id → position ``array('q')`` replacing the
  per-element position dict on the hot paths;
* :meth:`chain_positions` is a Fenwick select-walk (``O(k log m)`` for ``k``
  tokens found) instead of the seed's ``O(hi - lo)`` linear scan;
* move recording goes through the ``move_sink`` protocol: a plain
  ``list[Move]`` (seed behaviour, used by tests) or a zero-allocation
  :class:`repro.core.operations.MoveRecorder` (the fast path — three slab
  appends per move, no :class:`Move` objects).
"""

from __future__ import annotations

from array import array
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from repro import obs
from repro.core.exceptions import InvariantViolation
from repro.core.fenwick import PackedFenwick
from repro.core.operations import Move, MoveRecorder
from repro.core.physical_kinds import (
    BIT_DUMMY as _BIT_DUMMY,
    BIT_F as _BIT_F,
    BIT_NONEMPTY as _BIT_NONEMPTY,
    BIT_REAL as _BIT_REAL,
    BUFFER,
    F_SLOT,
    KIND_MASKS as _KIND_MASKS,
    KIND_NAMES,
    LANE_DUMMY as _LANE_DUMMY,
    LANE_F as _LANE_F,
    LANE_NONEMPTY as _LANE_NONEMPTY,
    LANE_REAL as _LANE_REAL,
    MASK_KIND as _MASK_KIND,
    R_EMPTY,
    mask_for as _mask_for,
)
from repro.core.physical_reference import ReferencePhysicalArray

__all__ = [
    "BUFFER",
    "F_SLOT",
    "KIND_NAMES",
    "PhysicalArray",
    "R_EMPTY",
    "ReferencePhysicalArray",
]

#: Spans at most this wide are scanned directly in :meth:`chain_positions`;
#: wider (sparse) spans take the Fenwick select-walk.  The results are
#: identical — this only bounds the constant for the short dense chains the
#: fast path produces.
_CHAIN_SCAN_CUTOFF = 64


class PhysicalArray:
    """The embedding's array ``A`` with slot kinds, contents, and indexes."""

    # Defaults so instances materialized without ``__init__`` (object graphs
    # rebuilt via ``__new__``) never trip on missing observability state.
    _obs_enabled = False

    def __init__(self, num_slots: int) -> None:
        self._m = num_slots
        self._fen = PackedFenwick(num_slots, 4)
        #: Direct view of the Fenwick's per-slot bitmask slab (hot-path reads).
        self._masks = self._fen.masks()
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
        #: Where recorded moves go during an operation: ``None``, a plain
        #: ``list[Move]``, or a :class:`MoveRecorder` (the zero-alloc path).
        self.move_sink: list[Move] | MoveRecorder | None = None
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
        return _MASK_KIND[self._masks[position]]

    def element(self, position: int) -> Hashable | None:
        eid = self._eid[position]
        return None if eid < 0 else self._elem_of[eid]

    def kinds(self) -> Sequence[int]:
        return tuple(_MASK_KIND[mask] for mask in self._masks)

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
        return self._fen.total(_LANE_REAL)

    def element_at_rank(self, rank: int) -> Hashable:
        """The ``rank``-th (1-based) stored element."""
        position = self._fen.select(_LANE_REAL, rank)
        eid = self._eid[position]
        assert eid >= 0
        return self._elem_of[eid]

    def position_of_rank(self, rank: int) -> int:
        """Physical position of the ``rank``-th (1-based) stored element."""
        return self._fen.select(_LANE_REAL, rank)

    def iter_elements_from(self, rank: int) -> Iterator[Hashable]:
        """Lazily yield the stored elements of ranks ``rank, rank+1, …``.

        One ``O(log m)`` select seeks the start position; from there the
        element-id slab is walked directly, yielding as the consumer
        advances — nothing is materialized.  ``rank`` past the element
        count yields nothing.
        """
        if rank > self._fen.total(_LANE_REAL):
            return
        eids = self._eid
        elem_of = self._elem_of
        for position in range(self._fen.select(_LANE_REAL, rank), self._m):
            eid = eids[position]
            if eid >= 0:
                yield elem_of[eid]

    # ------------------------------------------------------------------
    # Counting helpers
    # ------------------------------------------------------------------
    def real_between(self, lo: int, hi: int) -> int:
        """Number of stored elements at positions in ``[lo, hi)``."""
        return self._fen.count(_LANE_REAL, lo, hi)

    def nonempty_between(self, lo: int, hi: int) -> int:
        """Number of non-``R_EMPTY`` slots at positions in ``[lo, hi)``."""
        return self._fen.count(_LANE_NONEMPTY, lo, hi)

    def token_rank(self, position: int) -> int:
        """1-based R-shell rank of the (non-empty) slot at ``position``."""
        if not self._masks[position] & _BIT_NONEMPTY:
            raise ValueError(f"slot {position} is an R-empty slot, not a token")
        return self._fen.prefix(_LANE_NONEMPTY, position) + 1

    @property
    def f_slot_count(self) -> int:
        return self._fen.total(_LANE_F)

    @property
    def buffer_count(self) -> int:
        return self._fen.total(_LANE_NONEMPTY) - self._fen.total(_LANE_F)

    @property
    def dummy_buffer_count(self) -> int:
        return self._fen.total(_LANE_DUMMY)

    @property
    def buffered_element_count(self) -> int:
        """Number of real elements currently living in buffer slots."""
        return self.buffer_count - self.dummy_buffer_count

    # ------------------------------------------------------------------
    # F-coordinate translation
    # ------------------------------------------------------------------
    def f_position(self, f_index: int) -> int:
        """Physical position of the ``f_index``-th (0-based) F-slot."""
        return self._fen.select(_LANE_F, f_index + 1)

    def f_index_of(self, position: int) -> int:
        """0-based F-index of the F-slot at ``position``."""
        if not self._masks[position] & _BIT_F:
            raise ValueError(f"slot {position} is not an F-slot")
        return self._fen.prefix(_LANE_F, position)

    def f_contents(self) -> list[Hashable | None]:
        """Contents of the F-slots in F-order (the array ``Ẽ_F`` of Section 3)."""
        eid = self._eid
        elem_of = self._elem_of
        return [
            None if eid[p] < 0 else elem_of[eid[p]]
            for p, mask in enumerate(self._masks)
            if mask & _BIT_F
        ]

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
        fen = self._fen
        total = fen.total(_LANE_DUMMY)
        if total == 0:
            return None
        before = fen.prefix(_LANE_DUMMY, position + 1)
        left = fen.select(_LANE_DUMMY, before) if before > 0 else None
        right = fen.select(_LANE_DUMMY, before + 1) if before < total else None
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

    def set_kind(self, position: int, kind: int) -> None:
        """Relabel a slot (free of charge — no element moves)."""
        self._fen.set_mask(position, _KIND_MASKS[kind][self._eid[position] >= 0])

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
        self._fen.set_mask(
            position, (self._masks[position] | _BIT_REAL) & ~_BIT_DUMMY
        )
        sink = self.move_sink
        if sink is not None:
            if isinstance(sink, list):
                sink.append(Move(element, None, position))
            else:
                sink.record(element, None, position)
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
        mask = self._masks[position] & ~_BIT_REAL
        if mask & _BIT_NONEMPTY and not mask & _BIT_F:
            mask |= _BIT_DUMMY
        self._fen.set_mask(position, mask)
        sink = self.move_sink
        if sink is not None:
            if isinstance(sink, list):
                sink.append(Move(element, position, None))
            else:
                sink.record(element, position, None)
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
        fen = self._fen
        masks = self._masks
        mask = masks[src] & ~_BIT_REAL
        if mask & _BIT_NONEMPTY and not mask & _BIT_F:
            mask |= _BIT_DUMMY
        fen.set_mask(src, mask)
        fen.set_mask(dst, (masks[dst] | _BIT_REAL) & ~_BIT_DUMMY)
        element = self._elem_of[eid]
        sink = self.move_sink
        if sink is not None:
            if isinstance(sink, list):
                sink.append(Move(element, src, dst))
            else:
                sink.record(element, src, dst)
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
            self.set_kind(position, kind)

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
        if self._obs_enabled:
            self._obs_shell_moves.inc()
        cost = 0
        lifted: dict[Hashable, tuple[int, Hashable | None]] = {}
        fen = self._fen
        masks = self._masks
        eids = self._eid
        for move in moves:
            if move.is_placement:
                position = move.destination
                if masks[position] & _BIT_NONEMPTY:
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
                if not masks[position] & _BIT_NONEMPTY:
                    raise InvariantViolation(
                        f"R-shell removed a token from empty slot {position}"
                    )
                kind = _MASK_KIND[masks[position]]
                carried = None if eids[position] < 0 else self._elem_of[eids[position]]
                if carried is not None:
                    # Token removed while carrying an element: the shell is
                    # doing a remove-and-replace rebalance; lift the content
                    # and wait for the matching placement.
                    self.take_element(position)
                lifted[move.element] = (kind, carried)
                self.set_kind(position, R_EMPTY)
                continue
            src, dst = move.source, move.destination
            if masks[dst] & _BIT_NONEMPTY:
                raise InvariantViolation(
                    f"R-shell moved a token onto non-empty slot {dst}"
                )
            kind = _MASK_KIND[masks[src]]
            eid = eids[src]
            if eid >= 0:
                eids[src] = -1
                eids[dst] = eid
                self._pos[eid] = dst
                self._record(self._elem_of[eid], src, dst)
                cost += 1
            fen.set_mask(src, 0)
            fen.set_mask(dst, _KIND_MASKS[kind][eid >= 0])
        return cost

    # ------------------------------------------------------------------
    # The F-emulator primitive: chain moves with deadweight (Figure 2)
    # ------------------------------------------------------------------
    def chain_positions(self, lo: int, hi: int) -> list[int]:
        """Non-``R_EMPTY`` positions in ``[lo, hi]`` in increasing order.

        The seed scanned the whole span unconditionally — ``O(hi - lo)``
        even when it contained a handful of tokens, which dominated chain
        moves across sparse regions.  Here the token count ``k`` is read
        from the Fenwick index first: dense spans (``k log m`` comparable to
        the span) keep the direct slab scan, sparse spans take the
        select-walk at ``O(k log m)``.  Results are identical either way.
        """
        span = hi + 1 - lo
        scan = span <= _CHAIN_SCAN_CUTOFF
        if not scan:
            fen = self._fen
            first = fen.prefix(_LANE_NONEMPTY, lo)
            found = fen.prefix(_LANE_NONEMPTY, hi + 1) - first
            # A select costs ~log m slab reads; the scan costs one read per
            # slot.  Walk only when the span is sparse enough to win.
            scan = found * (max(2, self._m.bit_length()) + 4) >= span
        if scan:
            masks = self._masks
            return [
                position
                for position in range(lo, hi + 1)
                if masks[position] & _BIT_NONEMPTY
            ]
        select = fen.select
        return [
            select(_LANE_NONEMPTY, k) for k in range(first + 1, first + found + 1)
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
        if self._eid[source] < 0:
            raise InvariantViolation(f"slot {source} holds no element")
        target_pos = self.f_position(target_f_index)
        if target_pos == source:
            return 0
        if self._eid[target_pos] >= 0:
            raise InvariantViolation(
                f"target F-slot {target_f_index} (position {target_pos}) is occupied"
            )
        if self._obs_enabled:
            self._obs_chain_moves.inc()

        # Short dense chains (the steady-state fast-path moves) are cheapest
        # as one direct slab sweep; long chains take the Fenwick-guided path
        # whose cost scales with the tokens and flips found, not the span.
        if source < target_pos:
            if target_pos - source <= _CHAIN_SCAN_CUTOFF:
                return self._chain_move_scan(source, target_pos, True)
            return self._chain_move_right(source, target_pos)
        if source - target_pos <= _CHAIN_SCAN_CUTOFF:
            return self._chain_move_scan(target_pos, source, False)
        return self._chain_move_left(source, target_pos)

    def _chain_move_scan(self, lo: int, hi: int, rightward: bool) -> int:
        """Seed-parity chain move over a short span: one slab sweep collects
        the chain, its elements and the F-label count, then the seed's move
        and relabel logic runs on the materialized chain."""
        masks = self._masks
        eids = self._eid
        chain: list[int] = []
        reals: list[int] = []
        f_count = 0
        for position in range(lo, hi + 1):
            mask = masks[position]
            if mask & _BIT_NONEMPTY:
                chain.append(position)
                if mask & _BIT_F:
                    f_count += 1
                if eids[position] >= 0:
                    reals.append(position)
        cost = 0
        if rightward:
            source = lo
            if reals[0] != source:
                raise InvariantViolation(
                    "chain_move source must be the leftmost element"
                )
            suffix = chain[len(chain) - len(reals):]
            for old, new in zip(reversed(reals), reversed(suffix)):
                if old != new:
                    self.move_element(old, new, deadweight=(old != source))
                    cost += 1
            element_pos = suffix[0]
        else:
            source = hi
            if reals[-1] != source:
                raise InvariantViolation(
                    "chain_move source must be the rightmost element"
                )
            prefix = chain[: len(reals)]
            for old, new in zip(reals, prefix):
                if old != new:
                    self.move_element(old, new, deadweight=(old != source))
                    cost += 1
            element_pos = prefix[-1]
        others = [p for p in chain if p != element_pos]
        if rightward:
            f_positions = set(others[: f_count - 1])
        else:
            f_positions = set(others[len(others) - (f_count - 1):])
        f_positions.add(element_pos)
        flips = 0
        for position in chain:
            desired = F_SLOT if position in f_positions else BUFFER
            if _MASK_KIND[masks[position]] != desired:
                self.set_kind(position, desired)
                flips += 1
        if self._obs_enabled and flips:
            self._obs_relabel_flips.inc(flips)
        return cost

    def _chain_move_right(self, source: int, target_pos: int) -> int:
        fen = self._fen
        lo, hi = source, target_pos
        f_lo, first_ne, first_real = fen.prefix3(
            _LANE_F, _LANE_NONEMPTY, _LANE_REAL, lo
        )
        f_hi, ne_hi, real_hi = fen.prefix3(
            _LANE_F, _LANE_NONEMPTY, _LANE_REAL, hi + 1
        )
        total = ne_hi - first_ne
        count = real_hi - first_real
        f_count = f_hi - f_lo
        select = fen.select
        reals = [
            select(_LANE_REAL, k)
            for k in range(first_real + 1, first_real + count + 1)
        ]
        if reals[0] != source:
            raise InvariantViolation("chain_move source must be the leftmost element")
        # Final layout: prefix of element-free slots, then the moved element,
        # then the buffered (deadweight) elements, each shifted to the last
        # ``count`` chain positions.  The chain itself is never materialized:
        # its suffix is read off the non-empty lane directly.  Execute
        # right-to-left so every move lands on an element-free slot and never
        # crosses another element.  Token positions are stable under
        # move_element, so the selects stay valid throughout.
        suffix = [
            select(_LANE_NONEMPTY, k)
            for k in range(first_ne + total - count + 1, first_ne + total + 1)
        ]
        cost = 0
        for old, new in zip(reversed(reals), reversed(suffix)):
            if old != new:
                self.move_element(old, new, deadweight=(old != source))
                cost += 1
        self._relabel_span(lo, hi, first_ne, total, total - count, f_count, suffix[0], True, suffix)
        return cost

    def _chain_move_left(self, source: int, target_pos: int) -> int:
        fen = self._fen
        lo, hi = target_pos, source
        f_lo, first_ne, first_real = fen.prefix3(
            _LANE_F, _LANE_NONEMPTY, _LANE_REAL, lo
        )
        f_hi, ne_hi, real_hi = fen.prefix3(
            _LANE_F, _LANE_NONEMPTY, _LANE_REAL, hi + 1
        )
        total = ne_hi - first_ne
        count = real_hi - first_real
        f_count = f_hi - f_lo
        select = fen.select
        reals = [
            select(_LANE_REAL, k)
            for k in range(first_real + 1, first_real + count + 1)
        ]
        if reals[-1] != source:
            raise InvariantViolation("chain_move source must be the rightmost element")
        prefix = [
            select(_LANE_NONEMPTY, k)
            for k in range(first_ne + 1, first_ne + count + 1)
        ]
        cost = 0
        for old, new in zip(reals, prefix):
            if old != new:
                self.move_element(old, new, deadweight=(old != source))
                cost += 1
        self._relabel_span(lo, hi, first_ne, total, count - 1, f_count, prefix[-1], False, prefix)
        return cost

    def _relabel_span(
        self,
        lo: int,
        hi: int,
        first_ne: int,
        total: int,
        k_e: int,
        f_count: int,
        element_pos: int,
        element_first: bool,
        occupied: list[int],
    ) -> None:
        """Reassign slot kinds along the chain span after a chain move.

        Semantically identical to the seed's relabel (the moved element's
        position becomes an F-slot; for a rightward move the remaining
        F-labels go to the earliest chain positions, for a leftward move to
        the latest; F-label and buffer counts are preserved so the R-shell's
        occupied set never changes) — but instead of sweeping every chain
        position, the *flips* are enumerated directly: the contiguous
        physical interval that must be all-F is known from the label
        budget, buffer slots inside it come off the dummy lane (after the
        moves every empty buffer slot is a dummy), occupied slots inside it
        are checked against ``occupied`` (the *post-move* element positions
        — the compaction prefix/suffix), and stray F-labels outside it come
        off the F lane.  The work is ``O(flips · log m)`` instead of
        ``O(span)``.
        """
        fen = self._fen
        masks = self._masks
        if element_first:
            if f_count - 1 <= k_e:
                head, extra = f_count - 1, element_pos
            else:
                # Only reachable through the public chain_move API (legal
                # embedding chains keep the deadweight count within the
                # chain's buffer count); exact parity with the reference
                # relabel — the element lands inside the all-F interval.
                head, extra = f_count, None
            f_lo = lo
            f_hi = fen.select(_LANE_NONEMPTY, first_ne + head) if head else lo - 1
            b_lo, b_hi = f_hi + 1, hi
        else:
            last_ne = first_ne + total
            if total - f_count >= k_e:
                tail, extra = f_count - 1, element_pos
            else:
                tail, extra = f_count, None
            f_hi = hi
            f_lo = (
                fen.select(_LANE_NONEMPTY, last_ne - tail + 1)
                if tail
                else hi + 1
            )
            b_lo, b_hi = lo, f_lo - 1
        flips = 0
        if f_lo <= f_hi:
            # Buffer-kind slots inside the all-F interval flip to F: the
            # empty ones are exactly the dummy-lane hits, the occupied ones
            # are checked against the post-move element positions.
            for position in fen.select_range(_LANE_DUMMY, f_lo, f_hi):
                self.set_kind(position, F_SLOT)
                flips += 1
            for position in occupied:
                if f_lo <= position <= f_hi and not masks[position] & _BIT_F:
                    self.set_kind(position, F_SLOT)
                    flips += 1
        if extra is not None and not masks[extra] & _BIT_F:
            self.set_kind(extra, F_SLOT)
            flips += 1
        if b_lo <= b_hi:
            # Stray F-labels outside the interval flip to buffer (the moved
            # element's slot excepted — it just received the target label).
            for position in fen.select_range(_LANE_F, b_lo, b_hi):
                if position != extra:
                    self.set_kind(position, BUFFER)
                    flips += 1
        if self._obs_enabled and flips:
            self._obs_relabel_flips.inc(flips)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check_consistency(self, key: Callable[[Hashable], object] | None = None) -> None:
        """Raise :class:`InvariantViolation` if any structural invariant fails."""
        previous = None
        masks = self._masks
        for position, eid in enumerate(self._eid):
            if eid < 0:
                continue
            element = self._elem_of[eid]
            if not masks[position] & _BIT_NONEMPTY:
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
            if not masks[position] & _BIT_REAL:
                raise InvariantViolation(
                    f"occupied slot {position} missing from the element index"
                )
