"""The R-shell: the reliable algorithm driving the whole array.

The R-shell is an ordinary list-labeling algorithm ``R`` whose "elements"
are *tokens*: one token per F-emulator slot and one per buffer slot.  From
R's point of view every token is an occupied slot (Figure 1, bottom view);
the only free slots it sees are the ``R_EMPTY`` positions.  The shell never
learns what a token carries — the embedding replays R's token moves onto the
physical array (slots travel with their contents) and only pays for the
tokens that actually carry elements.

The shell starts by bulk-loading R with its ``(1 + 2ε)n`` tokens at one
placement each.  Every R supports this, so when R is itself an embedding
(Theorem 3 applies Theorem 2 twice), the inner embedding starts evenly
laid out instead of replaying one insertion per token.

Per the slow path of Section 3, each buffered insertion costs the shell one
token deletion (an arbitrary dummy buffer slot) plus one token insertion (a
fresh buffer slot at the new element's rank).  The shell records its own
token-level cost separately so Lemma 10's comparison (the embedding's
R-side cost is bounded by R's own guarantees) can be checked empirically.
"""

from __future__ import annotations

import itertools
from typing import Callable

from repro.core.exceptions import InvariantViolation
from repro.core.interface import ListLabeler
from repro.core.physical import BUFFER, F_SLOT, PhysicalArray


class RShell:
    """Wraps the reliable algorithm ``R`` and keeps it in sync with the array."""

    def __init__(
        self,
        reliable_factory: Callable[[int, int], ListLabeler],
        *,
        f_slots: int,
        buffer_slots: int,
        physical: PhysicalArray,
    ) -> None:
        self._physical = physical
        self._token_ids = itertools.count()
        tokens = f_slots + buffer_slots
        self._reliable = reliable_factory(tokens, physical.num_slots)
        if self._reliable.num_slots != physical.num_slots:
            raise InvariantViolation(
                "the reliable algorithm must operate on the embedding's array: "
                f"expected {physical.num_slots} slots, got {self._reliable.num_slots}"
            )
        #: Token-level cost of initializing R with the Θ(n) F-slot/buffer tokens.
        self.initialization_cost = 0
        #: Token-level cost charged to R after initialization (R's own metric).
        self.token_cost = 0
        #: Real-element cost actually incurred on the physical array by replays.
        self.element_cost = 0
        self._initialize(f_slots, buffer_slots)

    # ------------------------------------------------------------------
    @property
    def reliable(self) -> ListLabeler:
        """The underlying reliable list-labeling instance (read-only use)."""
        return self._reliable

    def _initialize(self, f_slots: int, buffer_slots: int) -> None:
        """Bulk-load the Θ(n) initial tokens into R and imprint the slot kinds.

        Every R takes them at one placement per token — a dense array with
        its even layout, a nested embedding through
        :meth:`repro.core.embedding.Embedding.bulk_load` — so
        :attr:`initialization_cost` equals the token count.  The first
        ``f_slots`` tokens become F-emulator slots and the rest become
        (dummy) buffer slots; their physical placement is whatever layout R
        chose, read back from R's slot array.
        """
        tokens = [next(self._token_ids) for _ in range(f_slots + buffer_slots)]
        kinds = [
            F_SLOT if index < f_slots else BUFFER for index in range(len(tokens))
        ]
        self.initialization_cost += self._reliable.bulk_load(tokens)
        occupied_positions = [
            position
            for position, item in enumerate(self._reliable.slots())
            if item is not None
        ]
        if len(occupied_positions) != len(kinds):
            raise InvariantViolation("R lost track of its initialization tokens")
        self._physical.initialize_kinds(zip(occupied_positions, kinds))

    # ------------------------------------------------------------------
    def delete_token(self, token_rank: int) -> None:
        """Delete the token of the given R-rank and replay the moves."""
        result = self._reliable.delete(token_rank)
        self.token_cost += result.cost
        self.element_cost += self._physical.apply_shell_moves(result.moves)

    def insert_token(self, token_rank: int) -> int:
        """Insert a fresh buffer token at ``token_rank``; returns its position."""
        token = next(self._token_ids)
        result = self._reliable.insert(token_rank, token)
        self.token_cost += result.cost
        self.element_cost += self._physical.apply_shell_moves(result.moves)
        return self._reliable.slot_of(token)

    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Check that R's occupied slots coincide with the non-empty slots,
        and R's own invariants when R checks them.

        R's tokens are numbered in insertion order, not in slot order, so R
        is asked to order them by slot: a nested embedding then checks its
        array, emulator and shell, and a layered structure covers every
        layer.
        """
        reliable = self._reliable
        check = getattr(reliable, "check_consistency", None)
        if callable(check):
            check(key=reliable.slot_of)
        shell_occupied = [
            position
            for position, item in enumerate(self._reliable.slots())
            if item is not None
        ]
        array_nonempty = [
            position
            for position in range(self._physical.num_slots)
            if self._physical.kind(position) != 0
        ]
        if shell_occupied != array_nonempty:
            raise InvariantViolation(
                "the R-shell's occupied slots diverged from the physical array"
            )
