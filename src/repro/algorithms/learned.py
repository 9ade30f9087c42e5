"""Learning-augmented list labeling (McCauley et al. [35] style).

The algorithm ``X`` of Corollary 12: equipped with a rank predictor ``P`` of
maximum error ``η``, it supports an insertion sequence with amortized cost
that depends on the *quality of the predictions* (``O(log² η)`` in [35])
rather than on ``n``.

The implementation keeps the PMA skeleton and uses the prediction where it
matters most: **placement**.  Each inserted element is steered toward the
physical slot its predicted final rank maps to
(``predicted_rank / capacity · m``).  When the prediction is good the slot is
free and order-compatible, the insertion costs ``O(1)``, and — because every
element sits near its final position — later insertions keep finding room
exactly where they land, so rebalances stay confined to windows of size
``O(η · m / n)``.  When predictions are poor the steering attempt fails and
the structure falls back to the classical PMA insertion path, so the cost
degrades gracefully toward ``O(log² n)``; experiment E-PRED measures the
resulting dependence on ``η``.
"""

from __future__ import annotations

from typing import Hashable

from repro.algorithms.classical import ClassicalPMA
from repro.algorithms.predictions import RankPredictor


class LearnedLabeler(ClassicalPMA):
    """PMA that steers insertions toward predicted final positions."""

    default_slack = 0.75

    def __init__(
        self,
        capacity: int,
        num_slots: int | None = None,
        *,
        predictor: RankPredictor,
        **kwargs,
    ) -> None:
        super().__init__(capacity, num_slots, **kwargs)
        self._predictor = predictor
        #: Scale factor from predicted rank space to physical slot space.
        self._stretch = self.num_slots / max(1, self.capacity)
        #: Number of insertions placed directly at their predicted slot.
        self.steered_placements = 0
        #: Number of insertions that fell back to the classical PMA path.
        self.fallback_placements = 0

    # ------------------------------------------------------------------
    def predicted_slot(self, element: Hashable) -> int | None:
        """The physical slot the predictor steers ``element`` toward.

        Returns ``None`` when the predictor has no prediction for the element
        (e.g. a key outside its training universe); the insertion then uses
        the classical placement.
        """
        try:
            predicted_rank = self._predictor.predict(element)
        except (KeyError, ValueError):
            return None
        slot = int((predicted_rank - 0.5) * self._stretch)
        return max(0, min(self.num_slots - 1, slot))

    # ------------------------------------------------------------------
    def _snapshot_extra(self) -> dict:
        extra = super()._snapshot_extra()
        # The predictor itself is rebuilt by the owning factory on restore
        # (it is training data, not runtime state); only the steering
        # statistics need to survive.
        extra["learned"] = {
            "steered_placements": self.steered_placements,
            "fallback_placements": self.fallback_placements,
        }
        return extra

    def _restore_extra(self, extra: dict) -> None:
        super()._restore_extra(extra)
        state = extra.get("learned")
        if state:
            self.steered_placements = state["steered_placements"]
            self.fallback_placements = state["fallback_placements"]

    # ------------------------------------------------------------------
    def _insert_between(
        self, pred_slot: int, succ_slot: int, rank: int, element: Hashable
    ) -> None:
        if self._steered_insert(pred_slot, succ_slot, element):
            self.steered_placements += 1
            return
        self.fallback_placements += 1
        super()._insert_between(pred_slot, succ_slot, rank, element)

    def _steered_insert(self, pred_slot: int, succ_slot: int, element: Hashable) -> bool:
        """Try to place ``element`` at (or next to) its predicted slot.

        The placement is accepted only when the chosen slot is free and lies
        strictly between the physical slots of the element's rank neighbours,
        so sorted order can never be violated by a bad prediction.
        """
        desired = self.predicted_slot(element)
        if desired is None:
            return False
        if succ_slot - pred_slot <= 1:
            return False  # no room between the neighbours; use the PMA path
        lo, hi = pred_slot + 1, succ_slot - 1
        target = max(lo, min(hi, desired))
        if self._slots[target] is not None:
            # The exact slot is taken: try the nearest free slot between the
            # neighbours on the side of the prediction.
            left = self.free_slot_left(target)
            right = self.free_slot_right(target)
            candidates = [
                slot
                for slot in (left, right)
                if slot is not None and lo <= slot <= hi
            ]
            if not candidates:
                return False
            target = min(candidates, key=lambda slot: abs(slot - desired))
        self._place(target, element)
        return True
