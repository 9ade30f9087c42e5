"""Adaptive packed-memory array in the style of Bender and Hu [18].

The classical PMA rebalances every window to perfectly even spacing, which
is wasteful when the workload keeps hammering the same rank: the freshly
created gaps far from the hotspot are never used.  The adaptive PMA instead
*skews* the free slots of every rebalance toward where insertions have been
arriving, so a hammer-insert workload finds Θ(window) free slots right at
the hot gap and only pays ``O(1)`` per insertion until they are exhausted.
This is the mechanism behind the ``O(log n)``-on-hammer-workloads guarantee
that Corollary 11 consumes (algorithm ``X``), and experiment E-ADAPT
measures the resulting ~``log n``-factor advantage over the classical PMA.

The implementation keeps an exponentially-decayed hit counter per leaf
segment (the "predictor" of [18]) and, inside :meth:`_rebalance_targets`,
allocates the window's free slots to inter-element gaps proportionally to a
mixture of (a) the hit counter of the leaf each gap currently lives in and
(b) proximity to the gap of the element being inserted right now.
"""

from __future__ import annotations

from typing import Hashable

from repro.algorithms.classical import ClassicalPMA


class AdaptivePMA(ClassicalPMA):
    """PMA with hotspot-skewed rebalances (adaptive/uneven redistribution)."""

    #: Exponential decay applied to every leaf hit counter on each insertion.
    hit_decay = 0.995
    #: Weight of the proximity kernel relative to the leaf hit counters.
    proximity_weight = 8.0
    #: Baseline (even-spreading) weight of every gap; the adaptive terms are
    #: added on top of it, scaled by how concentrated the workload looks, so
    #: no region is ever starved of free slots.
    floor_weight = 1.0

    def __init__(self, capacity: int, num_slots: int | None = None, **kwargs) -> None:
        super().__init__(capacity, num_slots, **kwargs)
        self._leaf_hits: list[float] = [0.0] * (self._num_segments + 1)

    # ------------------------------------------------------------------
    # Hotspot tracking
    # ------------------------------------------------------------------
    def _note_insertion(self, anchor_slot: int) -> None:
        """Record that an insertion landed near ``anchor_slot``."""
        leaf = min(self.leaf_of(anchor_slot), len(self._leaf_hits) - 1)
        for index in range(len(self._leaf_hits)):
            self._leaf_hits[index] *= self.hit_decay
        self._leaf_hits[leaf] += 1.0

    def _insert_between(
        self, pred_slot: int, succ_slot: int, rank: int, element: Hashable
    ) -> None:
        self._note_insertion(max(pred_slot, 0))
        super()._insert_between(pred_slot, succ_slot, rank, element)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _snapshot_extra(self) -> dict:
        extra = super()._snapshot_extra()
        # The decayed hit counters steer every future rebalance, so they are
        # part of the behaviour-relevant state a recovery must reproduce.
        extra["adaptive"] = {"leaf_hits": list(self._leaf_hits)}
        return extra

    def _restore_extra(self, extra: dict) -> None:
        super()._restore_extra(extra)
        state = extra.get("adaptive")
        if state:
            self._leaf_hits = [float(hit) for hit in state["leaf_hits"]]

    # ------------------------------------------------------------------
    # Skewed redistribution
    # ------------------------------------------------------------------
    def _rebalance_targets(
        self,
        lo: int,
        hi: int,
        count: int,
        insert_slot_hint: int | None,
    ) -> list[int]:
        width = hi - lo
        free = width - count
        if count == 0:
            return []
        if free <= 0:
            return self.even_targets(lo, hi, count)

        # How concentrated have recent insertions been?  A hammer workload
        # drives ``concentration`` toward 1 and the rebalance skews hard; a
        # uniform workload keeps it near 1/#leaves and the rebalance stays
        # essentially even, so adaptivity never hurts the average case.
        total_hits = sum(self._leaf_hits)
        concentration = (max(self._leaf_hits) / total_hits) if total_hits > 0 else 0.0

        # One weight per gap; gaps sit before element 0, between consecutive
        # elements, and after the last element (count + 1 gaps).
        weights = []
        for gap in range(count + 1):
            # Approximate physical location of the gap if spread evenly; used
            # only to look up the leaf hit counter.
            approx_slot = lo + min(width - 1, (gap * width) // (count + 1))
            leaf = min(self.leaf_of(approx_slot), len(self._leaf_hits) - 1)
            weight = self.floor_weight + concentration * self._leaf_hits[leaf]
            if insert_slot_hint is not None and concentration > 0.0:
                distance = abs(gap - (insert_slot_hint + 1))
                weight += concentration * self.proximity_weight / (1.0 + distance)
            weights.append(weight)

        total_weight = sum(weights)
        # Largest-remainder allocation of the free slots to gaps.
        raw = [w / total_weight * free for w in weights]
        allocation = [int(r) for r in raw]
        leftover = free - sum(allocation)
        remainders = sorted(
            range(count + 1), key=lambda g: raw[g] - allocation[g], reverse=True
        )
        for gap in remainders[:leftover]:
            allocation[gap] += 1

        targets = []
        cursor = lo
        for index in range(count):
            cursor += allocation[index]
            targets.append(cursor)
            cursor += 1
        return targets
