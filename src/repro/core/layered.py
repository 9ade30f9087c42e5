"""Layered compositions: Theorem 3 and Corollaries 11–12.

Theorem 2 builds one embedding ``F ⊳ R``; Theorem 3 observes that the
construction composes — given three algorithms ``X`` (adaptive guarantee),
``Y`` (expected-cost guarantee) and ``Z`` (worst-case guarantee), the
doubly-layered structure ``X ⊳ (Y ⊳ Z)`` achieves all three simultaneously.
This module provides:

* :func:`embedding_factory` — turn an existing ``(F, R)`` pair of factories
  into a factory usable as the reliable side of an *outer* embedding, which
  is exactly how the theorem is applied twice;
* :class:`LayeredLabeler` — the ``X ⊳ (Y ⊳ Z)`` structure;
* :func:`make_corollary11_labeler` — the concrete instantiation of
  Corollary 11 (adaptive PMA ⊳ (randomized PMA ⊳ deamortized PMA));
* :func:`make_corollary12_labeler` — the learning-augmented instantiation of
  Corollary 12 (learned labeler ⊳ (randomized PMA ⊳ deamortized PMA)).
"""

from __future__ import annotations

import math
from typing import Callable

from repro.algorithms.adaptive import AdaptivePMA
from repro.algorithms.deamortized import DeamortizedPMA
from repro.algorithms.learned import LearnedLabeler
from repro.algorithms.predictions import RankPredictor
from repro.algorithms.randomized import RandomizedPMA
from repro.core.embedding import Embedding, LabelerFactory, PhysicalFactory
from repro.core.physical import PhysicalArray


def embedding_factory(
    fast_factory: LabelerFactory,
    reliable_factory: LabelerFactory,
    *,
    reliable_expected_cost: int | None = None,
    rebuild_work_factor: float = 1.0,
    physical_factory: PhysicalFactory = PhysicalArray,
) -> LabelerFactory:
    """A factory producing ``F ⊳ R`` instances sized by the caller.

    The returned callable has the ``(capacity, num_slots)`` signature every
    component factory uses, so the embedding it builds can in turn serve as
    the reliable algorithm of an outer embedding (the double application of
    Theorem 2 that proves Theorem 3).  ``physical_factory`` builds the
    physical array of every embedding built.
    """

    def build(capacity: int, num_slots: int) -> Embedding:
        return Embedding(
            capacity,
            fast_factory,
            reliable_factory,
            num_slots=num_slots,
            reliable_expected_cost=reliable_expected_cost,
            rebuild_work_factor=rebuild_work_factor,
            physical_factory=physical_factory,
        )

    return build


class LayeredLabeler(Embedding):
    """The triple composition ``X ⊳ (Y ⊳ Z)`` of Theorem 3.

    ``X`` should carry an input-adaptive amortized guarantee, ``Y`` an
    expected-cost guarantee on any input, and ``Z`` a worst-case guarantee;
    the layered structure then enjoys all three (Theorem 3), which experiment
    E-TRIPLE verifies empirically.  ``physical_factory`` builds both the
    outer and the inner embedding's physical arrays.
    """

    def __init__(
        self,
        capacity: int,
        adaptive_factory: LabelerFactory,
        expected_factory: LabelerFactory,
        worst_case_factory: LabelerFactory,
        *,
        epsilon: float = 0.4,
        expected_cost_bound: int | None = None,
        worst_case_cost_bound: int | None = None,
        rebuild_work_factor: float = 1.0,
        physical_factory: PhysicalFactory = PhysicalArray,
    ) -> None:
        if expected_cost_bound is None:
            # Y's guarantee: the O(log^{3/2} n) bound of [8].
            log = math.log2(max(4, capacity))
            expected_cost_bound = max(4, int(math.ceil(log**1.5)))
        if worst_case_cost_bound is None:
            # Z's guarantee: the O(log² n) bound of [49].
            log = math.log2(max(4, capacity))
            worst_case_cost_bound = max(4, int(math.ceil(log * log)))
        inner = embedding_factory(
            expected_factory,
            worst_case_factory,
            reliable_expected_cost=worst_case_cost_bound,
            rebuild_work_factor=rebuild_work_factor,
            physical_factory=physical_factory,
        )
        super().__init__(
            capacity,
            adaptive_factory,
            inner,
            epsilon=epsilon,
            reliable_expected_cost=expected_cost_bound,
            rebuild_work_factor=rebuild_work_factor,
            physical_factory=physical_factory,
        )

    @property
    def inner_embedding(self) -> Embedding:
        """The inner ``Y ⊳ Z`` embedding (the outer structure's R-shell)."""
        reliable = self.shell.reliable
        assert isinstance(reliable, Embedding)
        return reliable


def corollary11_worst_case_bound(capacity: int) -> int:
    """Per-operation worst-case envelope of the Corollary 11 structure.

    Derived from the structure's own constants instead of an eyeballed
    fraction of ``n``: a slow-path operation performs at most two token
    operations on the inner ``Y ⊳ Z`` embedding — each bounded by the inner
    rebuild budget plus one finish step (``≤ 2·E_Z``) plus the deamortized
    shell's own ``O(log² n)`` rebalance (``≤ E_Z``) — and the outer rebuild
    budget plus its finish step (``≤ 2·E_Y``).  With ``E_Z = ⌈log² n⌉``
    (Willard's worst-case bound) and ``E_Y = ⌈log^{3/2} n⌉`` (the expected
    bound of [8]) that totals ``6·E_Z + 2·E_Y``; a further ×4/3 margin
    absorbs the small-``n`` constants observed empirically across seeds.
    The bound is ``Θ(log² n)`` — genuinely ``o(n)`` — so the benchmark's
    "worst case never approaches n" claim is checked against a quantity
    that tightens, not loosens, as ``n`` grows.
    """
    log = math.log2(max(4, capacity))
    e_z = math.ceil(log * log)
    e_y = math.ceil(log**1.5)
    return math.ceil((6 * e_z + 2 * e_y) * 4 / 3)


def make_corollary11_labeler(
    capacity: int,
    *,
    seed: int | None = None,
    epsilon: float = 0.4,
    rebuild_work_factor: float = 1.0,
    physical_factory: PhysicalFactory = PhysicalArray,
) -> LayeredLabeler:
    """The Corollary 11 structure: adaptive ⊳ (randomized ⊳ deamortized).

    * ``X`` = :class:`AdaptivePMA` — amortized ``O(log n)`` on hammer-insert
      workloads (the algorithm of [18]);
    * ``Y`` = :class:`RandomizedPMA` — the expected-cost algorithm (stand-in
      for [8]);
    * ``Z`` = :class:`DeamortizedPMA` — the worst-case algorithm (stand-in
      for [49]).
    """
    return LayeredLabeler(
        capacity,
        adaptive_factory=lambda cap, slots: AdaptivePMA(cap, slots),
        expected_factory=lambda cap, slots: RandomizedPMA(cap, slots, seed=seed),
        worst_case_factory=lambda cap, slots: DeamortizedPMA(cap, slots),
        epsilon=epsilon,
        rebuild_work_factor=rebuild_work_factor,
        physical_factory=physical_factory,
    )


def make_corollary12_labeler(
    capacity: int,
    predictor: RankPredictor,
    *,
    seed: int | None = None,
    epsilon: float = 0.4,
    rebuild_work_factor: float = 1.0,
) -> LayeredLabeler:
    """The Corollary 12 structure: learned ⊳ (randomized ⊳ deamortized).

    ``X`` is the learning-augmented labeler of [35] equipped with the given
    rank ``predictor``; ``Y`` and ``Z`` are as in Corollary 11.  The layered
    structure keeps the ``O(log² η)`` good-case cost of ``X`` while capping
    the damage of bad predictions at ``Y``/``Z``'s input-independent bounds.
    """
    return LayeredLabeler(
        capacity,
        adaptive_factory=lambda cap, slots: LearnedLabeler(
            cap, slots, predictor=predictor
        ),
        expected_factory=lambda cap, slots: RandomizedPMA(cap, slots, seed=seed),
        worst_case_factory=lambda cap, slots: DeamortizedPMA(cap, slots),
        epsilon=epsilon,
        rebuild_work_factor=rebuild_work_factor,
    )
