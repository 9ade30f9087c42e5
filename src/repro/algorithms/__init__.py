"""Substrate list-labeling algorithms.

Each module implements one of the algorithm families the paper composes:

* :mod:`repro.algorithms.naive` — the ``O(n)`` shift-to-fit baseline;
* :mod:`repro.algorithms.classical` — the Itai–Konheim–Rodeh packed-memory
  array with ``O(log² n)`` amortized cost [31];
* :mod:`repro.algorithms.deamortized` — an incrementally-rebalanced PMA that
  bounds the per-operation cost (stand-in for Willard [49], the worst-case
  algorithm ``Z`` of Corollary 11);
* :mod:`repro.algorithms.randomized` — a randomized-offset, history-oblivious
  PMA (stand-in for Bender et al. [8], the expected-cost algorithm ``Y``);
* :mod:`repro.algorithms.adaptive` — an adaptive PMA in the style of
  Bender–Hu [18], the hammer-insert algorithm ``X`` of Corollary 11;
* :mod:`repro.algorithms.learned` — a learning-augmented labeler in the
  style of McCauley et al. [35], the algorithm ``X`` of Corollary 12;
* :mod:`repro.algorithms.predictions` — rank predictors used by the
  learning-augmented labeler and the predicted workloads.

The sharding engine (:class:`repro.core.sharded.ShardedLabeler`) is
re-exported here with :func:`make_sharded_labeler` because it composes with
every algorithm above: any of these factories can serve as its shard
building block, lifting the fixed-capacity algorithm to unbounded size.
"""

from repro.algorithms.naive import NaiveLabeler, SparseNaiveLabeler
from repro.algorithms.classical import ClassicalPMA
from repro.algorithms.deamortized import DeamortizedPMA
from repro.algorithms.randomized import RandomizedPMA
from repro.algorithms.adaptive import AdaptivePMA
from repro.algorithms.learned import LearnedLabeler
from repro.algorithms.predictions import (
    ExactPredictor,
    NoisyPredictor,
    RankPredictor,
    StalePredictor,
)
from repro.core.sharded import ShardedLabeler, ShardFactory


def make_sharded_labeler(
    shard_factory: ShardFactory | None = None,
    *,
    shard_capacity: int = 64,
    **kwargs,
) -> ShardedLabeler:
    """An unbounded labeler over shards of any registered algorithm.

    Defaults to :class:`ClassicalPMA` shards — the production profile: each
    shard pays the classical ``O(log² n)`` amortized cost at ``n`` capped by
    ``shard_capacity``, and the directory keeps every operation local.
    """
    if shard_factory is None:
        shard_factory = ClassicalPMA
    return ShardedLabeler(shard_factory, shard_capacity=shard_capacity, **kwargs)


__all__ = [
    "AdaptivePMA",
    "ClassicalPMA",
    "DeamortizedPMA",
    "ExactPredictor",
    "LearnedLabeler",
    "NaiveLabeler",
    "NoisyPredictor",
    "RandomizedPMA",
    "RankPredictor",
    "ShardedLabeler",
    "SparseNaiveLabeler",
    "StalePredictor",
    "make_sharded_labeler",
]
