"""Named shard-factory registry for reopenable stores.

A durable store must be *reopenable*: recovery rebuilds shards through the
same factory that built them, so the factory has to be resolvable from the
store's on-disk config — a name, not a closure.  This registry maps the
names the test-suite's ``ALGORITHM_FACTORIES`` uses to ``factory(capacity)``
callables; every entry is deterministic (fixed seeds, salt-hashed
predictors), which is what makes crash recovery reproduce the uninterrupted
run bit-for-bit.

Custom factories still work: pass ``shard_factory=`` to
:class:`repro.store.store.DurableStore` together with ``algorithm=`` naming
it; reopening then requires passing the same callable again (the config
records the name so a mismatch is caught, not silently mis-recovered).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from repro.algorithms import (
    AdaptivePMA,
    ClassicalPMA,
    DeamortizedPMA,
    LearnedLabeler,
    NaiveLabeler,
    NoisyPredictor,
    RandomizedPMA,
    SparseNaiveLabeler,
)
from repro.core.interface import ListLabeler
from repro.core.layered import make_corollary11_labeler


def _learned(capacity: int) -> LearnedLabeler:
    keys = [Fraction(i) for i in range(1, capacity + 1)]
    return LearnedLabeler(
        capacity,
        predictor=NoisyPredictor(keys, eta=max(1, capacity // 64)),
    )


#: name -> deterministic ``factory(capacity)`` usable as a store shard.
SHARD_FACTORIES: dict[str, Callable[[int], ListLabeler]] = {
    "naive": lambda capacity: NaiveLabeler(capacity),
    "sparse-naive": lambda capacity: SparseNaiveLabeler(capacity),
    "classical": lambda capacity: ClassicalPMA(capacity),
    "deamortized": lambda capacity: DeamortizedPMA(capacity),
    "randomized": lambda capacity: RandomizedPMA(capacity, seed=1234),
    "adaptive": lambda capacity: AdaptivePMA(capacity),
    "learned": _learned,
    "corollary11": lambda capacity: make_corollary11_labeler(capacity, seed=7),
}

#: The production default: classical PMA shards (O(log² n) amortized,
#: cheap snapshots, exact restore).
DEFAULT_ALGORITHM = "classical"

#: Factories whose structures restore through the ``elements`` fallback
#: (bulk_load) rather than an exact physical-layout snapshot.
ELEMENTS_FALLBACK_ALGORITHMS = frozenset({"corollary11"})

#: Every algorithm with an exact snapshot format — the universe of the
#: crash-injection differential (tests and benchmark derive from this, and
#: the test-suite's ALGORITHM_FACTORIES is built from it, so the name sets
#: can never drift apart).
EXACT_SNAPSHOT_ALGORITHMS = tuple(
    sorted(set(SHARD_FACTORIES) - ELEMENTS_FALLBACK_ALGORITHMS)
)


def resolve_factory(name: str) -> Callable[[int], ListLabeler]:
    try:
        return SHARD_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown shard algorithm {name!r} (registered: "
            f"{', '.join(sorted(SHARD_FACTORIES))})"
        ) from None
