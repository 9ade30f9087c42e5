"""Adversarial workloads: the access patterns that expose the tail.

Every committed benchmark reports amortized cost, but the paper's central
claim is about *worst-case* behavior — the deamortized and layered
structures exist precisely because an adversary can force a classical PMA
into huge single-operation rebalances.  These workloads are that
adversary, in five flavors:

* :class:`RebalanceCliffWorkload` — probes for the currently-densest rank
  window of its own insertion history and hammers it, chasing the density
  cliff the structure is trying to rebalance away (feedback-driven: the
  target re-aims every ``probe_every`` operations, it is not a fixed rank);
* :class:`DriftingZipfWorkload` — time-varying skew: the zipf hotspot
  drifts across the key space while the skew exponent ramps, so no static
  partitioning of the structure stays right;
* :class:`FlashCrowdWorkload` — flash crowds: bursts of *sorted* ingest
  into one random region on top of background uniform traffic;
* :class:`CompactionStormWorkload` — delete-heavy storms clustered in a
  region (driving shard merges / density collapses), alternating with
  refill phases;
* :class:`SortedRandomInterleaveWorkload` — alternating sorted-append and
  uniform-random runs, the interleaving that defeats append-only
  special-casing.

All are seeded and bit-deterministic (same seed → identical operation
stream), runnable through :func:`repro.analysis.runner.run_workload` in
singleton and batched mode, against every registered algorithm and the
sharding engine.
:data:`ADVERSARIAL_WORKLOADS` maps workload names to
``factory(operations, seed)`` callables for sweeps.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator

from repro.core.operations import Operation
from repro.workloads.base import Workload


class RebalanceCliffWorkload(Workload):
    """Insertions that chase and hammer the currently-densest rank window.

    The stream tracks its own insertion density over ``buckets`` equal
    relative-rank windows.  After a uniform warmup it repeatedly re-probes
    (every ``probe_every`` operations) for the densest window and inserts
    near that window's center (± ``jitter`` ranks) — each insertion makes
    the target denser, so the adversary rides the structure's density
    cliff instead of poking a fixed rank the way the hammer workload does.
    """

    name = "rebalance-cliff"

    def __init__(
        self,
        operations: int,
        *,
        buckets: int = 16,
        warmup_fraction: float = 0.25,
        probe_every: int = 64,
        jitter: int = 4,
        seed: int = 0,
    ) -> None:
        super().__init__(operations, capacity=operations)
        if buckets < 1:
            raise ValueError("buckets must be positive")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must lie in [0, 1)")
        if probe_every < 1:
            raise ValueError("probe_every must be positive")
        if jitter < 0:
            raise ValueError("jitter cannot be negative")
        self.buckets = buckets
        self.warmup_fraction = warmup_fraction
        self.probe_every = probe_every
        self.jitter = jitter
        self.seed = seed

    def __iter__(self) -> Iterator[Operation]:
        rng = random.Random(self.seed)
        counts = [0] * self.buckets
        size = 0
        warmup = int(self.operations * self.warmup_fraction)
        target = 0
        for step in range(self.operations):
            if step < warmup or size < self.buckets:
                rank = rng.randint(1, size + 1)
            else:
                if (step - warmup) % self.probe_every == 0:
                    target = max(range(self.buckets), key=counts.__getitem__)
                center = int((target + 0.5) * (size + 1) / self.buckets)
                rank = min(
                    size + 1,
                    max(1, center + rng.randint(-self.jitter, self.jitter)),
                )
            bucket = min(self.buckets - 1, rank * self.buckets // (size + 2))
            counts[bucket] += 1
            yield Operation.insert(rank)
            size += 1


class DriftingZipfWorkload(Workload):
    """Zipf-skewed insertions whose hotspot drifts and whose skew ramps.

    The hotspot sweeps the relative key space ``drift_cycles`` times over
    the run (wrapping at 1.0) while the skew exponent ramps linearly from
    ``skew_start`` to ``skew_end`` — the time-varying version of
    :class:`~repro.workloads.zipfian.ZipfianWorkload`, with two-sided
    offsets around the moving anchor.
    """

    name = "drifting-zipf"

    def __init__(
        self,
        operations: int,
        *,
        skew_start: float = 1.4,
        skew_end: float = 1.05,
        drift_cycles: float = 2.0,
        seed: int = 0,
    ) -> None:
        super().__init__(operations, capacity=operations)
        if skew_start <= 0 or skew_end <= 0:
            raise ValueError("skew must be positive")
        if drift_cycles <= 0:
            raise ValueError("drift_cycles must be positive")
        self.skew_start = skew_start
        self.skew_end = skew_end
        self.drift_cycles = drift_cycles
        self.seed = seed

    def __iter__(self) -> Iterator[Operation]:
        from repro.workloads.mixed import zipf_index

        rng = random.Random(self.seed)
        size = 0
        for step in range(self.operations):
            progress = step / self.operations
            skew = self.skew_start + (self.skew_end - self.skew_start) * progress
            hotspot = (progress * self.drift_cycles) % 1.0
            universe = size + 1
            offset = zipf_index(rng, universe, skew) - 1
            anchor = int(hotspot * size)
            if offset and rng.random() < 0.5:
                offset = -offset
            rank = min(universe, max(1, anchor + offset + 1))
            yield Operation.insert(rank)
            size += 1


class FlashCrowdWorkload(Workload):
    """Background uniform inserts with bursts of sorted ingest into one region.

    Every ``burst_every`` operations the stream picks a uniformly random
    anchor and emits ``burst_length`` consecutive ascending insertions
    there — a sorted run landing in one region, the flash-crowd shape
    (an entity going viral, a batch import of one key prefix).
    """

    name = "flash-crowd"

    def __init__(
        self,
        operations: int,
        *,
        burst_length: int = 64,
        burst_every: int = 256,
        seed: int = 0,
    ) -> None:
        super().__init__(operations, capacity=operations)
        if burst_length < 1:
            raise ValueError("burst_length must be positive")
        if burst_every < 1:
            raise ValueError("burst_every must be positive")
        self.burst_length = burst_length
        self.burst_every = burst_every
        self.seed = seed

    def __iter__(self) -> Iterator[Operation]:
        rng = random.Random(self.seed)
        size = 0
        step = 0
        while step < self.operations:
            if size and step % self.burst_every == self.burst_every - 1:
                anchor = rng.randint(1, size + 1)
                length = min(self.burst_length, self.operations - step)
                for index in range(length):
                    yield Operation.insert(anchor + index)
                    size += 1
                step += length
                continue
            yield Operation.insert(rng.randint(1, size + 1))
            size += 1
            step += 1


class CompactionStormWorkload(Workload):
    """Delete-heavy storms clustered in a region, alternating with refills.

    A uniform grow phase builds ``grow_fraction`` of the stream; the rest
    alternates *storms* (``storm_length`` deletions drawn from one random
    region of relative width ``region_width`` — the pattern that collapses
    density, drives shard merges and forces compaction) with *refills*
    (``storm_length`` uniform insertions restoring the size).  The stream
    never deletes the structure empty.
    """

    name = "compaction-storm"

    def __init__(
        self,
        operations: int,
        *,
        grow_fraction: float = 0.5,
        storm_length: int = 128,
        region_width: float = 0.1,
        seed: int = 0,
    ) -> None:
        super().__init__(operations, capacity=operations)
        if not 0.0 < grow_fraction < 1.0:
            raise ValueError("grow_fraction must lie in (0, 1)")
        if storm_length < 1:
            raise ValueError("storm_length must be positive")
        if not 0.0 < region_width <= 1.0:
            raise ValueError("region_width must lie in (0, 1]")
        self.grow_fraction = grow_fraction
        self.storm_length = storm_length
        self.region_width = region_width
        self.seed = seed

    def __iter__(self) -> Iterator[Operation]:
        rng = random.Random(self.seed)
        size = 0
        grow = max(1, int(self.operations * self.grow_fraction))
        step = 0
        while step < grow:
            yield Operation.insert(rng.randint(1, size + 1))
            size += 1
            step += 1
        storming = True
        remaining_in_phase = self.storm_length
        anchor = rng.random()
        while step < self.operations:
            if remaining_in_phase == 0:
                storming = not storming
                remaining_in_phase = self.storm_length
                if storming:
                    anchor = rng.random()
            if storming and size > 1:
                width = max(1, int(self.region_width * size))
                low = min(size, max(1, int(anchor * size)))
                high = min(size, low + width - 1)
                yield Operation.delete(rng.randint(low, high))
                size -= 1
            else:
                yield Operation.insert(rng.randint(1, size + 1))
                size += 1
            remaining_in_phase -= 1
            step += 1


class SortedRandomInterleaveWorkload(Workload):
    """Alternating runs of sorted appends and uniform random insertions.

    ``run_length`` ascending appends at the current end, then
    ``run_length`` uniform random insertions, repeated — the interleaving
    that punishes structures which special-case either pure pattern.
    """

    name = "sorted-random-interleave"

    def __init__(
        self, operations: int, *, run_length: int = 128, seed: int = 0
    ) -> None:
        super().__init__(operations, capacity=operations)
        if run_length < 1:
            raise ValueError("run_length must be positive")
        self.run_length = run_length
        self.seed = seed

    def __iter__(self) -> Iterator[Operation]:
        rng = random.Random(self.seed)
        size = 0
        for step in range(self.operations):
            if (step // self.run_length) % 2 == 0:
                yield Operation.insert(size + 1)
            else:
                yield Operation.insert(rng.randint(1, size + 1))
            size += 1


#: name -> ``factory(operations, seed)`` for sweeps over the whole suite.
ADVERSARIAL_WORKLOADS: dict[str, Callable[[int, int], Workload]] = {
    "rebalance_cliff": lambda n, seed: RebalanceCliffWorkload(n, seed=seed),
    "drifting_zipf": lambda n, seed: DriftingZipfWorkload(n, seed=seed),
    "flash_crowd": lambda n, seed: FlashCrowdWorkload(n, seed=seed),
    "compaction_storm": lambda n, seed: CompactionStormWorkload(n, seed=seed),
    "sorted_random_interleave": lambda n, seed: SortedRandomInterleaveWorkload(
        n, seed=seed
    ),
}
