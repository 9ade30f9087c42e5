"""A sorted key→value map laid out by a list-labeling algorithm.

This is the "packed-memory array as a clustered database index" use of list
labeling: keys are kept physically sorted in an array with gaps, so range
scans are sequential reads, while the underlying list-labeling algorithm
bounds how much data movement each update causes.  Any
:class:`repro.core.interface.ListLabeler` can supply the layout — including
the layered structure of Corollary 11, which gives the map bounded update
latency, good expected throughput, and adaptivity to skewed key patterns all
at once.

The labeler *is* the sorted key index: the map keeps no shadow key list
beside it.  Every rank search — the insertion rank of a new key, the start
of a range, both ends of a count, a predecessor or successor — is one call
to the labeler's key search
(:meth:`~repro.core.interface.ListLabeler.count_below`).  Over the sharding
engine that is a fence-key descent: bisect the shards' first keys, add one
directory prefix, then search the one shard the key falls in — a classical
shard bisects its own slot array, ``O(log K + log m)`` in all.  The new
keys of a batch are ranked together, sorted, with one
:meth:`~repro.core.interface.ListLabeler.count_below_sorted` call: one
descent and one shard call per touched shard.  The bounded
Corollary 11 map and embedding shards bisect the embedding's physical slots
the same way; only an embedding below a quarter load keeps the interface's
binary search over ``select`` (``O(log n · log m)``).
:meth:`PackedMemoryMap.range` streams through a labeler cursor
(:meth:`~repro.core.interface.ListLabeler.iter_from` — one seek, then a
lazy slot walk, never a whole-map materialization), and
:meth:`PackedMemoryMap.count_range` counts a key interval without touching
the elements in between.  ``range`` supports pagination (``limit`` +
``after``), which is what lets the durable store's service scan in pages
without pinning writers out for a whole-store pass.  Keys must be totally
ordered by ``<``: a key that is not equal to itself (a float NaN) is
refused with :class:`ValueError` before anything changes.

With ``capacity=None`` the map is **unbounded**: the layout is managed by a
:class:`repro.core.sharded.ShardedLabeler` over fixed-capacity shards, so
the map keeps absorbing keys indefinitely while every update stays local to
one shard.  Bulk ingestion goes through :meth:`PackedMemoryMap.update_many`,
which forwards one pre-batch-rank ``insert_batch`` to the labeler — the
batch engine's merged rebalances make sorted loads far cheaper than
key-at-a-time insertion.

The same clustered index made crash-safe is
:class:`repro.store.store.DurableStore`: it write-ahead logs every update
before applying it to its map (:attr:`~repro.store.store.DurableStore.map`,
an unbounded :class:`PackedMemoryMap`), checkpoints the exact per-shard
physical layout, and recovers the state of the last durable operation
when reopened (see :mod:`repro.store`).
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator

from repro.core.cost import CostTracker
from repro.core.interface import ListLabeler
from repro.core.layered import make_corollary11_labeler
from repro.core.sharded import ShardedLabeler


def _check_ordered(key) -> None:
    """Reject a key the labeler's total order cannot place.

    A key that is not equal to itself (a float NaN) compares false against
    everything, so a rank search would file it at an arbitrary rank and
    break the physical key order for good.
    """
    if key != key:
        raise ValueError(
            f"key {key!r} is not equal to itself, so it has no place in the "
            f"key order"
        )


class PackedMemoryMap:
    """Sorted mapping with list-labeling-managed physical layout.

    Parameters
    ----------
    capacity:
        Maximum number of keys, or ``None`` for an unbounded map backed by
        the sharding engine.
    labeler_factory:
        Builds the underlying list labeler.  For a bounded map it receives
        ``capacity`` and defaults to the Corollary 11 layered structure;
        for an unbounded map it receives the *shard* capacity and serves as
        the shard factory (default: the Corollary 11 structure per shard).
    shard_capacity:
        Shard size of the unbounded map (ignored when ``capacity`` is set).
    """

    def __init__(
        self,
        capacity: int | None = None,
        labeler_factory: Callable[[int], ListLabeler] | None = None,
        *,
        shard_capacity: int = 128,
    ) -> None:
        if labeler_factory is None:
            labeler_factory = lambda cap: make_corollary11_labeler(cap)
        if capacity is None:
            self._labeler: ListLabeler = ShardedLabeler(
                labeler_factory, shard_capacity=shard_capacity
            )
        else:
            self._labeler = labeler_factory(capacity)
        self._values: dict = {}
        #: Element-move cost of every update, in the paper's cost model.
        self.costs = CostTracker()

    # ------------------------------------------------------------------
    # Mapping interface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key) -> bool:
        return key in self._values

    def __getitem__(self, key):
        return self._values[key]

    def get(self, key, default=None):
        return self._values.get(key, default)

    def __setitem__(self, key, value) -> None:
        _check_ordered(key)
        if key in self._values:
            self._values[key] = value
            return
        rank = self._labeler.count_below(key) + 1
        result = self._labeler.insert(rank, key)
        self.costs.record(result.cost)
        self._values[key] = value

    def update_many(self, items: Iterable[tuple[Hashable, object]]) -> int:
        """Bulk upsert: one batched labeler call for all new keys.

        Existing keys only have their values replaced (no layout change).
        New keys are inserted through ``insert_batch`` with pre-batch ranks
        computed against the current key sequence (one
        ``count_below_sorted`` call for the sorted new keys), so a sorted
        ingest run costs one merged rebalance per shard instead of one
        cascade per key.  The batch keeps ``insert_batch``'s all-or-nothing
        contract: a rejected batch (e.g. over a bounded map's capacity, or
        a NaN key) leaves the map untouched, overwrites included.  Returns
        the number of newly inserted keys.
        """
        overwrites: dict = {}
        fresh: dict = {}
        for key, value in items:
            _check_ordered(key)
            if key in self._values:
                overwrites[key] = value
            else:
                fresh[key] = value
        if fresh:
            keys = sorted(fresh)
            below = self._labeler.count_below_sorted(keys)
            batch = [(count + 1, key) for count, key in zip(below, keys)]
            result = self._labeler.insert_batch(batch)
            self.costs.record_batch(result.cost, result.count)
            self._values.update(fresh)
        self._values.update(overwrites)
        return len(fresh)

    def __delitem__(self, key) -> None:
        if key not in self._values:
            raise KeyError(key)
        rank = self._labeler.rank_of(key)
        result = self._labeler.delete(rank)
        self.costs.record(result.cost)
        del self._values[key]

    def delete_many(self, keys: Iterable[Hashable]) -> int:
        """Bulk delete: one batched labeler call for all named keys.

        All-or-nothing like :meth:`update_many`: every key must be present
        (``KeyError`` raised before any mutation otherwise).  Duplicate
        keys in the iterable are collapsed.  Returns the number of deleted
        keys.
        """
        targets = sorted(set(keys))
        for key in targets:
            if key not in self._values:
                raise KeyError(key)
        if not targets:
            return 0
        ranks = [self._labeler.rank_of(key) for key in targets]
        result = self._labeler.delete_batch(ranks)
        self.costs.record_batch(result.cost, result.count)
        for key in targets:
            del self._values[key]
        return len(targets)

    # ------------------------------------------------------------------
    # Ordered queries (served through the labeler's read protocol)
    # ------------------------------------------------------------------
    def keys(self) -> list:
        """All keys in sorted order (read off the physical array)."""
        return list(self._labeler.elements())

    def items(self) -> Iterator[tuple]:
        """All items in key order, streamed through a labeler cursor."""
        for key in self._labeler.iter_from(1):
            yield key, self._values[key]

    def select(self, rank: int):
        """The ``rank``-th smallest key (1-based)."""
        return self._labeler.select(rank)

    def rank_of(self, key) -> int:
        """1-based rank of a stored key (``KeyError`` when absent)."""
        if key not in self._values:
            raise KeyError(key)
        return self._labeler.rank_of(key)

    def predecessor(self, key):
        """The largest stored key strictly smaller than ``key`` (or ``None``)."""
        below = self._labeler.count_below(key)
        return self._labeler.select(below) if below > 0 else None

    def successor(self, key):
        """The smallest stored key strictly larger than ``key`` (or ``None``)."""
        at_or_below = self._labeler.count_below(key, strict=False)
        if at_or_below < len(self._values):
            return self._labeler.select(at_or_below + 1)
        return None

    def range(self, low=None, high=None, *, limit=None, after=None) -> Iterator[tuple]:
        """Items with ``low <= key <= high`` in key order, streamed lazily.

        One rank search finds the start, then a labeler cursor walks the
        physical array — elements past the consumed prefix are never
        touched, so ``next(map.range(...))`` is ``O(log)`` regardless of
        the interval's width.  ``low``/``high`` of ``None`` leave that end
        unbounded.  ``limit`` caps the number of items; ``after`` starts
        strictly past the given key (the pagination cursor: pass the last
        key of the previous page to resume).
        """
        if after is not None and (low is None or after >= low):
            start_rank = self._labeler.count_below(after, strict=False) + 1
        elif low is not None:
            start_rank = self._labeler.count_below(low) + 1
        else:
            start_rank = 1
        emitted = 0
        if limit is not None and limit <= 0:
            return
        for key in self._labeler.iter_from(start_rank):
            if high is not None and key > high:
                return
            yield key, self._values[key]
            emitted += 1
            if limit is not None and emitted >= limit:
                return

    def count_range(self, low, high) -> int:
        """Number of stored keys with ``low <= key <= high``.

        Two rank searches — the interval's width never matters, unlike the
        pre-cursor implementation that scanned the shadow key list.
        """
        labeler = self._labeler
        return max(
            0, labeler.count_below(high, strict=False) - labeler.count_below(low)
        )

    # ------------------------------------------------------------------
    # Layout inspection
    # ------------------------------------------------------------------
    @property
    def labeler(self) -> ListLabeler:
        return self._labeler

    def label_of(self, key) -> int:
        """The physical slot (label) currently assigned to ``key``."""
        return self._labeler.slot_of(key)

    def check(self) -> None:
        """Validate that the physical layout matches the logical contents."""
        laid_out = list(self._labeler.elements())
        if len(laid_out) != len(self._values) or set(laid_out) != set(self._values):
            raise AssertionError("physical layout diverged from the key set")
        for left, right in zip(laid_out, laid_out[1:]):
            if not left < right:
                raise AssertionError(
                    f"physical key order violated: {left!r} !< {right!r}"
                )

    # ------------------------------------------------------------------
    # Serialization (the durable store's checkpoint unit)
    # ------------------------------------------------------------------
    def entries(self, keys: Iterable[Hashable]) -> list[list]:
        """The ``[key, value]`` pairs of ``keys`` (each must be stored)."""
        values = self._values
        return [[key, values[key]] for key in keys]

    def snapshot_state(self) -> dict:
        """Labeler snapshot plus the ``[key, value]`` entries in key order."""
        return {
            "labeler": self._labeler.snapshot(),
            "entries": self.entries(self._labeler.elements()),
        }

    def restore_state(self, state: dict) -> None:
        """Reinstall a :meth:`snapshot_state` document into this empty map.

        Empty-state round-trips are first-class: restoring the snapshot of
        an empty map yields a map whose iteration paths (:meth:`keys`,
        :meth:`items`, :meth:`range`) and consistency checks all work, and
        which accepts insertions immediately.
        """
        if self._values:
            raise RuntimeError("restore_state requires an empty map")
        self._labeler.restore(state["labeler"])
        entries = state["entries"]
        self._values = {key: value for key, value in entries}
        if list(self._labeler.elements()) != [key for key, _ in entries]:
            raise RuntimeError(
                "restored labeler layout does not match the snapshot's keys"
            )

