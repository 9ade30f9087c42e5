"""Hypothesis stateful machines for the sharding engine and unbounded map.

Two :class:`~hypothesis.stateful.RuleBasedStateMachine`\\ s drive the
production composites through randomized rule sequences —
singleton inserts/deletes, whole batches, bursts engineered to force
shard splits and merges, and *read* rules (select-kth, cursor range
streams, interval counts, key lookups) whose answers are checked against
the reference model — and run the full structural consistency check
(directory vs shard sizes, density policy, physical order, reference-model
contents) after **every** rule via an invariant, so query correctness is
exercised across split/merge boundaries specifically.
"""

from __future__ import annotations

import bisect
import itertools
from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.algorithms import ClassicalPMA
from repro.applications.ordered_map import PackedMemoryMap
from repro.core.layered import make_corollary11_labeler
from repro.core.physical import PhysicalArray, ReferencePhysicalArray
from repro.core.sharded import ShardedLabeler
from repro.core.validation import check_labeler

#: Small shards so a handful of rules crosses split/merge boundaries.
SHARD_CAPACITY = 16


#: ``count_below`` strictness → the ``bisect`` answer over the model.
_SEARCH_MODELS = ((True, bisect.bisect_left), (False, bisect.bisect_right))


def _search_key(data, reference: list[Fraction]) -> Fraction:
    """A stored key, a key between two neighbours, or one past either end."""
    gap = data.draw(st.integers(0, len(reference)), label="search gap")
    key = _midpoint(reference, gap + 1)
    if reference and data.draw(st.booleans(), label="stored key"):
        key = reference[min(gap, len(reference) - 1)]
    return key


def _midpoint(reference: list[Fraction], rank: int) -> Fraction:
    lower = reference[rank - 2] if rank >= 2 else None
    upper = reference[rank - 1] if rank - 1 < len(reference) else None
    if lower is None and upper is None:
        return Fraction(0)
    if lower is None:
        return upper - 1
    if upper is None:
        return lower + 1
    return (lower + upper) / 2


class ShardedMachine(RuleBasedStateMachine):
    """Insert/delete/batch/burst rules against a ``ShardedLabeler``.

    Batches are drawn wide (up to 24 ranks), so they regularly span several
    shards and mix overflowing with plain per-shard sub-batches.
    """

    def __init__(self) -> None:
        super().__init__()
        self.labeler = ShardedLabeler(
            lambda capacity: ClassicalPMA(capacity),
            shard_capacity=SHARD_CAPACITY,
        )
        self.reference: list[Fraction] = []

    # -- rules ---------------------------------------------------------
    @rule(data=st.data())
    def insert_one(self, data):
        rank = data.draw(
            st.integers(1, len(self.reference) + 1), label="insert rank"
        )
        key = _midpoint(self.reference, rank)
        self.labeler.insert(rank, key)
        self.reference.insert(rank - 1, key)

    @precondition(lambda self: self.reference)
    @rule(data=st.data())
    def delete_one(self, data):
        rank = data.draw(st.integers(1, len(self.reference)), label="delete rank")
        self.labeler.delete(rank)
        self.reference.pop(rank - 1)

    @rule(data=st.data())
    def insert_batch(self, data):
        size = len(self.reference)
        ranks = data.draw(
            st.lists(st.integers(1, size + 1), min_size=1, max_size=24),
            label="batch ranks (pre-batch)",
        )
        ranks.sort()
        items = []
        merged = list(self.reference)
        for offset, rank in enumerate(ranks):
            key = _midpoint(merged, rank + offset)
            items.append((rank, key))
            merged.insert(rank + offset - 1, key)
        self.labeler.insert_batch(items)
        self.reference = merged

    @precondition(lambda self: self.reference)
    @rule(data=st.data())
    def delete_batch(self, data):
        size = len(self.reference)
        ranks = data.draw(
            st.lists(
                st.integers(1, size), min_size=1, max_size=min(24, size), unique=True
            ),
            label="delete ranks (pre-batch)",
        )
        self.labeler.delete_batch(ranks)
        for rank in sorted(ranks, reverse=True):
            self.reference.pop(rank - 1)

    @rule(data=st.data())
    def split_burst(self, data):
        """Hammer one rank until at least one shard split fires."""
        rank = data.draw(
            st.integers(1, len(self.reference) + 1), label="burst rank"
        )
        splits_before = self.labeler.splits
        for _ in range(SHARD_CAPACITY):
            key = _midpoint(self.reference, rank)
            self.labeler.insert(rank, key)
            self.reference.insert(rank - 1, key)
            if self.labeler.splits > splits_before:
                break

    @precondition(lambda self: len(self.reference) > SHARD_CAPACITY)
    @rule()
    def merge_burst(self):
        """Drain from the front until a merge (or a single shard remains)."""
        merges_before = self.labeler.merges
        for _ in range(2 * SHARD_CAPACITY):
            if not self.reference or self.labeler.shard_count == 1:
                break
            self.labeler.delete(1)
            self.reference.pop(0)
            if self.labeler.merges > merges_before:
                break

    # -- read rules: query correctness across split/merge bursts --------
    @precondition(lambda self: self.reference)
    @rule(data=st.data())
    def select_kth(self, data):
        rank = data.draw(st.integers(1, len(self.reference)), label="select rank")
        assert self.labeler.select(rank) == self.reference[rank - 1]
        assert self.labeler.slot_of_rank(rank) == self.labeler.slot_of(
            self.reference[rank - 1]
        )

    @precondition(lambda self: self.reference)
    @rule(data=st.data())
    def cursor_range(self, data):
        size = len(self.reference)
        rank = data.draw(st.integers(1, size), label="range start rank")
        span = data.draw(st.integers(1, 20), label="range span")
        hi = min(size, rank + span - 1)
        assert (
            self.labeler.cursor(rank).take(hi - rank + 1)
            == self.reference[rank - 1 : hi]
        )

    @precondition(lambda self: self.reference)
    @rule(data=st.data())
    def count_interval(self, data):
        size = len(self.reference)
        lo = data.draw(st.integers(1, size), label="count lo")
        hi = data.draw(st.integers(lo, size), label="count hi")
        assert self.labeler.count_rank_range(lo, hi) == hi - lo + 1
        assert (
            self.labeler.count_range(0, self.labeler.num_slots) == size
        )

    @precondition(lambda self: self.reference)
    @rule(data=st.data())
    def lookup_key(self, data):
        rank = data.draw(st.integers(1, len(self.reference)), label="lookup rank")
        key = self.reference[rank - 1]
        assert self.labeler.rank_of(key) == rank
        assert self.labeler.contains(key)

    @rule(data=st.data())
    def lookup_absent_key(self, data):
        """A midpoint that is not stored: the fence route finds no owner."""
        gap = data.draw(st.integers(0, len(self.reference)), label="absent gap")
        key = _midpoint(self.reference, gap + 1)
        assert not self.labeler.contains(key)
        with pytest.raises(KeyError):
            self.labeler.rank_of(key)
        with pytest.raises(KeyError):
            self.labeler.slot_of(key)

    @rule(data=st.data())
    def count_below(self, data):
        key = _search_key(data, self.reference)
        for strict, model in _SEARCH_MODELS:
            expected = model(self.reference, key)
            assert self.labeler.count_below(key, strict=strict) == expected

    # -- invariant: full consistency after every rule ------------------
    @invariant()
    def consistent(self):
        self.labeler.check_consistency()
        assert self.labeler.elements() == self.reference
        assert len(self.labeler) == len(self.reference)
        if self.reference:
            check_labeler(self.labeler, expected=self.reference)


class PackedMemoryMapMachine(RuleBasedStateMachine):
    """Mapping rules against the unbounded ``PackedMemoryMap(capacity=None)``
    over its default Corollary 11 shards (a rank search through ``select``
    inside the shard the fences pick)."""

    keys = st.integers(0, 200)

    #: Shard factory of the map; ``None`` is the map's default.
    shard_factory = None

    def __init__(self) -> None:
        super().__init__()
        self.map = PackedMemoryMap(
            capacity=None,
            labeler_factory=self.shard_factory,
            shard_capacity=SHARD_CAPACITY,
        )
        self.model: dict[int, int] = {}
        self._values = itertools.count()

    @rule(key=keys)
    def set_item(self, key):
        value = next(self._values)
        self.map[key] = value
        self.model[key] = value

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_item(self, data):
        key = data.draw(
            st.sampled_from(sorted(self.model)), label="key to delete"
        )
        del self.map[key]
        del self.model[key]

    @rule(items=st.lists(st.tuples(keys, st.integers()), max_size=24))
    def bulk_update(self, items):
        inserted = self.map.update_many(items)
        fresh = {key for key, _ in items} - set(self.model)
        assert inserted == len(fresh)
        for key, value in items:
            self.model[key] = value

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def point_queries(self, data):
        key = data.draw(st.sampled_from(sorted(self.model)), label="probe key")
        assert self.map[key] == self.model[key]
        assert key in self.map
        ordered = sorted(self.model)
        expected_rank = ordered.index(key)
        assert self.map.keys()[expected_rank] == key
        assert self.map.rank_of(key) == expected_rank + 1
        assert self.map.select(expected_rank + 1) == key

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def ordered_queries(self, data):
        ordered = sorted(self.model)
        probe = data.draw(st.integers(-5, 205), label="order probe")
        below = [key for key in ordered if key < probe]
        above = [key for key in ordered if key > probe]
        assert self.map.predecessor(probe) == (below[-1] if below else None)
        assert self.map.successor(probe) == (above[0] if above else None)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def range_pages(self, data):
        ordered = sorted(self.model)
        low = data.draw(st.integers(0, 200), label="range low")
        high = data.draw(st.integers(low, 200), label="range high")
        limit = data.draw(st.integers(1, 8), label="page size")
        expected = [
            (key, self.model[key]) for key in ordered if low <= key <= high
        ]
        assert list(self.map.range(low, high)) == expected
        assert self.map.count_range(low, high) == len(expected)
        paged: list = []
        after = None
        while True:
            page = list(self.map.range(low, high, limit=limit, after=after))
            if not page:
                break
            paged.extend(page)
            after = page[-1][0]
        assert paged == expected

    @invariant()
    def consistent(self):
        self.map.check()
        labeler = self.map.labeler
        labeler.check_consistency()
        assert self.map.keys() == sorted(self.model)
        assert len(self.map) == len(self.model)


class ClassicalPackedMemoryMapMachine(PackedMemoryMapMachine):
    """The same rules over classical shards, the store's default (a slot
    search inside the shard the fences pick)."""

    shard_factory = staticmethod(lambda capacity: ClassicalPMA(capacity))


class ReferenceTwinMachine(RuleBasedStateMachine):
    """Slab- and reference-backed labelers driven in lockstep stay
    bit-identical.

    Both twins are sharded Corollary 11 labelers (embedding shards with a
    physical array underneath) built with the same seed; only the
    ``physical_factory`` differs: the slab :class:`PhysicalArray` default
    against the seed :class:`ReferencePhysicalArray` oracle, in both the
    outer and the inner embedding.  Every rule applies the same drawn
    operation to both and compares the move triples just produced; the
    invariant compares labels, elements, per-shard physical slots and slot
    kinds after every step, and runs the reference twin's full consistency
    check — so the oracle wall reaches through split/merge boundaries, not
    just replayed traces.
    """

    def __init__(self) -> None:
        super().__init__()

        def shards(physical_factory):
            return ShardedLabeler(
                lambda capacity: make_corollary11_labeler(
                    capacity, seed=11, physical_factory=physical_factory
                ),
                shard_capacity=SHARD_CAPACITY,
            )

        self.slab = shards(PhysicalArray)
        self.oracle = shards(ReferencePhysicalArray)
        self.reference: list[Fraction] = []

    def _compare(self, slab_result, oracle_result):
        from repro.core.operations import move_triples

        slab_items = getattr(slab_result, "results", [slab_result])
        oracle_items = getattr(oracle_result, "results", [oracle_result])
        assert len(slab_items) == len(oracle_items)
        for left, right in zip(slab_items, oracle_items):
            assert left.operation.kind == right.operation.kind
            assert move_triples(left.moves) == move_triples(right.moves)

    @rule(data=st.data())
    def insert_one(self, data):
        rank = data.draw(
            st.integers(1, len(self.reference) + 1), label="insert rank"
        )
        key = _midpoint(self.reference, rank)
        self._compare(self.slab.insert(rank, key), self.oracle.insert(rank, key))
        self.reference.insert(rank - 1, key)

    @precondition(lambda self: self.reference)
    @rule(data=st.data())
    def delete_one(self, data):
        rank = data.draw(st.integers(1, len(self.reference)), label="delete rank")
        self._compare(self.slab.delete(rank), self.oracle.delete(rank))
        self.reference.pop(rank - 1)

    @precondition(lambda self: self.reference)
    @rule(data=st.data())
    def reuse_burst(self, data):
        """Delete a rank and at once put the equal key back, a few times
        near one rank: the twins meet keys whose ghosts may still live."""
        rank = data.draw(st.integers(1, len(self.reference)), label="reuse rank")
        for offset in data.draw(
            st.lists(st.integers(-2, 2), min_size=1, max_size=12),
            label="reuse offsets",
        ):
            at = min(max(1, rank + offset), len(self.reference))
            key = self.reference.pop(at - 1)
            self._compare(self.slab.delete(at), self.oracle.delete(at))
            self._compare(self.slab.insert(at, key), self.oracle.insert(at, key))
            self.reference.insert(at - 1, key)

    @rule(data=st.data())
    def insert_batch(self, data):
        size = len(self.reference)
        ranks = data.draw(
            st.lists(st.integers(1, size + 1), min_size=1, max_size=12),
            label="batch ranks (pre-batch)",
        )
        ranks.sort()
        items = []
        merged = list(self.reference)
        for offset, rank in enumerate(ranks):
            key = _midpoint(merged, rank + offset)
            items.append((rank, key))
            merged.insert(rank + offset - 1, key)
        self._compare(
            self.slab.insert_batch(items), self.oracle.insert_batch(items)
        )
        self.reference = merged

    @rule(data=st.data())
    def split_burst(self, data):
        """Hammer one rank until at least one shard split fires."""
        rank = data.draw(
            st.integers(1, len(self.reference) + 1), label="burst rank"
        )
        splits_before = self.slab.splits
        for _ in range(SHARD_CAPACITY):
            key = _midpoint(self.reference, rank)
            self._compare(
                self.slab.insert(rank, key), self.oracle.insert(rank, key)
            )
            self.reference.insert(rank - 1, key)
            if self.slab.splits > splits_before:
                break

    @precondition(lambda self: self.reference)
    @rule(data=st.data())
    def oracle_reads_match(self, data):
        size = len(self.reference)
        rank = data.draw(st.integers(1, size), label="read rank")
        assert self.oracle.select(rank) == self.reference[rank - 1]
        span = data.draw(st.integers(1, 20), label="read span")
        hi = min(size, rank + span - 1)
        assert (
            self.oracle.cursor(rank).take(hi - rank + 1)
            == self.reference[rank - 1 : hi]
        )

    @invariant()
    def twins_identical(self):
        self.oracle.check_consistency()
        assert self.oracle.elements() == self.reference
        assert self.oracle.labels() == self.slab.labels()

        def arrays(labeler):
            return [
                array
                for shard in labeler.shards
                for array in (shard.physical, shard.inner_embedding.physical)
            ]

        # The twins must really run different arrays, or this compares
        # slab with slab.
        oracle_arrays = arrays(self.oracle)
        assert oracle_arrays
        assert all(type(array) is ReferencePhysicalArray for array in oracle_arrays)
        assert all(type(array) is PhysicalArray for array in arrays(self.slab))

        def layout(labeler):
            return [
                (list(array.slots()), list(array.kinds()))
                for array in arrays(labeler)
            ]

        assert layout(self.oracle) == layout(self.slab)


_settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None
)

TestShardedMachine = ShardedMachine.TestCase
TestShardedMachine.settings = _settings

TestPackedMemoryMapMachine = PackedMemoryMapMachine.TestCase
TestPackedMemoryMapMachine.settings = _settings

TestClassicalPackedMemoryMapMachine = ClassicalPackedMemoryMapMachine.TestCase
TestClassicalPackedMemoryMapMachine.settings = _settings

TestReferenceTwinMachine = ReferenceTwinMachine.TestCase
TestReferenceTwinMachine.settings = _settings
