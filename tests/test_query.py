"""The streaming query engine: cursors, rank-select reads, pagination.

Covers every layer the read path threads through: the operation model's
read kinds, ``CostTracker`` query accounting, the ``Cursor`` protocol on
every registered algorithm and composite, the sharded engine's fence-key
routing and cross-shard streaming (with the no-full-probing regression test
at ≥64 shards), the ``PackedMemoryMap`` cursor-backed ordered queries and
pagination, the store service's paged scans, and the ``repro.store scan``
CLI.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.algorithms import ClassicalPMA
from repro.analysis.runner import run_workload
from repro.applications.ordered_map import PackedMemoryMap
from repro.core import ListLabeler, Operation, ShardedLabeler
from repro.core.cost import CostTracker
from repro.core.exceptions import RankError
from repro.core.operations import COUNT_RANGE, LOOKUP, RANGE, SELECT
from repro.workloads import MixedReadWriteWorkload, RangeScanWorkload
from tests.conftest import ALGORITHM_FACTORIES, COMPOSITE_FACTORIES

ALL_FACTORIES = {**ALGORITHM_FACTORIES, **COMPOSITE_FACTORIES}


# ----------------------------------------------------------------------
# Operation model
# ----------------------------------------------------------------------
class TestReadOperations:
    def test_read_kind_constructors(self):
        assert Operation.lookup(3).is_read
        assert Operation.select(3).is_read
        assert Operation.range(2, 9).is_read
        assert Operation.count_range(2, 9).is_read
        assert not Operation.insert(1).is_read
        assert Operation.insert(1).is_write
        assert not Operation.select(1).is_write

    def test_interval_kinds_need_end_rank(self):
        with pytest.raises(ValueError):
            Operation(RANGE, 1)
        with pytest.raises(ValueError):
            Operation(COUNT_RANGE, 1)
        with pytest.raises(ValueError):
            Operation(RANGE, 5, None, 4)  # end before start

    def test_point_kinds_reject_end_rank(self):
        for kind in ("insert", "delete", LOOKUP, SELECT):
            with pytest.raises(ValueError):
                Operation(kind, 1, None, 2)

    def test_span(self):
        assert Operation.range(3, 7).span == 5
        assert Operation.select(3).span == 1


class TestQueryAccounting:
    def test_reads_stay_out_of_move_statistics(self):
        tracker = CostTracker()
        tracker.record(5)
        tracker.record_query(SELECT, 1)
        tracker.record_query(RANGE, 40)
        assert tracker.operations == 1
        assert tracker.total_cost == 5
        assert tracker.queries == 2
        assert tracker.query_items == 41
        stats = tracker.query_statistics()
        assert stats["queries"] == 2.0
        assert stats["select_queries"] == 1.0
        assert stats["range_items"] == 40.0
        assert "queries" in tracker.summary()

    def test_negative_items_rejected(self):
        with pytest.raises(ValueError):
            CostTracker().record_query(SELECT, -1)

    def test_empty_query_statistics(self):
        assert CostTracker().query_statistics() == {}


# ----------------------------------------------------------------------
# The cursor protocol on every registered structure
# ----------------------------------------------------------------------
def _grow(factory, steps=60, seed=5, capacity=200):
    rng = random.Random(seed)
    labeler = factory(capacity)
    reference: list[Fraction] = []
    for _ in range(steps):
        if reference and rng.random() < 0.3:
            rank = rng.randint(1, len(reference))
            labeler.delete(rank)
            reference.pop(rank - 1)
        else:
            rank = rng.randint(1, len(reference) + 1)
            lower = reference[rank - 2] if rank >= 2 else None
            upper = reference[rank - 1] if rank - 1 < len(reference) else None
            if lower is None and upper is None:
                key = Fraction(0)
            elif lower is None:
                key = upper - 1
            elif upper is None:
                key = lower + 1
            else:
                key = (lower + upper) / 2
            labeler.insert(rank, key)
            reference.insert(rank - 1, key)
    return labeler, reference


@pytest.mark.parametrize("name", sorted(ALL_FACTORIES))
def test_cursor_protocol_matches_reference(name):
    labeler, reference = _grow(ALL_FACTORIES[name])
    size = len(reference)
    assert size > 10
    for rank in (1, 2, size // 2, size - 1, size):
        assert labeler.select(rank) == reference[rank - 1]
        assert list(labeler.iter_from(rank)) == reference[rank - 1 :]
        assert labeler.slot_of_rank(rank) == labeler.slot_of(reference[rank - 1])
    assert list(labeler.iter_from(size + 1)) == []
    assert labeler.count_range(0, labeler.num_slots) == size
    assert labeler.count_rank_range(1, size) == size
    assert labeler.count_rank_range(3, size - 2) == size - 4
    cursor = labeler.cursor(2)
    assert cursor.rank == 2
    assert cursor.take(4) == reference[1:5]
    assert cursor.rank == 6
    assert next(cursor) == reference[5]


@pytest.mark.parametrize("name", sorted(ALL_FACTORIES))
def test_read_rank_validation(name):
    labeler, reference = _grow(ALL_FACTORIES[name], steps=20)
    size = len(reference)
    for bad in (0, size + 1):
        with pytest.raises(RankError):
            labeler.select(bad if bad else 0)
    with pytest.raises(RankError):
        labeler.iter_from(size + 2)
    with pytest.raises(RankError):
        labeler.iter_from(0)


def test_cursor_take_and_exhaustion():
    labeler = ClassicalPMA(32)
    for index in range(10):
        labeler.insert(index + 1, index)
    cursor = labeler.cursor(8)
    assert cursor.take(100) == [7, 8, 9]
    assert cursor.take(5) == []
    with pytest.raises(StopIteration):
        next(cursor)


# ----------------------------------------------------------------------
# Sharded engine: fence-key routing + cross-shard streaming
# ----------------------------------------------------------------------
class _CountingPMA(ClassicalPMA):
    """Shard that counts membership probes and indexed lookups."""

    contains_calls = 0
    slot_of_calls = 0
    rank_of_calls = 0

    def contains(self, element):
        type(self).contains_calls += 1
        return super().contains(element)

    def slot_of(self, element):
        type(self).slot_of_calls += 1
        return super().slot_of(element)

    def rank_of(self, element):
        type(self).rank_of_calls += 1
        return super().rank_of(element)


class TestShardedRouting:
    def _many_shards(self, n=4096):
        labeler = ShardedLabeler(
            lambda cap: _CountingPMA(cap), shard_capacity=32
        )
        labeler.bulk_load(list(range(n)))
        return labeler

    def test_no_full_shard_probing_on_hits(self):
        """Regression (satellite 1): a hit must not probe shard by shard.

        At ≥64 shards every ``slot_of``/``rank_of`` hit goes through the
        fence keys straight to its owning shard: exactly one indexed shard
        query each, zero membership probes — the old probe loop paid
        ``O(K)`` ``contains`` probes per lookup.
        """
        labeler = self._many_shards()
        assert labeler.shard_count >= 64
        rng = random.Random(3)
        keys = [rng.randrange(4096) for _ in range(100)]
        _CountingPMA.contains_calls = 0
        _CountingPMA.slot_of_calls = 0
        _CountingPMA.rank_of_calls = 0
        for key in keys:
            labeler.slot_of(key)
            labeler.rank_of(key)
        assert _CountingPMA.contains_calls == 0
        # One shard slot_of per hit, plus one more inside the dense
        # shard's own rank_of — constant per hit, independent of K.
        assert _CountingPMA.slot_of_calls == 2 * len(keys)
        assert _CountingPMA.rank_of_calls == len(keys)

    def test_routed_answers_equal_probe_answers(self):
        """The fence route agrees with the interface's ``O(m)`` scans."""
        labeler = self._many_shards(1024)
        for key in range(0, 1024, 37):
            assert labeler.slot_of(key) == ListLabeler.slot_of(labeler, key)
            assert labeler.rank_of(key) == ListLabeler.rank_of(labeler, key)
        with pytest.raises(KeyError):
            labeler.slot_of("missing")
        with pytest.raises(KeyError):
            labeler.rank_of("missing")

    def test_absent_keys_raise_key_error(self):
        """Every absent key misses: below the first fence, in the gap
        between two shards' keys, inside a shard, above the last key, of
        another type, and on an empty engine."""
        labeler = ShardedLabeler(lambda cap: ClassicalPMA(cap), shard_capacity=32)
        labeler.bulk_load(list(range(0, 2048, 2)))
        assert labeler.shard_count >= 8
        first, second = labeler.shards[0], labeler.shards[1]
        between_shards = first.elements()[-1] + 1
        assert between_shards < second.elements()[0]
        empty = ShardedLabeler(lambda cap: ClassicalPMA(cap), shard_capacity=32)
        cases = [
            (labeler, -1),
            (labeler, between_shards),
            (labeler, 101),
            (labeler, 2047),
            (labeler, Fraction(1, 2)),
            (labeler, "missing"),
            (labeler, ("k", 1)),
            (labeler, None),
            (empty, 0),
            (empty, "missing"),
        ]
        for engine, key in cases:
            assert not engine.contains(key), key
            with pytest.raises(KeyError):
                engine.slot_of(key)
            with pytest.raises(KeyError):
                engine.rank_of(key)

    def test_contains(self):
        labeler = self._many_shards(256)
        assert labeler.contains(17)
        assert not labeler.contains(-1)
        labeler.delete(18)  # rank 18 = key 17
        assert not labeler.contains(17)

    def test_routing_survives_split_merge_churn(self, reference_driver_factory):
        labeler = ShardedLabeler(
            lambda cap: ClassicalPMA(cap), shard_capacity=16
        )
        # Midpoint keys between the rank neighbours keep the stored
        # elements in key order, which the fence route relies on.
        model = reference_driver_factory(labeler)
        rng = random.Random(9)
        for phase_inserts in (400, 0):
            for _ in range(400):
                size = len(model.reference)
                grow = size < 4 or (phase_inserts and rng.random() < 0.8)
                if grow:
                    model.insert(rng.randint(1, size + 1))
                else:
                    model.delete(rng.randint(1, size))
        assert labeler.splits >= 3 and labeler.merges >= 1
        labeler.check_consistency()
        model.check()
        slots = labeler.slots()
        for rank, key in enumerate(model.reference, start=1):
            assert labeler.rank_of(key) == rank
            assert labeler.slot_of(key) == labeler.slot_of_rank(rank)
            assert slots[labeler.slot_of(key)] == key

    def test_cross_shard_streaming_is_lazy(self):
        """A short prefix read must not touch shards past the boundary."""
        labeler = ShardedLabeler(
            lambda cap: _CountingPMA(cap), shard_capacity=32
        )
        labeler.bulk_load(list(range(2048)))
        assert labeler.shard_count >= 64

        class _Exploding(Exception):
            pass

        # Poison every shard past the first three: if the stream
        # concatenated shards up front, building it would blow up.
        for shard in list(labeler.shards)[3:]:
            def boom(*args, **kwargs):
                raise _Exploding()

            shard.iter_from = boom
            shard.elements = boom
            shard.slots = boom
        cursor = labeler.cursor(2)
        assert cursor.take(10) == list(range(1, 11))

    def test_sharded_count_range_fenwick_composition(self):
        labeler = ShardedLabeler(
            lambda cap: ClassicalPMA(cap), shard_capacity=32
        )
        n = 1000
        labeler.bulk_load(list(range(n)))
        slots = labeler.slots()
        rng = random.Random(1)
        for _ in range(60):
            lo = rng.randint(0, labeler.num_slots)
            hi = rng.randint(0, labeler.num_slots)
            expected = sum(
                1 for index in range(min(lo, hi), max(lo, hi))
                if slots[index] is not None
            ) if hi > lo else 0
            assert labeler.count_range(lo, hi) == (expected if hi > lo else 0)
        assert labeler.count_range(0, labeler.num_slots) == n
        assert labeler.count_range(-5, 10**9) == n
        assert labeler.count_range(7, 7) == 0


# ----------------------------------------------------------------------
# PackedMemoryMap: cursor-backed ordered queries, no shadow key list
# ----------------------------------------------------------------------
class TestMapQueries:
    def _map(self, keys):
        pmm = PackedMemoryMap(capacity=None, shard_capacity=32)
        for key in keys:
            pmm[key] = key * 2
        return pmm

    def test_point_and_order_queries(self):
        keys = list(range(0, 400, 4))
        pmm = self._map(keys)
        assert pmm.keys() == keys
        assert pmm.select(1) == 0 and pmm.select(len(keys)) == keys[-1]
        assert pmm.rank_of(200) == keys.index(200) + 1
        assert pmm.predecessor(200) == 196
        assert pmm.predecessor(199) == 196
        assert pmm.predecessor(0) is None
        assert pmm.successor(200) == 204
        assert pmm.successor(keys[-1]) is None
        assert pmm.successor(-1) == 0

    def test_range_streams_and_paginates(self):
        keys = list(range(0, 400, 4))
        pmm = self._map(keys)
        full = list(pmm.range(10, 100))
        assert full == [(k, 2 * k) for k in keys if 10 <= k <= 100]
        assert list(pmm.range()) == [(k, 2 * k) for k in keys]
        # limit + after pagination reassembles the same interval.
        pages = []
        after = None
        while True:
            page = list(pmm.range(10, 100, limit=7, after=after))
            if not page:
                break
            pages.extend(page)
            after = page[-1][0]
        assert pages == full
        assert list(pmm.range(10, 100, limit=0)) == []

    def test_count_range(self):
        keys = list(range(0, 100, 2))
        pmm = self._map(keys)
        assert pmm.count_range(0, 98) == 50
        assert pmm.count_range(1, 7) == 3
        assert pmm.count_range(98, 0) == 0
        assert pmm.count_range(200, 300) == 0

    def test_items_stream_in_key_order(self):
        keys = [9, 1, 7, 3, 5]
        pmm = self._map(keys)
        assert list(pmm.items()) == [(k, 2 * k) for k in sorted(keys)]

    def test_mutation_paths_keep_order(self):
        pmm = PackedMemoryMap(capacity=None, shard_capacity=16)
        model: dict = {}
        rng = random.Random(4)
        for step in range(600):
            roll = rng.random()
            if model and roll < 0.25:
                key = rng.choice(sorted(model))
                del pmm[key]
                del model[key]
            elif roll < 0.35:
                items = [(rng.randrange(5000), step) for _ in range(8)]
                pmm.update_many(items)
                model.update(items)
            else:
                key = rng.randrange(5000)
                pmm[key] = step
                model[key] = step
        pmm.check()
        assert pmm.keys() == sorted(model)
        assert dict(pmm.items()) == model
        victims = rng.sample(sorted(model), 20)
        assert pmm.delete_many(victims) == 20
        for key in victims:
            del model[key]
        assert pmm.keys() == sorted(model)


# ----------------------------------------------------------------------
# Store service: paginated scans that let writers through
# ----------------------------------------------------------------------
class TestServicePagination:
    def _service(self, tmp_path):
        from repro.store.service import StoreService
        from repro.store.store import DurableStore

        store = DurableStore(
            tmp_path / "store", algorithm="classical", sync_policy="never"
        )
        store.put_many([(i, i * 10) for i in range(100)])
        return StoreService(store)

    def test_range_scan_pages_reassemble(self, tmp_path):
        service = self._service(tmp_path)
        try:
            expected = [(i, i * 10) for i in range(20, 81)]
            assert service.range_scan(20, 80) == expected
            assert service.count_range(20, 80) == len(expected)
            paged = [
                item
                for page in service.scan_pages(20, 80, page_size=7)
                for item in page
            ]
            assert paged == expected
        finally:
            service.close()

    def test_writers_interleave_between_pages(self, tmp_path):
        """A paginated scan must observe a write landing between pages."""
        service = self._service(tmp_path)
        try:
            pages = service.scan_pages(0, 10**9, page_size=50)
            first = next(pages)
            assert len(first) == 50
            # The service lock is free between pages: this put would
            # deadlock against a scan that pinned the lock for the whole
            # interval, and its key (ahead of the cursor) must be seen.
            service.put(1000, "late")
            rest = [item for page in pages for item in page]
            assert (1000, "late") in rest
        finally:
            service.close()


# ----------------------------------------------------------------------
# Runner + workloads
# ----------------------------------------------------------------------
class TestReadWorkloads:
    def test_mixed_workload_runs_and_verifies(self):
        labeler = ShardedLabeler(lambda cap: ClassicalPMA(cap), shard_capacity=64)
        workload = MixedReadWriteWorkload(
            1500, read_fraction=0.9, key_choice="zipfian", seed=3
        )
        result = run_workload(labeler, workload, validate_every=500)
        tracker = result.tracker
        assert tracker.queries > 1000
        assert tracker.operations + tracker.queries == 1500
        stats = tracker.query_statistics()
        for kind in (LOOKUP, SELECT, RANGE, COUNT_RANGE):
            assert stats[f"{kind}_queries"] > 0

    def test_mixed_workload_batched_execution(self):
        labeler = ShardedLabeler(lambda cap: ClassicalPMA(cap), shard_capacity=64)
        workload = MixedReadWriteWorkload(1000, seed=8)
        result = run_workload(labeler, workload, batch_size=16)
        assert result.tracker.queries > 0
        assert (
            result.tracker.operations + result.tracker.queries == 1000
        )

    def test_range_scan_workload(self):
        labeler = ShardedLabeler(lambda cap: ClassicalPMA(cap), shard_capacity=64)
        result = run_workload(labeler, RangeScanWorkload(800, scan_length=32, seed=2))
        assert result.tracker.query_statistics()["range_queries"] == 400.0
        assert result.tracker.query_items > 400 * 16
        assert result.ops_per_second > 0

    def test_workload_parameter_validation(self):
        with pytest.raises(ValueError):
            MixedReadWriteWorkload(100, read_fraction=1.5)
        with pytest.raises(ValueError):
            MixedReadWriteWorkload(100, key_choice="gaussian")
        with pytest.raises(ValueError):
            MixedReadWriteWorkload(100, scan_fraction=0.8, count_fraction=0.4)
        with pytest.raises(ValueError):
            RangeScanWorkload(100, scan_length=0)
        with pytest.raises(ValueError):
            RangeScanWorkload(100, load_fraction=0.0)

    def test_describe_metadata(self):
        meta = MixedReadWriteWorkload(100, seed=1).describe()
        assert meta["read_fraction"] == 0.95
        assert meta["key_choice"] == "uniform"
        meta = RangeScanWorkload(100).describe()
        assert meta["scan_length"] == 64
