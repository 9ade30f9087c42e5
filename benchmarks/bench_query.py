"""E-QUERY — the streaming read path: fence-routed lookups + lazy cursors.

Three claims about the query engine this PR adds:

* **Routing beats probing** — ``ShardedLabeler.slot_of``, routed by a
  bisection of the shards' fence keys, answers point lookups ≥10× faster
  than an ``O(K)`` probe loop over the shards (kept here verbatim as
  :func:`_slot_of_probe`) once the structure spans ≥64 shards, and the gap
  grows with the shard count.
* **Cursors stream** — ``iter_from`` consumes a short prefix of a huge
  structure while touching only the shards that prefix crosses (hard
  assert, size-independent), and a prefix read through the cursor beats
  materializing ``elements()`` by a factor that grows with n.
* **Reads are exact and free of side effects** — every cursor read matches
  the reference model and leaves the layout digest untouched (hard
  asserts).
"""

from __future__ import annotations

import random
import time

from benchmarks.conftest import QUICK, emit, expect, scaled
from repro.algorithms import ClassicalPMA
from repro.analysis.reference import ChunkedList
from repro.core import ShardedLabeler


#: Shrunk with the quick-mode n so the many-shard claims stay meaningful
#: at smoke sizes too.
SHARD_CAPACITY = 16 if QUICK else 64


def _loaded_sharded(n: int, shard_capacity: int | None = None, factory=ClassicalPMA):
    labeler = ShardedLabeler(
        lambda cap: factory(cap),
        shard_capacity=shard_capacity or SHARD_CAPACITY,
    )
    labeler.bulk_load(list(range(n)))
    return labeler


def _slot_of_probe(labeler: ShardedLabeler, element) -> int:
    """The ``O(K)`` probe loop, the foil of the routing experiment.

    Probes every shard in order (via its ``contains`` when it has one)
    until one owns the element — the behaviour ``slot_of`` had before it
    was routed, preserved verbatim so the routed path can be measured
    against it on identical structures.
    """
    offset = 0
    for shard in labeler._shards:
        has = getattr(shard, "contains", None)
        if has is not None:
            if has(element):
                return offset + shard.slot_of(element)
        else:
            try:
                return offset + shard.slot_of(element)
            except KeyError:
                pass
        offset += shard.num_slots
    raise KeyError(f"element {element!r} is not stored")


def _time(func, repeats: int = 3) -> float:
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        func()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best


def test_fence_routing_beats_probe_loop(run_once):
    n = scaled(8192)
    lookups = 2000 if not QUICK else 200

    def experiment():
        labeler = _loaded_sharded(n)
        rng = random.Random(11)
        keys = [rng.randrange(n) for _ in range(lookups)]
        expected = [_slot_of_probe(labeler, key) for key in keys]

        def routed():
            return [labeler.slot_of(key) for key in keys]

        def probed():
            return [_slot_of_probe(labeler, key) for key in keys]

        assert routed() == expected  # identical answers, before timing
        routed_elapsed = _time(routed)
        probed_elapsed = _time(probed)
        return {
            "n": n,
            "shards": labeler.shard_count,
            "lookups": lookups,
            "probe_s": round(probed_elapsed, 4),
            "route_s": round(routed_elapsed, 4),
            "speedup": round(probed_elapsed / routed_elapsed, 1),
        }

    row = run_once(experiment)
    emit("E-QUERY: fence-key routing vs O(K) probe loop", [row])
    expect(
        row["shards"] >= 64,
        f"the experiment must span >=64 shards (got {row['shards']})",
    )
    expect(
        row["speedup"] >= 10,
        f"fence routing must be >=10x the probe loop at {row['shards']} "
        f"shards (got {row['speedup']}x)",
    )


class _TouchCountingPMA(ClassicalPMA):
    """A shard that counts read touches, proving which shards a scan visits."""

    touched: set = set()

    def _iter_from(self, rank):
        type(self).touched.add(id(self))
        return super()._iter_from(rank)

    def select(self, rank):
        type(self).touched.add(id(self))
        return super().select(rank)

    def elements(self):
        type(self).touched.add(id(self))
        return super().elements()

    def slots(self):
        type(self).touched.add(id(self))
        return super().slots()


def test_cursor_prefix_touches_only_crossed_shards(run_once):
    """Streaming a short prefix must not wake the rest of the structure."""
    n = scaled(4096)

    def experiment():
        labeler = _loaded_sharded(n, factory=_TouchCountingPMA)
        assert labeler.shard_count >= 8
        start = 5
        _TouchCountingPMA.touched = set()
        cursor = labeler.cursor(start)
        got = cursor.take(8)
        touched_by_cursor = len(_TouchCountingPMA.touched)
        assert got == list(range(start - 1, start - 1 + 8))
        # An 8-element prefix from inside the first shard crosses at most
        # two shard boundaries; the other dozens of shards stay cold.
        assert touched_by_cursor <= 3, (
            f"cursor prefix touched {touched_by_cursor} shards"
        )
        return {
            "n": n,
            "shards": labeler.shard_count,
            "prefix": 8,
            "shards_touched": touched_by_cursor,
        }

    row = run_once(experiment)
    emit("E-QUERY: cursor prefix shard touches", [row])


def test_cursor_prefix_beats_materialization(run_once):
    n = scaled(65536)
    prefix = 32
    rounds = 50 if not QUICK else 5

    def experiment():
        labeler = _loaded_sharded(n)
        rng = random.Random(7)
        starts = [rng.randint(1, n - prefix) for _ in range(rounds)]

        def cursored():
            out = []
            for start in starts:
                out.append(labeler.cursor(start).take(prefix))
            return out

        def materialized():
            out = []
            for start in starts:
                out.append(list(labeler.elements())[start - 1 : start - 1 + prefix])
            return out

        assert cursored() == materialized()
        cursor_elapsed = _time(cursored, repeats=2)
        full_elapsed = _time(materialized, repeats=2)
        return {
            "n": n,
            "rounds": rounds,
            "prefix": prefix,
            "materialize_s": round(full_elapsed, 4),
            "cursor_s": round(cursor_elapsed, 4),
            "speedup": round(full_elapsed / cursor_elapsed, 1),
        }

    row = run_once(experiment)
    emit("E-QUERY: cursor range vs full materialization", [row])
    expect(
        row["speedup"] >= 10,
        f"prefix cursor reads must dwarf full materialization at n={n} "
        f"(got {row['speedup']}x)",
    )


def test_reads_match_reference_and_leave_layout_untouched(run_once):
    """Fuzzed reads vs ChunkedList, with a layout digest before/after."""
    n = scaled(2048)

    def experiment():
        rng = random.Random(23)
        labeler = ShardedLabeler(lambda cap: ClassicalPMA(cap), shard_capacity=32)
        reference = ChunkedList(block_size=32)
        for step in range(n):
            if len(reference) and rng.random() < 0.25:
                rank = rng.randint(1, len(reference))
                labeler.delete(rank)
                reference.pop(rank - 1)
            else:
                rank = rng.randint(1, len(reference) + 1)
                labeler.insert(rank, (step, rank))
                reference.insert(rank - 1, (step, rank))
            if step % 64 != 0 or not len(reference):
                continue
            digest = hash(tuple(labeler.labels().items()))
            size = len(reference)
            rank = rng.randint(1, size)
            span = min(size, rank + rng.randint(0, 40))
            assert labeler.select(rank) == reference.select(rank)
            assert (
                labeler.cursor(rank).take(span - rank + 1)
                == reference.range_ranks(rank, span)
            )
            assert labeler.count_rank_range(rank, span) == span - rank + 1
            assert hash(tuple(labeler.labels().items())) == digest, (
                "a read mutated the physical layout"
            )
        return {"operations": n, "shards": labeler.shard_count}

    row = run_once(experiment)
    emit("E-QUERY: read/reference differential", [row])
