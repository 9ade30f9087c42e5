"""E-SHARD — the sharding engine: unbounded capacity at bounded local cost.

Two claims, both beyond what any monolithic structure in this library can
do, and one memory account:

* **Scale** — a :class:`~repro.core.sharded.ShardedLabeler` over classical
  PMA shards absorbs ``n ≥ 8×`` a single shard's capacity (here 64×),
  paying only local per-shard rebalances plus the directory's split/merge
  traffic, while a monolithic classical PMA of the same total size pays
  array-wide cascades — and simply cannot be built without knowing ``n``
  up front.
* **Batching** — the per-shard sub-batch execution composes with the PR 1
  batch engine: on bulk loads the batched sharded runs land far below the
  singleton sharded runs in total element moves.
* **Memory** — bytes per key of an unbounded ``PackedMemoryMap`` over
  classical shards, in total (``tracemalloc``) and per layer; nothing in
  the engine is indexed per key (hard assert, size-independent).
"""

from __future__ import annotations

import gc
import random
import sys
import tracemalloc

from benchmarks.conftest import QUICK, emit, expect, scaled
from repro.algorithms import ClassicalPMA
from repro.analysis import run_workload
from repro.applications.ordered_map import PackedMemoryMap
from repro.core import ShardedLabeler
from repro.store.factories import SHARD_FACTORIES
from repro.workloads import RandomWorkload
from repro.workloads.bulk import BulkLoadWorkload

#: Shrunk with the quick-mode n so the n ≥ 8× shard-capacity claim stays
#: meaningful at smoke sizes too.
SHARD_CAPACITY = 16 if QUICK else 64


def _sharded():
    return ShardedLabeler(
        lambda cap: ClassicalPMA(cap), shard_capacity=SHARD_CAPACITY
    )


def test_sharded_scales_past_any_single_shard(run_once):
    sizes = sorted({scaled(n) for n in (512, 1024, 2048, 4096)})

    def experiment():
        rows = []
        for n in sizes:
            sharded = _sharded()
            run = run_workload(sharded, RandomWorkload(n, n, seed=17))
            monolithic = run_workload(
                ClassicalPMA(n), RandomWorkload(n, n, seed=17)
            )
            summary = run.summary()
            rows.append(
                {
                    "n": n,
                    "n / shard_capacity": round(n / SHARD_CAPACITY, 1),
                    "sharded amortized": run.amortized_cost,
                    "monolithic amortized": monolithic.amortized_cost,
                    "shards": int(summary["shards"]),
                    "splits": int(summary["splits"]),
                    "restructure_moves": int(summary["restructure_moves"]),
                }
            )
        return rows

    rows = run_once(experiment)
    emit(
        "E-SHARD: sharded (classical shards of %d) vs monolithic classical PMA,"
        " uniform random" % SHARD_CAPACITY,
        rows,
        note="Expected shape: the sharded amortized cost stays flat as n "
        "grows (every operation is local to one ~%d-element shard) while "
        "the monolithic cost keeps growing with log² n.  The monolithic "
        "structure also needs n declared up front — the sharded engine "
        "does not." % SHARD_CAPACITY,
    )
    # Unbounded capacity: the largest run must dwarf one shard.
    largest = rows[-1]
    assert largest["n"] >= 8 * SHARD_CAPACITY
    assert largest["shards"] >= largest["n"] // SHARD_CAPACITY
    expect(
        rows[-1]["sharded amortized"] < rows[-1]["monolithic amortized"],
        "local shard rebalances should beat array-wide cascades at scale",
    )
    # Flatness: sharded cost must grow slower than the monolithic cost.
    sharded_growth = rows[-1]["sharded amortized"] / max(rows[0]["sharded amortized"], 1e-9)
    monolithic_growth = rows[-1]["monolithic amortized"] / max(
        rows[0]["monolithic amortized"], 1e-9
    )
    expect(
        sharded_growth < monolithic_growth,
        "sharded amortized cost should flatten relative to the monolithic curve",
    )


def test_batched_bulk_load_beats_singleton_on_sharded(run_once):
    n = scaled(4096)

    def experiment():
        singleton = run_workload(
            _sharded(), BulkLoadWorkload(n, batch_size=64, seed=23)
        )
        rows = [
            {
                "execution": "singleton",
                "total_moves": singleton.total_cost,
                "amortized": singleton.amortized_cost,
                "splits": singleton.tracker.structure_statistics().get("splits", 0),
            }
        ]
        for batch_size in (16, 64, 256):
            batched = run_workload(
                _sharded(),
                BulkLoadWorkload(n, batch_size=64, seed=23),
                batch_size=batch_size,
            )
            assert batched.final_keys == singleton.final_keys
            rows.append(
                {
                    "execution": f"batched({batch_size})",
                    "total_moves": batched.total_cost,
                    "amortized": batched.amortized_cost,
                    "splits": batched.tracker.structure_statistics().get("splits", 0),
                }
            )
        return rows

    rows = run_once(experiment)
    emit(
        "E-SHARD-BATCH: bulk-load onto the sharded engine, n = %d "
        "(%d× one shard's capacity), total element moves" % (n, n // SHARD_CAPACITY),
        rows,
        note="Batches are partitioned through the shard directory and each "
        "sub-batch is absorbed with one merged per-shard rebalance.",
    )
    singleton_total = rows[0]["total_moves"]
    for row in rows[1:]:
        # This is the acceptance claim of the sharding engine and it holds
        # at any size: one merged rebalance per shard always beats one
        # cascade per element.
        assert row["total_moves"] < singleton_total, (
            f"{row['execution']} should move fewer elements than singleton "
            "execution on bulk loads"
        )


def _containers(*owners):
    """The list, tuple, dict and set attributes of ``owners``."""
    for owner in owners:
        for value in vars(owner).values():
            if isinstance(value, (list, tuple, dict, set, frozenset)):
                yield value


def _memory_by_layer(n: int, batches: int = 10) -> dict[str, object]:
    """Load ``n`` shuffled int keys into an unbounded map over classical
    shards of 128, in ``batches`` ``update_many`` calls, and account the
    bytes it holds per key.

    ``total`` is what ``tracemalloc`` sees the map allocate and keep (the
    keys and the batches exist before tracing starts, and every value is
    ``None``).  The layers are the sizes of their containers:
    the map's value dict, the engine's own containers (its directory
    included), the shards' element → slot dicts, their occupancy bitmasks
    and their slot lists.  ``other`` is the rest of the total: the shard
    objects and their attribute dicts, and the ints the containers hold.
    """
    keys = list(range(n))
    random.Random(5).shuffle(keys)
    step = max(1, n // batches)
    chunks = [
        [(key, None) for key in keys[start : start + step]]
        for start in range(0, n, step)
    ]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mapping = PackedMemoryMap(
            None, SHARD_FACTORIES["classical"], shard_capacity=128
        )
        for chunk in chunks:
            mapping.update_many(chunk)
        gc.collect()
        total = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    engine = mapping.labeler
    shards = engine.shards
    size = sys.getsizeof
    layers = {
        "map values": size(mapping._values),
        "engine": sum(map(size, _containers(engine, engine._directory))),
        "shard elem->slot": sum(size(shard._position) for shard in shards),
        "occupancy bitmasks": sum(size(shard._occupied) for shard in shards),
        "slot lists": sum(size(shard._slots) for shard in shards),
    }
    row: dict[str, object] = {
        "n": n,
        "shards": engine.shard_count,
        "total B/key": round(total / n, 1),
    }
    row.update({f"{name} B/key": round(held / n, 1) for name, held in layers.items()})
    row["other B/key"] = round((total - sum(layers.values())) / n, 1)
    row["largest engine container"] = max(
        map(len, _containers(engine, engine._directory))
    )
    return row


def test_bytes_per_key_by_layer(run_once):
    n = scaled(100_000)
    row = run_once(lambda: _memory_by_layer(n))
    emit(
        "E-SHARD-MEMORY: bytes per key, PackedMemoryMap over classical shards "
        "of 128, %d shuffled int keys in 10 update_many batches" % n,
        [row],
        note="A dict of the same items takes about 52 B per key.  The shards' "
        "element -> slot dicts are the per-key index left below the engine; "
        "a shard's occupancy is one int bitmask.",
    )
    expect(
        row["total B/key"] <= 150,
        f"the map holds {row['total B/key']} B per key, above the 150 B bound",
    )
    # Size-independent: the fences and the size tree are the engine's
    # whole directory, so no engine container grows with the key count.
    assert row["largest engine container"] <= row["shards"] + 1, row
