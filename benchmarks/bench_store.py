"""E-STORE — the durable store: recovery cost and crash-injection payoff.

Three claims about the durability layer, in the paper's cost currency plus
the store's own op-framing:

* **Checkpoints amortize recovery** — recovering a store that checkpoints
  replays only the WAL tail past the newest snapshot: *strictly fewer*
  operations than the full workload (the acceptance criterion of the
  durable-store PR), and the gap widens with the checkpoint rate.
* **Recovery is exact for every registered shard algorithm** — a measured
  crash-injection differential: kill the WAL at sampled frame boundaries,
  recover, and compare key order, composed labels and per-shard physical
  layout against an uninterrupted run of the same prefix.  The benchmark
  *measures* the number of identical kill points and hard-asserts full
  equality (size-independent correctness, so it stays fatal in quick
  mode).
* **Batch framing compresses the log** — bulk ingest through atomic
  ``put_many`` frames writes an order of magnitude fewer WAL frames than
  singleton puts for the same keys, and recovery replays the batches
  through the same merged-rebalance path.
* **A checkpoint costs the same fsyncs at any shard count** — one
  compaction of a 50k-key store, split by its ``repro.obs`` spans into
  capture, encode+write and WAL truncation (wall-clock, printed only).
  Hard-asserted are the exact counts: the data file holds one section per
  shard, and the compaction makes as many fsyncs as on a one-shard store.
* **A bulk ingest costs one pass per layer** — five staggered
  ``put_many`` calls of 10k keys, timed per layer (WAL append, map
  ranking, sharded rewrites, lifts and directory, shard relayouts; best
  of 3, printed only).  Hard-asserted are the exact counts: one ranking
  call and at most one directory rebuild per batch, and no
  :class:`~repro.core.operations.Move` object built on the whole path.
"""

from __future__ import annotations

import os
import random
import shutil
from collections import Counter
from time import perf_counter_ns

from benchmarks.conftest import emit, expect, scaled
from repro import obs
from repro.algorithms.base import DenseArrayLabeler
from repro.core.operations import Move, MoveRecorder
from repro.core.sharded import ShardedLabeler
from repro.obs import SpanTracer
from repro.store.factories import EXACT_SNAPSHOT_ALGORITHMS
from repro.store.harness import (
    RecordedRun,
    ReferenceStore,
    fingerprint,
    logical_operations,
    make_ops,
)
from repro.store.snapshot import DATA_FILENAME, list_snapshots
from repro.store.store import DurableStore
from repro.store.wal import WriteAheadLog

#: Shard algorithms measured by the differential rows (every registered
#: exact-snapshot algorithm; ``corollary11`` restores via the elements
#: fallback and is covered by its own logical-contract test instead).
EXACT_ALGORITHMS = list(EXACT_SNAPSHOT_ALGORITHMS)


def test_snapshot_tail_recovery_replays_fewer_ops(run_once, tmp_path):
    """Recovery replays the tail past the snapshot, not the whole workload."""
    frames = scaled(1200)
    snapshot_every = max(10, frames // 8)

    def experiment():
        rows = []
        for label, every in (
            ("no checkpoints", None),
            (f"every {snapshot_every} frames", snapshot_every),
        ):
            directory = tmp_path / f"tail-{every}"
            store = DurableStore(
                directory, algorithm="classical", shard_capacity=64,
                sync_policy="never",
            )
            ops = make_ops(frames, seed=41)
            for index, op in enumerate(ops, start=1):
                if op[0] == "put":
                    store.put(op[1], op[2])
                elif op[0] == "del":
                    store.delete(op[1])
                elif op[0] == "put_many":
                    store.put_many(op[1])
                else:
                    store.delete_many(op[1])
                if every and index % every == 0:
                    store.compact()
            expected = fingerprint(store.map)
            store.close()
            recovered = DurableStore(directory, sync_policy="never")
            assert fingerprint(recovered.map) == expected
            rows.append(
                {
                    "checkpointing": label,
                    "workload frames": frames,
                    "logical ops": logical_operations(ops),
                    "snapshot lsn": recovered.recovery.snapshot_lsn,
                    "frames replayed": recovered.recovery.frames_replayed,
                    "replay fraction": round(
                        recovered.recovery.frames_replayed / frames, 4
                    ),
                }
            )
            recovered.close()
        return rows

    rows = run_once(experiment)
    emit("E-STORE: recovery replay vs checkpoint rate", rows)
    baseline_row, checkpointed_row = rows
    # Size-independent correctness claims stay hard in quick mode: with
    # checkpoints, recovery must replay *strictly fewer* ops than the full
    # workload (the acceptance criterion), and strictly fewer than the
    # checkpoint-free recovery.
    assert checkpointed_row["frames replayed"] < checkpointed_row["workload frames"]
    assert checkpointed_row["frames replayed"] < baseline_row["frames replayed"]
    assert baseline_row["frames replayed"] == baseline_row["workload frames"]
    expect(
        checkpointed_row["replay fraction"] <= 0.25,
        "checkpointing every n/8 frames should cut replay to <= 25% of the log",
    )


def test_crash_injection_differential_every_algorithm(run_once, tmp_path):
    """Sampled kill points recover bit-identically for every algorithm."""
    frames = scaled(96)
    snapshot_every = max(8, frames // 4)

    def experiment():
        rows = []
        for name in EXACT_ALGORITHMS:
            ops = make_ops(frames, seed=59)
            recorded = RecordedRun(
                tmp_path, name, ops,
                shard_capacity=16, snapshot_every=snapshot_every,
            )
            stride = max(1, recorded.frames // 12)
            kill_points = sorted(
                set(range(0, recorded.frames + 1, stride)) | {recorded.frames}
            )
            reference = ReferenceStore(name, 16)
            applied = 0
            identical = 0
            tail_replays = []
            for k in kill_points:
                while applied < k:
                    reference.apply(recorded.ops[applied])
                    applied += 1
                recovered = recorded.recover_at(tmp_path, k)
                assert fingerprint(recovered.map) == fingerprint(reference.map), (
                    f"{name}: crash recovery diverged at frame {k}"
                )
                identical += 1
                tail_replays.append(recovered.recovery.frames_replayed)
                recovered.close()
            rows.append(
                {
                    "algorithm": name,
                    "kill points": len(kill_points),
                    "identical recoveries": identical,
                    "max tail replay": max(tail_replays),
                    "workload frames": recorded.frames,
                }
            )
            shutil.rmtree(recorded.directory, ignore_errors=True)
        return rows

    rows = run_once(experiment)
    emit("E-STORE: crash-injection differential (sampled kill points)", rows)
    for row in rows:
        assert row["identical recoveries"] == row["kill points"]
        # Snapshot + tail replay beats replaying the whole prefix.
        assert row["max tail replay"] < row["workload frames"]


def test_batch_framing_compresses_the_wal(run_once, tmp_path):
    """Atomic batch frames: far fewer WAL records for the same keys."""
    n = scaled(2048)

    def experiment():
        rows = []
        for label, batch in (("singleton puts", 1), ("put_many(64)", 64)):
            directory = tmp_path / f"ingest-{batch}"
            store = DurableStore(
                directory, algorithm="classical", shard_capacity=64,
                sync_policy="never",
            )
            keys = list(range(n))
            if batch == 1:
                for key in keys:
                    store.put(key, key)
            else:
                for start in range(0, n, batch):
                    store.put_many(
                        [(key, key) for key in keys[start : start + batch]]
                    )
            frames = store.last_lsn
            moves = store.map.costs.total_cost
            store.close()
            recovered = DurableStore(directory, sync_policy="never")
            assert recovered.keys() == keys
            rows.append(
                {
                    "ingest": label,
                    "keys": n,
                    "wal frames": frames,
                    "total moves": moves,
                    "frames replayed on recovery": (
                        recovered.recovery.frames_replayed
                    ),
                }
            )
            recovered.close()
        return rows

    rows = run_once(experiment)
    emit("E-STORE: batch framing vs singleton logging", rows)
    singleton_row, batched_row = rows
    assert batched_row["wal frames"] * 8 <= singleton_row["wal frames"]
    expect(
        batched_row["total moves"] < singleton_row["total moves"],
        "merged batch rebalances should also move fewer elements",
    )


def _span_ms(node: dict) -> dict[str, float]:
    """Duration in ms of every span of one tree, by name."""
    found = {node["name"]: node["duration_seconds"] * 1e3}
    for child in node["children"]:
        found.update(_span_ms(child))
    return found


def test_checkpoint_layers_and_fsyncs(run_once, tmp_path, monkeypatch):
    """One compaction at 50k keys, layer by layer; fsyncs vs shard count."""
    keys = scaled(50_000)

    def compaction(name: str, count: int) -> dict:
        store = DurableStore(
            tmp_path / name, algorithm="classical", shard_capacity=128,
            sync_policy="never",
        )
        fresh = random.Random(53).sample(range(1 << 48), count)
        for start in range(0, count, 10_000):
            store.put_many(
                [(key, f"{key:012x}") for key in fresh[start : start + 10_000]]
            )
        fsyncs: list[int] = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            fsyncs.append(fd)
            real_fsync(fd)

        tracer = SpanTracer(slow_threshold_seconds=0.0, capacity=1)
        monkeypatch.setattr(os, "fsync", counting_fsync)
        previous = obs.set_tracer(tracer)
        try:
            store.compact()
        finally:
            obs.set_tracer(previous)
            monkeypatch.undo()
        (entry,) = tracer.slow_ops()
        spans = _span_ms(entry["root"])
        newest = list_snapshots(store.directory)[-1].path
        row = {
            "keys": len(store),
            "shards": store.labeler.shard_count,
            "sections": len((newest / DATA_FILENAME).read_bytes().splitlines()),
            "fsyncs": len(fsyncs),
            "capture ms": round(spans["store.capture"], 1),
            "encode+write ms": round(spans["snapshot.write"], 1),
            "wal truncate ms": round(spans["wal.truncate"], 1),
            "compact ms": round(spans["store.compact"], 1),
            "snapshot bytes": sum(path.stat().st_size for path in newest.iterdir()),
        }
        store.close()
        return row

    rows = run_once(lambda: [compaction("one-shard", 1), compaction("full", keys)])
    emit(
        "E-STORE: one compaction, layer by layer (classical shards of 128)",
        rows,
        note="times are wall-clock and machine-dependent; only the counts are asserted",
    )
    single, full = rows
    for row in rows:
        assert row["sections"] == row["shards"]
    assert single["shards"] == 1 < full["shards"]
    assert full["fsyncs"] == single["fsyncs"]


#: Layer -> the calls timed for it in ``test_bulk_ingest_layers``.  None
#: of these calls runs inside another, so the layers add up.
INGEST_LAYERS = {
    "wal append": [(WriteAheadLog, "append")],
    "map ranking": [(ShardedLabeler, "count_below_sorted")],
    "sharded rewrites": [(ShardedLabeler, "_absorb_overflowing_batch")],
    "lifts + directory": [
        (MoveRecorder, "append_shifted"),
        (ShardedLabeler, "_rebuild_directory"),
    ],
    "shard relayouts": [(DenseArrayLabeler, "_layout_window")],
}


def test_bulk_ingest_layers(run_once, tmp_path, monkeypatch):
    """Five staggered 10k-key batches, layer by layer, best of 3."""
    keys = scaled(50_000)
    chunk = -(-keys // 5)
    fresh = random.Random(7).sample(range(1 << 48), keys)
    batches = [
        [(key, f"{key:012x}") for key in fresh[start : start + chunk]]
        for start in range(0, keys, chunk)
    ]
    elapsed: Counter = Counter()
    calls: Counter = Counter()

    def timed(label, function):
        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed[label] += perf_counter_ns() - start
                calls[label] += 1

        return wrapper

    for layer, targets in INGEST_LAYERS.items():
        for owner, name in targets:
            label = f"{owner.__name__}.{name}"
            monkeypatch.setattr(owner, name, timed(label, getattr(owner, name)))
    built = [0]
    move_init = Move.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        move_init(self, *args, **kwargs)

    monkeypatch.setattr(Move, "__init__", counting_init)

    def ingest(run: int) -> dict:
        store = DurableStore(
            tmp_path / f"ingest-{run}", algorithm="classical",
            shard_capacity=128, sync_policy="never",
        )
        elapsed.clear()
        calls.clear()
        built[0] = 0
        rewriting_batches = 0
        total = 0
        for batch in batches:
            rewrites = store.labeler.rewrites
            start = perf_counter_ns()
            store.put_many(batch)
            total += perf_counter_ns() - start
            rewriting_batches += store.labeler.rewrites > rewrites
        row = {"total ms": total / 1e6}
        for layer, targets in INGEST_LAYERS.items():
            row[f"{layer} ms"] = sum(
                elapsed[f"{owner.__name__}.{name}"] for owner, name in targets
            ) / 1e6
        row.update(
            keys=len(store),
            shards=store.labeler.shard_count,
            rewrites=store.labeler.rewrites,
            frames=store.last_lsn,
            rankings=calls["ShardedLabeler.count_below_sorted"],
            rebuilds=calls["ShardedLabeler._rebuild_directory"],
            rewriting_batches=rewriting_batches,
            rewrite_calls=calls["ShardedLabeler._absorb_overflowing_batch"],
            moves_built=built[0],
        )
        store.close()
        shutil.rmtree(tmp_path / f"ingest-{run}")
        return row

    def experiment():
        runs = [ingest(run) for run in range(3)]
        best = {
            column: round(min(run[column] for run in runs), 1)
            for column in runs[0]
            if column.endswith(" ms")
        }
        counts = {
            column: value for column, value in runs[0].items()
            if not column.endswith(" ms")
        }
        for run in runs[1:]:
            assert {column: run[column] for column in counts} == counts
        return [{**counts, **best}]

    rows = run_once(experiment)
    emit(
        "E-STORE: bulk ingest of 5 staggered batches, layer by layer "
        "(classical shards of 128, best of 3)",
        rows,
        note="times are wall-clock and machine-dependent; only the counts are asserted",
    )
    (row,) = rows
    assert row["keys"] == keys
    assert row["frames"] == len(batches)
    assert row["rankings"] == len(batches)
    assert row["rewrite_calls"] == row["rewrites"] > 0
    # One directory rebuild per batch that rewrote a region, however many
    # regions it rewrote.
    assert row["rebuilds"] == row["rewriting_batches"] <= len(batches)
    expect(row["rewrites"] > len(batches), "staggered batches overflow many shards")
    assert row["moves_built"] == 0
