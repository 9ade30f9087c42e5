"""Crash-injection harness: seeded op scripts, kill points, fingerprints.

Shared by the differential test wall (``tests/test_store.py``) and the
recovery benchmark (``benchmarks/bench_store.py``).  The pieces:

* :func:`make_ops` — a seeded, always-valid mixed op script (singleton
  puts/deletes plus atomic batches), one entry per WAL frame;
* :class:`ReferenceStore` — the *uninterrupted* twin: the same
  :class:`~repro.applications.ordered_map.PackedMemoryMap` the store
  wraps, driven without any WAL or snapshots;
* :func:`fingerprint` — everything recovery must reproduce byte-for-byte
  (key order, ``items()``, composed labels, per-shard physical layout);
* :class:`RecordedRun` — records a workload through a real
  :class:`~repro.store.store.DurableStore` (checkpointing on a schedule)
  and knows the byte offset of every WAL frame boundary;
* :meth:`RecordedRun.recover_at` / :func:`crash_copy` — materialize the
  exact on-disk state a crash after frame ``k`` would leave (WAL cut at
  the boundary — or mid-frame, for the torn-tail path — and only the
  checkpoints that existed by then), then run real recovery on it.
"""

from __future__ import annotations

import os
import random
import shutil
from pathlib import Path

from repro.applications.ordered_map import PackedMemoryMap
from repro.store.factories import resolve_factory
from repro.store.snapshot import SNAPSHOT_DIR_NAME, list_snapshots
from repro.store.store import (
    CONFIG_FILENAME,
    HORIZON_FILENAME,
    WAL_FILENAME,
    DurableStore,
)


def make_ops(frames: int, seed: int, *, key_space: int = 10**6) -> list[tuple]:
    """A seeded mixed op script: one entry per WAL frame.

    Singleton puts and deletes, plus atomic ``put_many`` / ``delete_many``
    batches — always valid against the evolving state, so the script can
    be replayed against any conforming target.
    """
    rng = random.Random(seed)
    model: dict = {}
    live: list[int] = []
    ops: list[tuple] = []
    for step in range(frames):
        roll = rng.random()
        if live and roll < 0.22:
            key = live.pop(rng.randrange(len(live)))
            del model[key]
            ops.append(("del", key))
            continue
        if live and roll < 0.30:
            count = min(len(live), rng.randint(2, 10))
            picked = [live.pop(rng.randrange(len(live))) for _ in range(count)]
            for key in picked:
                del model[key]
            ops.append(("del_many", sorted(picked)))
            continue
        if roll < 0.45:
            batch: dict = {}
            for _ in range(rng.randint(2, 12)):
                key = rng.randrange(key_space)
                if key not in model:
                    batch[key] = step
            if batch:
                for key, value in batch.items():
                    model[key] = value
                    live.append(key)
                ops.append(("put_many", sorted(batch.items())))
                continue
        key = rng.randrange(key_space)
        if key not in model:
            live.append(key)
        model[key] = step
        ops.append(("put", key, step))
    return ops


def logical_operations(ops: list[tuple]) -> int:
    """Number of logical key operations the script performs."""
    total = 0
    for op in ops:
        if op[0] in ("put", "del"):
            total += 1
        else:
            total += len(op[1])
    return total


class ReferenceStore:
    """Uninterrupted in-memory twin: the same map, no WAL, no snapshots."""

    def __init__(self, algorithm: str, shard_capacity: int) -> None:
        self.map = PackedMemoryMap(
            capacity=None,
            labeler_factory=resolve_factory(algorithm),
            shard_capacity=shard_capacity,
        )

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind == "put":
            self.map[op[1]] = op[2]
        elif kind == "del":
            del self.map[op[1]]
        elif kind == "put_many":
            self.map.update_many(op[1])
        elif kind == "del_many":
            self.map.delete_many(op[1])
        else:
            raise ValueError(kind)


def apply_to_store(store: DurableStore, op: tuple) -> None:
    kind = op[0]
    if kind == "put":
        store.put(op[1], op[2])
    elif kind == "del":
        store.delete(op[1])
    elif kind == "put_many":
        store.put_many(op[1])
    elif kind == "del_many":
        store.delete_many(op[1])
    else:
        raise ValueError(kind)


def fingerprint(pmm: PackedMemoryMap) -> dict:
    """Everything recovery must reproduce byte-for-byte."""
    labeler = pmm.labeler
    state = {
        "keys": list(pmm.keys()),
        "items": list(pmm.items()),
        "labels": labeler.labels(),
    }
    shards = getattr(labeler, "shards", None)
    if shards is not None:
        state["shard_layout"] = [tuple(shard.slots()) for shard in shards]
    return state


def state_digest(pmm: PackedMemoryMap) -> str:
    """Stable hex digest of :func:`fingerprint` (replication convergence).

    Two stores with equal digests hold the same keys, the same items, the
    same composed labels and the same per-shard physical layout — the
    byte-identical-state claim the replica-smoke CI job asserts without
    shipping whole fingerprints across process boundaries.
    """
    import hashlib

    from repro.store import codec

    return hashlib.sha256(
        codec.dumps(fingerprint(pmm)).encode("utf-8")
    ).hexdigest()


def record_move_log(labeler) -> list[tuple]:
    """Instrument ``labeler`` to journal every mutation's move triples.

    Wraps the four mutating entry points on the *instance* (the map layer
    resolves them through attribute lookup) and appends one
    ``(operation_kind, move_triples)`` entry per applied operation to the
    returned list — the bit-level execution trace the perf suites digest
    to prove that a change left every structural decision alone.
    """
    from repro.core.operations import move_triples

    log: list[tuple] = []
    for name in ("insert", "delete", "insert_batch", "delete_batch"):
        original = getattr(labeler, name)

        def wrapped(*args, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            for item in getattr(result, "results", [result]):
                log.append((item.operation.kind, move_triples(item.moves)))
            return result

        setattr(labeler, name, wrapped)
    return log


def move_log_digest(log: list[tuple]) -> str:
    """Stable hex digest of a :func:`record_move_log` trace."""
    import hashlib

    from repro.store import codec

    return hashlib.sha256(codec.dumps(log).encode("utf-8")).hexdigest()


def crash_copy(
    source: Path,
    destination: Path,
    *,
    wal_bytes: bytes,
    max_snapshot_lsn: int,
    newest_only: bool = False,
) -> Path:
    """Materialize the on-disk state a crash at this point would leave.

    The WAL is cut to ``wal_bytes`` and only checkpoints that existed by
    then (``lsn <= max_snapshot_lsn``) are present — a snapshot can never
    cover frames the log had not durably written.  ``newest_only`` copies
    just the newest eligible checkpoint: recovery never reads the older
    ones (they exist only as corruption fallbacks), and skipping them
    keeps exhaustive every-boundary sweeps tractable.
    """
    destination.mkdir(parents=True)
    shutil.copy(source / CONFIG_FILENAME, destination / CONFIG_FILENAME)
    horizon = source / HORIZON_FILENAME
    if horizon.exists():
        shutil.copy(horizon, destination / HORIZON_FILENAME)
    (destination / WAL_FILENAME).write_bytes(wal_bytes)
    eligible = [
        info for info in list_snapshots(source) if info.lsn <= max_snapshot_lsn
    ]
    if newest_only and eligible:
        eligible = eligible[-1:]
    for info in eligible:
        target = destination / SNAPSHOT_DIR_NAME / info.path.name
        try:
            # Snapshot files are immutable once renamed into place, so the
            # crash replica can share them via hardlinks (recovery only
            # reads them); fall back to real copies where links fail.
            shutil.copytree(info.path, target, copy_function=os.link)
        except OSError:
            shutil.rmtree(target, ignore_errors=True)
            shutil.copytree(info.path, target)
    return destination


class RecordedRun:
    """One recorded workload: the store directory plus its frame geometry."""

    def __init__(
        self,
        tmp_path: Path,
        algorithm: str,
        ops: list[tuple],
        *,
        shard_capacity: int,
        snapshot_every: int | None,
    ) -> None:
        self.directory = Path(tmp_path) / f"recorded-{algorithm}"
        self.algorithm = algorithm
        self.shard_capacity = shard_capacity
        self.ops = ops
        store = DurableStore(
            self.directory,
            algorithm=algorithm,
            shard_capacity=shard_capacity,
            sync_policy="never",
            snapshot_keep=10**6,
        )
        for index, op in enumerate(ops, start=1):
            apply_to_store(store, op)
            if snapshot_every and index % snapshot_every == 0:
                store.snapshot()
        self.final_fingerprint = fingerprint(store.map)
        store.close()
        raw = (self.directory / WAL_FILENAME).read_bytes()
        lines = raw.splitlines(keepends=True)
        assert len(lines) == len(ops)
        #: boundaries[k] = byte length of the first k frames.
        self.boundaries = [0]
        for line in lines:
            self.boundaries.append(self.boundaries[-1] + len(line))
        self.wal_bytes = raw
        self.frames = len(ops)

    def recover_at(
        self, tmp_path: Path, k: int, *, extra_bytes: bytes = b""
    ) -> DurableStore:
        """Open a store recovered from a crash after frame ``k`` (plus an
        optional torn partial frame)."""
        workdir = Path(tmp_path) / f"kill-{self.algorithm}-{k}-{len(extra_bytes)}"
        crash_copy(
            self.directory,
            workdir,
            wal_bytes=self.wal_bytes[: self.boundaries[k]] + extra_bytes,
            max_snapshot_lsn=k,
            newest_only=True,
        )
        store = DurableStore(workdir, sync_policy="never")
        store.close()  # recovery is done; release the append handle
        shutil.rmtree(workdir, ignore_errors=True)
        return store
