"""The durable labeled store: WAL + snapshots + crash recovery.

:class:`DurableStore` wraps an unbounded :class:`~repro.applications
.ordered_map.PackedMemoryMap` (a :class:`~repro.core.sharded
.ShardedLabeler` clustered index over any registered algorithm's shards)
and makes its state survive crashes:

* every mutation is framed into the :class:`~repro.store.wal
  .WriteAheadLog` **before** it touches memory (batch mutations are one
  atomic frame);
* :meth:`DurableStore.snapshot` checkpoints the exact per-shard labeler
  state (layout, RNG state, pending rebalance tasks — see the algorithms'
  ``_snapshot_extra`` hooks) plus the values, crash-safely, as one data
  file of per-shard sections (see :mod:`repro.store.snapshot`);
* opening the store runs **recovery**: newest valid snapshot, then replay
  of the WAL tail past it, after torn-tail truncation;
* :meth:`DurableStore.compact` snapshots and then truncates the log, so
  the WAL stays proportional to the write traffic since the last
  checkpoint rather than to the store's lifetime.  It never cuts past
  the replication floor, and ``compact_every`` runs it from the commit
  that makes it due: the store is the one owner of compaction;
* :func:`install_checkpoint` seeds a directory that holds no store yet
  with a checkpoint another store shipped (a replica's bootstrap), so
  that opening it is ordinary recovery.

This module, :mod:`repro.store.snapshot` and :mod:`repro.store.wal` are
the only code that writes a store's files (the crash-injection harness
aside, which copies them).

Determinism contract: recovery reproduces the *exact* labeler state (key
order, labels, per-shard layout) the uninterrupted run had after the last
durable frame — the crash-injection differential in ``tests/test_store.py``
asserts this at every frame boundary for every registered shard algorithm.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable, Iterable, Iterator

from repro import obs
from repro.applications.ordered_map import PackedMemoryMap
from repro.core.interface import ListLabeler
from repro.core.sharded import ShardedLabeler
from repro.store import snapshot as snapshot_io
from repro.store.factories import DEFAULT_ALGORITHM, resolve_factory
from repro.store.wal import WALTruncateReport, WriteAheadLog, _fsync_directory

CONFIG_SCHEMA_VERSION = 1
CONFIG_FILENAME = "store.json"
WAL_FILENAME = "wal.jsonl"
LOCK_FILENAME = "store.lock"
HORIZON_FILENAME = "horizon.json"


class StoreError(RuntimeError):
    """Configuration or integrity failure of a durable store."""


class StoreLockedError(StoreError):
    """Another live :class:`DurableStore` holds the directory.

    Unlike every other :class:`StoreError` it says nothing about what the
    directory holds, so a caller that recovers from a damaged directory
    by wiping it (a replica's restart) retries this one instead.
    """


def write_horizon(directory: str | Path, lsn: int) -> None:
    """Durably record that the WAL in ``directory`` holds no frame at or
    below ``lsn`` (see :meth:`DurableStore._read_horizon`).

    Needs no open store, so a replica's bootstrap writes its horizon the
    way compaction does.
    """
    path = Path(directory) / HORIZON_FILENAME
    _replace_file(path, json.dumps({"compacted_through": lsn}))


def _replace_file(path: Path, text: str) -> None:
    """Give ``path`` the content ``text`` atomically and durably: temp
    file, fsync, rename, directory fsync.  A power cut leaves the old
    file or the new one, never an empty one."""
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_directory(path.parent)


def install_checkpoint(directory: str | Path, lsn: int, files: dict[str, str]) -> None:
    """Seed ``directory``, which holds no store yet, with a shipped checkpoint.

    ``files`` is a :meth:`DurableStore.snapshot_archive` payload covering
    every frame up to ``lsn``.  The checkpoint is published first, then
    the horizon, so frames up to ``lsn`` are never promised without it.
    Opening a :class:`DurableStore` on the directory afterwards creates
    its config and WAL and recovers from the checkpoint.
    """
    snapshot_io.install_archive(directory, lsn, files)
    write_horizon(directory, lsn)


@dataclass
class RecoveryReport:
    """What opening a store found and did."""

    #: LSN of the snapshot recovery started from (0 = replayed from empty).
    snapshot_lsn: int
    #: Intact frames found in the log.
    wal_frames_seen: int
    #: Frames actually applied (those past the snapshot).
    frames_replayed: int
    #: Bytes dropped by torn-tail truncation (0 for a clean log).
    truncated_bytes: int
    truncation_reason: str | None
    #: Highest durable LSN after recovery.
    last_lsn: int


class DurableStore:
    """A crash-recoverable sorted key→value store.

    Parameters
    ----------
    directory:
        Home of the store (created on first open).  Layout:
        ``store.json`` (config), ``wal.jsonl`` (the log),
        ``horizon.json`` (the LSN compaction truncated through),
        ``snapshots/snapshot-<lsn>/`` (checkpoints: ``manifest.json``
        plus ``sections.jsonl``, one line per shard).
    algorithm:
        Name of the shard algorithm in :data:`repro.store.factories
        .SHARD_FACTORIES`.  Fixed at creation; a mismatch on reopen is an
        error (recovering with a different algorithm would silently build
        a different structure).
    shard_factory:
        Explicit factory overriding the registry lookup (pass the same
        callable on every open; ``algorithm`` still names it on disk).
    shard_capacity:
        Fixed capacity of every shard.
    sync_policy:
        WAL durability: ``"always"`` (fsync per frame), ``"batch"``
        (fsync on :meth:`sync`/:meth:`close`), ``"never"`` (tests).
    compact_every:
        Auto-compaction threshold: once this many frames have been
        applied past the latest checkpoint, the commit (or shipped frame)
        that applied the last of them calls :meth:`compact` (``None`` =
        manual).  That frame stays committed if the compaction fails:
        the error is kept in :attr:`last_compaction_error` and counted in
        ``store.compaction_errors``, and the next frame tries again (if
        the checkpoint was written and only the log cut failed, the frame
        that makes the count due again does).
    snapshot_keep:
        Checkpoints retained by pruning (the newest is always kept).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        algorithm: str | None = None,
        shard_factory: Callable[[int], ListLabeler] | None = None,
        shard_capacity: int | None = None,
        sync_policy: str = "always",
        compact_every: int | None = None,
        snapshot_keep: int = 2,
        registry=None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock_handle = self._acquire_directory_lock()
        try:
            self._config = self._load_or_create_config(algorithm, shard_capacity)
            self.algorithm = self._config["algorithm"]
            self.shard_capacity = self._config["shard_capacity"]
            if shard_factory is None:
                # Registry names resolve; a store created with a custom
                # factory must be reopened with that same callable (the
                # config records the name so the omission is a loud error,
                # not a silent mis-recovery).
                shard_factory = resolve_factory(self.algorithm)
            self._shard_factory = shard_factory
            self.compact_every = compact_every
            self.snapshot_keep = max(1, snapshot_keep)
            self.obs = obs.resolve(registry)
            self._obs_snapshots = self.obs.counter("store.snapshots")
            self._obs_compactions = self.obs.counter("store.compactions")
            self._obs_compaction_errors = self.obs.counter("store.compaction_errors")
            self._obs_recoveries = self.obs.counter("store.recoveries")
            self._obs_replayed = self.obs.counter("store.recovery.frames_replayed")
            self._obs_snapshot_bytes = self.obs.counter("snapshot.bytes")
            self._map = PackedMemoryMap(
                capacity=None,
                labeler_factory=shard_factory,
                shard_capacity=self.shard_capacity,
            )
            self._map.labeler.set_registry(self.obs)
            self._wal = WriteAheadLog(
                self.directory / WAL_FILENAME,
                sync_policy=sync_policy,
                registry=self.obs,
            )
            self._frames_since_snapshot = 0
            #: LSN of the last frame whose apply has returned (see
            #: :attr:`last_lsn`).
            self._last_lsn = 0
            self._last_snapshot_lsn = 0
            self._horizon = 0
            #: Report of the most recent :meth:`compact` WAL rewrite;
            #: ``None`` before the first compaction and after one whose cut
            #: did not pass the horizon, which rewrites nothing.
            self.last_truncate_report: WALTruncateReport | None = None
            #: Why the latest automatic compaction failed; ``None`` once
            #: a compaction succeeds.
            self.last_compaction_error: Exception | None = None
            #: The replication floor: a serving
            #: :class:`~repro.store.server.StoreServer` installs a callable
            #: giving the smallest LSN every connected replica has
            #: acknowledged (``None`` while none is connected), and
            #: :meth:`compact` keeps the log past it.
            self.replication_floor: Callable[[], int | None] | None = None
            self.recovery = self._recover()
        except BaseException:
            try:
                if getattr(self, "_wal", None) is not None:
                    self._wal.close()  # recovery may have opened the log
            finally:
                self._release_directory_lock()
            raise

    # ------------------------------------------------------------------
    # Single-writer guard
    # ------------------------------------------------------------------
    def _acquire_directory_lock(self):
        """One live ``DurableStore`` per directory, enforced with ``flock``.

        Two concurrent opens would interleave WAL appends with overlapping
        LSNs, and the next recovery's sequence check would truncate —
        i.e. silently destroy — acknowledged writes.  An OS advisory lock
        makes the second open fail loudly instead, and evaporates with
        the process (so a SIGKILL never leaves a stale lock behind).
        """
        path = self.directory / LOCK_FILENAME
        handle = open(path, "a+")
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX platforms
            return handle
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            handle.close()
            raise StoreLockedError(
                f"store directory {self.directory} is locked by another "
                f"live DurableStore; close it first"
            ) from None
        return handle

    def _release_directory_lock(self) -> None:
        if self._lock_handle is not None:
            self._lock_handle.close()  # closing drops the flock
            self._lock_handle = None

    # ------------------------------------------------------------------
    # Config
    # ------------------------------------------------------------------
    def _load_or_create_config(
        self, algorithm: str | None, shard_capacity: int | None
    ) -> dict:
        path = self.directory / CONFIG_FILENAME
        if path.exists():
            try:
                config = json.loads(path.read_text(encoding="utf-8"))
            except ValueError as error:  # bad JSON or bad UTF-8
                raise StoreError(
                    f"unreadable store config {path}: {error}"
                ) from None
            if not isinstance(config, dict):
                raise StoreError(f"store config {path} is not an object")
            if config.get("schema_version") != CONFIG_SCHEMA_VERSION:
                raise StoreError(
                    f"store config schema {config.get('schema_version')!r} "
                    f"unsupported (this build reads {CONFIG_SCHEMA_VERSION})"
                )
            if algorithm is not None and algorithm != config["algorithm"]:
                raise StoreError(
                    f"store was created with algorithm "
                    f"{config['algorithm']!r}; refusing to reopen as "
                    f"{algorithm!r}"
                )
            if shard_capacity is not None and shard_capacity != config["shard_capacity"]:
                raise StoreError(
                    f"store was created with shard_capacity "
                    f"{config['shard_capacity']}; refusing to reopen with "
                    f"{shard_capacity}"
                )
            return config
        config = {
            "schema_version": CONFIG_SCHEMA_VERSION,
            "algorithm": algorithm or DEFAULT_ALGORITHM,
            "shard_capacity": shard_capacity or 128,
        }
        _replace_file(path, json.dumps(config, sort_keys=True, indent=2) + "\n")
        return config

    # ------------------------------------------------------------------
    # Durable horizon (what compaction promised is recoverable)
    # ------------------------------------------------------------------
    def _read_horizon(self) -> int:
        """The LSN through which the WAL has been truncated.

        Compaction removes log frames only after a checkpoint covering
        them is durable; this record is what lets recovery *detect* — as
        a loud error instead of silent data loss — the case where that
        checkpoint later turns out corrupt and only an older one loads.
        """
        path = self.directory / HORIZON_FILENAME
        if not path.exists():
            return 0
        return int(json.loads(path.read_text()).get("compacted_through", 0))

    def _write_horizon(self, lsn: int) -> None:
        write_horizon(self.directory, lsn)
        self._horizon = lsn

    @property
    def durable_horizon(self) -> int:
        """The LSN through which the WAL has been compacted away.

        Frames at or below this LSN are recoverable only from snapshots —
        a replica whose applied LSN is below the horizon cannot catch up
        from the log and must re-bootstrap from a checkpoint.
        """
        return self._horizon

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> RecoveryReport:
        with obs.span("store.recover"):
            return self._recover_inner()

    def _recover_inner(self) -> RecoveryReport:
        with obs.span("snapshot.load"):
            info, labeler_state, entries = snapshot_io.load_newest_valid(self.directory)
        snapshot_lsn = 0
        if info is not None:
            self._map.restore_state({"labeler": labeler_state, "entries": entries})
            snapshot_lsn = info.lsn
            self._last_snapshot_lsn = info.lsn
        report = self._wal.open()
        horizon = self._horizon = self._read_horizon()
        if report.last_lsn < snapshot_lsn and horizon < snapshot_lsn:
            # The log ends before the checkpoint (recovery cut a damaged
            # frame it covers), so the checkpoint alone holds every frame
            # up to its LSN: record that before ensure_next_lsn empties
            # the log, so replicas behind it bootstrap from the checkpoint.
            self._write_horizon(snapshot_lsn)
            horizon = snapshot_lsn
        self._wal.ensure_next_lsn(snapshot_lsn + 1)
        if report.frames and report.frames[0]["lsn"] > snapshot_lsn + 1:
            raise StoreError(
                f"WAL begins at lsn {report.frames[0]['lsn']} but the newest "
                f"snapshot covers lsn {snapshot_lsn}: frames are missing"
            )
        replayed = 0
        for frame in report.frames:
            if frame["lsn"] <= snapshot_lsn:
                continue
            self._apply(frame["op"], frame)
            replayed += 1
        self._frames_since_snapshot = replayed
        self._obs_recoveries.inc()
        if replayed:
            self._obs_replayed.inc(replayed)
        last_lsn = max(report.last_lsn, snapshot_lsn)
        if last_lsn < horizon:
            # Compaction dropped frames up to `horizon` on the promise of
            # a durable checkpoint covering them; recovering to less means
            # that checkpoint is gone/corrupt and acknowledged writes
            # would silently vanish.  Refuse instead.
            raise StoreError(
                f"recovered state ends at lsn {last_lsn} but the log was "
                f"compacted through lsn {horizon}: the covering snapshot "
                f"is missing or corrupt, and replaying the truncated WAL "
                f"cannot reproduce the acknowledged writes in between"
            )
        self._wal.ensure_next_lsn(horizon + 1)
        self._last_lsn = self._wal.next_lsn - 1
        return RecoveryReport(
            snapshot_lsn=snapshot_lsn,
            wal_frames_seen=len(report.frames),
            frames_replayed=replayed,
            truncated_bytes=report.truncated_bytes,
            truncation_reason=report.truncation_reason,
            last_lsn=last_lsn,
        )

    def _apply(self, op: str, payload: dict) -> None:
        """Apply one frame to the in-memory map (live path and replay)."""
        if op == "put":
            self._map[payload["key"]] = payload["value"]
        elif op == "del":
            del self._map[payload["key"]]
        elif op == "put_many":
            self._map.update_many(payload["items"])
        elif op == "del_many":
            self._map.delete_many(payload["keys"])
        else:
            raise StoreError(f"unknown WAL op {op!r}")

    # ------------------------------------------------------------------
    # Mutations (log first, then apply)
    # ------------------------------------------------------------------
    def _commit(self, op: str, payload: dict) -> None:
        with obs.span("store.commit"):
            self._commit_inner(op, payload)

    def _commit_inner(self, op: str, payload: dict) -> None:
        offset = self._wal.tell()
        lsn = self._wal.append(op, payload)
        try:
            self._apply(op, payload)
        except BaseException:
            # The apply failed (e.g. a key that does not compare against
            # the stored ones): retract the frame, or it would poison
            # every future recovery — replay fails on it deterministically
            # and the store could never be reopened.
            self._wal.rollback_last(offset, lsn)
            raise
        self._last_lsn = lsn
        self._count_frame()

    def _count_frame(self) -> None:
        """Count an applied frame and run :meth:`compact` when
        ``compact_every`` is due.  The frame is committed, so a failing
        compaction is recorded, not raised, and a later frame retries."""
        self._frames_since_snapshot += 1
        if (
            self.compact_every is not None
            and self._frames_since_snapshot >= self.compact_every
        ):
            try:
                self.compact()
            except Exception as error:
                self.last_compaction_error = error
                self._obs_compaction_errors.inc()

    def put(self, key: Hashable, value) -> None:
        """Upsert one key (one WAL frame)."""
        self._commit("put", {"key": key, "value": value})

    __setitem__ = put

    def delete(self, key: Hashable) -> None:
        """Delete one key; ``KeyError`` (before logging) when absent."""
        if key not in self._map:
            raise KeyError(key)
        self._commit("del", {"key": key})

    __delitem__ = delete

    def put_many(self, items: Iterable[tuple[Hashable, object]]) -> int:
        """Atomic bulk upsert: one WAL frame, one merged labeler rebalance."""
        materialized = [[key, value] for key, value in items]
        if not materialized:
            return 0
        self._commit("put_many", {"items": materialized})
        return len(materialized)

    def delete_many(self, keys: Iterable[Hashable]) -> int:
        """Atomic bulk delete: every key must exist (checked before logging)."""
        targets = sorted(set(keys))
        for key in targets:
            if key not in self._map:
                raise KeyError(key)
        if not targets:
            return 0
        self._commit("del_many", {"keys": targets})
        return len(targets)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, key, default=None):
        return self._map.get(key, default)

    def __getitem__(self, key):
        return self._map[key]

    def __contains__(self, key) -> bool:
        return key in self._map

    def __len__(self) -> int:
        return len(self._map)

    def keys(self) -> list:
        return self._map.keys()

    def items(self) -> Iterator[tuple]:
        return self._map.items()

    def range(self, low=None, high=None, *, limit=None, after=None) -> Iterator[tuple]:
        """Items with ``low <= key <= high``, streamed through the labeler
        cursor; ``limit``/``after`` page the scan (see
        :meth:`repro.applications.ordered_map.PackedMemoryMap.range`)."""
        return self._map.range(low, high, limit=limit, after=after)

    def count_range(self, low, high) -> int:
        """Number of keys in ``[low, high]`` (two rank searches, no scan)."""
        return self._map.count_range(low, high)

    @property
    def map(self) -> PackedMemoryMap:
        return self._map

    @property
    def labeler(self) -> ShardedLabeler:
        return self._map.labeler

    @property
    def wal(self) -> WriteAheadLog:
        """The underlying log (replication feeders register listeners here)."""
        return self._wal

    @property
    def last_lsn(self) -> int:
        """LSN of the last frame applied to the map.

        A frame counts only once its apply has returned, so a reader that
        sees LSN ``n`` here (a replica's ``wait_caught_up(n)``, without the
        service lock) also sees frame ``n`` in the map.
        """
        return self._last_lsn

    @property
    def wal_frames_since_snapshot(self) -> int:
        return self._frames_since_snapshot

    # ------------------------------------------------------------------
    # Replication: frame shipping (primary) and shipped apply (replica)
    # ------------------------------------------------------------------
    def ship_frames(
        self, after_lsn: int, *, offset: int = 0, epoch: int | None = None
    ) -> tuple[list[tuple[int, str]], int, int]:
        """Validated raw WAL lines with ``lsn > after_lsn`` (see
        :meth:`~repro.store.wal.WriteAheadLog.read_frames`)."""
        return self._wal.read_frames(after_lsn, offset=offset, epoch=epoch)

    def apply_frame_line(self, line: str) -> int:
        """Apply one frame shipped from a primary (replica ingest path).

        The raw line is appended to this store's own WAL **verbatim**
        (after full re-validation: CRC, version, LSN contiguity) and then
        applied through the same :meth:`_apply` recovery uses — so a
        replica's durable state is, frame for frame, byte-identical to
        the primary's, and a replica restart is just ordinary recovery.
        Returns the applied frame's LSN.
        """
        offset = self._wal.tell()
        frame = self._wal.append_frame_line(line)
        lsn = frame["lsn"]
        try:
            self._apply(frame["op"], frame)
        except BaseException:
            self._wal.rollback_last(offset, lsn)
            raise
        self._last_lsn = lsn
        self._count_frame()
        return lsn

    def snapshot_archive(self) -> tuple[int, dict[str, str]]:
        """The newest checkpoint as ``(lsn, {filename: body})``.

        The replica-bootstrap payload (see
        :func:`~repro.store.snapshot.read_archive`) that
        :func:`install_checkpoint` installs on the other side.  Takes a
        fresh checkpoint first when none exists yet.
        """
        snapshots = snapshot_io.list_snapshots(self.directory)
        if not snapshots:
            self.snapshot()
            snapshots = snapshot_io.list_snapshots(self.directory)
        return snapshots[-1].lsn, snapshot_io.read_archive(snapshots[-1])

    # ------------------------------------------------------------------
    # Checkpoints and compaction
    # ------------------------------------------------------------------
    def snapshot(self) -> int:
        """Write a checkpoint covering everything logged so far.

        Returns the LSN the checkpoint covers.  The WAL is fsynced first
        (a snapshot must never be newer than the durable log, or recovery
        after a crash could resurrect operations the log lost).
        """
        with obs.span("store.snapshot"):
            self._wal.sync()
            lsn = self.last_lsn
            with obs.span("store.capture"):
                labeler_state = self._map.labeler.snapshot()
                values_by_shard = self._values_by_shard()
            with obs.span("snapshot.write"):
                info = snapshot_io.write_snapshot(
                    self.directory, lsn, labeler_state, values_by_shard
                )
            self._obs_snapshot_bytes.inc(info.bytes_written)
            snapshot_io.prune_snapshots(self.directory, keep=self.snapshot_keep)
            self._last_snapshot_lsn = lsn
            self._frames_since_snapshot = 0
            self._obs_snapshots.inc()
        return lsn

    def compact(self) -> int:
        """Snapshot, then drop the WAL prefix the snapshot made redundant.

        The durable horizon is recorded *between* the two steps: once the
        checkpoint is durable and before any frame is dropped, so a crash
        anywhere in the sequence leaves either the frames or a horizon
        that the (durable) checkpoint satisfies.

        The cut is the smaller of the checkpoint LSN and the
        :attr:`replication_floor`: frames a connected replica has not
        acknowledged stay in the log even though the checkpoint covers
        them, so compaction never steals the tail a replica is still
        streaming.  A cut at or below the current horizon would drop no
        frame, so the log is left as it is: no rewrite and no horizon
        write, and the horizon never decreases.

        The rewrite parses and re-validates only the frames it keeps, the
        log's last ``last_lsn - cut`` lines, and does not read the log
        when it keeps nothing (see
        :meth:`~repro.store.wal.WriteAheadLog.truncate_through`): the
        dropped prefix is never replayed again, so a frame rotting there
        costs nothing.  If any retained frame fails validation, the whole
        retained tail is untrusted; since the checkpoint just written
        covers every frame anyway, the escalation is to truncate the log
        *completely* — the horizon moves to the checkpoint LSN, replicas
        below it fall back to snapshot bootstrap, and — crucially — the
        log never keeps a frame a recovery would choke on, and never
        develops an LSN gap between its tail and the next live append.
        """
        with obs.span("store.compact"):
            lsn = self.snapshot()
            floor = self.replication_floor() if self.replication_floor else None
            cut = lsn if floor is None else min(lsn, floor)
            report = None
            if cut > self._horizon:
                self._write_horizon(cut)
                report = self._wal.truncate_through(cut)
                if report.suspect_reason is not None:
                    self._write_horizon(lsn)
                    full = self._wal.truncate_through(lsn)
                    full.suspect_reason = report.suspect_reason
                    full.suspect_frames = report.suspect_frames
                    full.suspect_bytes = report.suspect_bytes
                    report = full
            self.last_truncate_report = report
            self.last_compaction_error = None
            self._obs_compactions.inc()
        return lsn

    def _values_by_shard(self) -> list[list]:
        return [self._map.entries(shard.elements()) for shard in self._map.labeler.shards]

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify(self) -> dict:
        """Check every integrity invariant; returns a report dict.

        Raises on failure.  Covers: physical layout vs. logical keys,
        the sharding engine's structural invariants, sorted key order,
        and key/value bijection.
        """
        self._map.check()
        self._map.labeler.check_consistency()
        keys = self._map.keys()
        for left, right in zip(keys, keys[1:]):
            if not left < right:
                raise StoreError(f"key order violated: {left!r} !< {right!r}")
        values_keys = {key for key, _ in self._map.items()}
        if values_keys != set(keys):
            raise StoreError("value map diverged from the key sequence")
        return {
            "keys": len(keys),
            "last_lsn": self.last_lsn,
            "snapshot_lsn": self._last_snapshot_lsn,
            "wal_frames_since_snapshot": self._frames_since_snapshot,
            "shards": self._map.labeler.shard_count,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Explicit group-commit barrier for ``sync_policy="batch"``."""
        self._wal.sync()

    def close(self) -> None:
        self._wal.close()
        self._release_directory_lock()

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"DurableStore({str(self.directory)!r}, algorithm="
            f"{self.algorithm!r}, keys={len(self)}, last_lsn={self.last_lsn})"
        )
