"""Thread-safe front-end for the durable store.

:class:`StoreService` serves a :class:`~repro.store.store.DurableStore`
under **one FIFO lock** (:class:`FifoLock`).  Every service call takes it
exactly once, reads and writes alike: the labeler, the sorted key
sequence and the WAL are only ever touched by the lock's holder, so no
call observes a half-applied mutation (a split or merge rewrites the
labeler's directory and shard layout in place).

**Why one fair lock.**  The networked server calls the service on its one
event-loop thread, and under the GIL two readers cannot overlap anyway, so
a shared read mode buys nothing on the traffic the store serves.  What
matters is fairness: a release hands the lock to the longest waiter, so a
thread that writes back to back queues behind a waiting GET instead of
re-taking the lock ahead of it — the wait of any call is bounded by the
calls queued in front of it, not by a writer's whole run.

**Snapshot-consistent scans, paginated.**  :meth:`StoreService.range_scan`
and :meth:`StoreService.snapshot_items` materialize their result while
holding the lock: the returned list is an immutable point-in-time view —
concurrent writers are serialized either entirely before or entirely
after it, never interleaved into it.  Scans also **paginate**
(``range_scan(..., limit=, after=)``, :meth:`StoreService.scan_pages`):
the lock is then held per page and released between pages, so a long
scan does not pin writers out for the whole store — each page is
individually consistent and the cursor key defines the resumption point.

**One latency pipeline.**  With a live :mod:`repro.obs` registry, every
call is timed into the ``service.latency.<command>`` histogram from a
stamp taken before the lock, so queueing is part of the measured time,
and the lock's wait and hold are split into their own histograms.  A
mutation is observed whether it applies, applies nothing or raises, so
no call can hide from the tail.  The moves a mutation makes are counted
by the map (``store.map.costs``), not here.

**Compaction.**  The store owns it: with ``compact_every`` set, the
commit that makes it due compacts before it returns, so under the lock a
compaction is just a heavyweight write.  :meth:`StoreService.compact` is
the lock around a manual one.

**Not reentrant.**  No service method calls another while holding the
lock: the commit listeners run under it and must not call back into the
service (the server's hops to its loop with ``call_soon_threadsafe``), and
the replication floor a compaction reads is a copy of the server's
replica table.

The multi-threaded driver in ``tests/test_store.py`` hammers one service
with interleaved readers and writers whose commits compact inline, and
asserts that every scan is sorted and consistent, every read returns a
value that was current at some point, and the final durable state equals
the writers' merged effect.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Hashable, Iterable

from repro import obs
from repro.store.store import DurableStore


class FifoLock:
    """A non-reentrant mutual-exclusion lock granted in arrival order.

    Each blocked thread waits on its own gate (a held
    :class:`threading.Lock`) queued in arrival order.  A release with
    waiters opens the oldest gate and hands the lock over without ever
    marking it free, so a releasing thread that re-acquires at once queues
    behind that waiter — the FIFO hand-off of queue locks (Mellor-Crummey
    and Scott, 1991).  A plain :class:`threading.Lock` lets the releasing
    thread win the race back and can starve a waiter for a writer's
    whole run.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()  # guards _held and _waiters
        self._held = False
        self._waiters: deque[threading.Lock] = deque()

    def acquire(self) -> None:
        with self._mutex:
            if not self._held:
                self._held = True
                return
            gate = threading.Lock()
            gate.acquire()
            self._waiters.append(gate)
        try:
            gate.acquire()  # opened by the release that hands us the lock
        except BaseException:
            with self._mutex:
                if gate in self._waiters:  # still queued: just leave
                    self._waiters.remove(gate)
                    raise
            self.release()  # the hand-off landed anyway: pass it on
            raise

    def release(self) -> None:
        with self._mutex:
            if self._waiters:
                self._waiters.popleft().release()
            else:
                self._held = False

    def __enter__(self) -> None:
        self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


class StoreService:
    """Thread-safe durable-store server under one FIFO lock."""

    def __init__(self, store: DurableStore, *, registry=None) -> None:
        self._store = store
        self._lock = FifoLock()
        # The service inherits the store's registry unless given its own,
        # so one injection at the DurableStore covers the whole stack.
        if registry is None:
            registry = getattr(store, "obs", None)
        self._registry = obs.resolve(registry)
        self._obs_enabled = self._registry.enabled
        self._obs_commands: dict[str, object] = {}
        self._obs_lock_wait = self._registry.histogram("service.lock_wait_seconds")
        self._obs_lock_hold = self._registry.histogram("service.lock_hold_seconds")

    @property
    def registry(self):
        """The observability registry this service records into."""
        return self._registry

    def _command_histogram(self, command: str):
        histogram = self._obs_commands.get(command)
        if histogram is None:
            histogram = self._registry.histogram(f"service.latency.{command}")
            self._obs_commands[command] = histogram
        return histogram

    def _observe_command(
        self, command: str, started: float, acquired: float | None = None
    ) -> None:
        """Record one command's latency (and lock wait vs hold split).

        ``started`` was stamped before the lock was touched, ``acquired``
        right after it was held — so wait is pure queueing and hold is
        pure work, and their sum is the client-visible latency the
        per-command histogram sees.
        """
        now = time.perf_counter()
        self._command_histogram(command).observe(max(0.0, now - started))
        if acquired is not None:
            self._obs_lock_wait.observe(max(0.0, acquired - started))
            self._obs_lock_hold.observe(max(0.0, now - acquired))

    # ------------------------------------------------------------------
    @property
    def store(self) -> DurableStore:
        return self._store

    # ------------------------------------------------------------------
    # Point reads
    # ------------------------------------------------------------------
    # A point read routes through the labeler's rank directory and shard
    # layout, which a concurrent split or merge rewrites in place, so it
    # takes the lock like any other call.
    def get(self, key, default=None):
        started = time.perf_counter() if self._obs_enabled else 0.0
        with self._lock:
            value = self._store.get(key, default)
        if self._obs_enabled:
            self._observe_command("get", started)
        return value

    def contains(self, key) -> bool:
        started = time.perf_counter() if self._obs_enabled else 0.0
        with self._lock:
            found = key in self._store
        if self._obs_enabled:
            self._observe_command("contains", started)
        return found

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def _run_mutation(self, command: str, action):
        """Run one mutation under the lock, observing it even if it raises."""
        started = time.perf_counter() if self._obs_enabled else 0.0
        with obs.span("service." + command):
            with self._lock:
                acquired = time.perf_counter() if self._obs_enabled else None
                try:
                    return action()
                finally:
                    if self._obs_enabled:
                        self._observe_command(command, started, acquired)

    def put(self, key, value) -> None:
        self._run_mutation("put", lambda: self._store.put(key, value))

    def delete(self, key) -> None:
        self._run_mutation("delete", lambda: self._store.delete(key))

    def put_many(self, items: Iterable[tuple[Hashable, object]]) -> int:
        materialized = list(items)
        return self._run_mutation(
            "put_many", lambda: self._store.put_many(materialized)
        )

    def delete_many(self, keys: Iterable[Hashable]) -> int:
        materialized = list(keys)
        return self._run_mutation(
            "delete_many", lambda: self._store.delete_many(materialized)
        )

    # ------------------------------------------------------------------
    # Scans: the lock is held per *page* when paginating
    # ------------------------------------------------------------------
    def range_scan(self, low=None, high=None, *, limit=None, after=None) -> list[tuple]:
        """``(key, value)`` pairs with ``low <= key <= high``, one instant.

        Without ``limit`` this is the full snapshot-consistent scan it has
        always been.  With ``limit`` it returns one *page* (``after``
        resumes strictly past a key), and the lock is held only
        while that page materializes — the unit of writer exclusion is a
        page, not the whole interval.
        """
        started = time.perf_counter() if self._obs_enabled else 0.0
        with self._lock:
            page = list(self._store.range(low, high, limit=limit, after=after))
        if self._obs_enabled:
            self._observe_command("range_scan", started)
        return page

    def count_range(self, low, high) -> int:
        """Number of keys in ``[low, high]`` (rank arithmetic, no scan)."""
        started = time.perf_counter() if self._obs_enabled else 0.0
        with self._lock:
            count = self._store.count_range(low, high)
        if self._obs_enabled:
            self._observe_command("count_range", started)
        return count

    def scan_pages(self, low=None, high=None, *, page_size: int = 256):
        """Yield the interval as pages, releasing the lock between pages.

        Each page is individually snapshot-consistent (its read of the
        store is serialized against writers), but writers interleave
        *between* pages, so a long scan no longer pins them out for the
        whole store: the cursor key makes the resumption well-defined —
        keys inserted behind the cursor are skipped, keys ahead of it are
        seen — which is the standard paginated-scan contract.
        """
        if page_size < 1:
            raise ValueError("page_size must be positive")
        after = None
        while True:
            page = self.range_scan(low, high, limit=page_size, after=after)
            if not page:
                return
            yield page
            after = page[-1][0]

    def snapshot_items(self) -> list[tuple]:
        """Every item of the store, under one lock hold — a consistent
        point-in-time snapshot (:meth:`scan_pages` is the paginated read)."""
        with self._lock:
            return list(self._store.items())

    def size(self) -> int:
        with self._lock:
            return len(self._store)

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def snapshot(self) -> int:
        with self._lock:
            return self._store.snapshot()

    def compact(self) -> int:
        with self._lock:
            return self._store.compact()

    def verify(self) -> dict:
        with self._lock:
            return self._store.verify()

    def shard_statistics(self) -> dict[str, float]:
        """Point-in-time :meth:`~repro.core.sharded.ShardedLabeler
        .shard_statistics` of the store's labeler."""
        with self._lock:
            return self._store.labeler.shard_statistics()

    # ------------------------------------------------------------------
    # Replication hooks (the networked server builds on these)
    # ------------------------------------------------------------------
    @property
    def durable_horizon(self) -> int:
        """The LSN below which frames exist only in snapshots."""
        with self._lock:
            return self._store.durable_horizon

    def ship_frames(
        self, after_lsn: int, *, offset: int = 0, epoch: int | None = None
    ) -> tuple[list[tuple[int, str]], int, int]:
        """Thread-safe view of the live frame stream for replica feeders.

        Holds the lock, so shipped frames are always a durable prefix —
        never a mid-mutation torn read.
        """
        with self._lock:
            return self._store.ship_frames(after_lsn, offset=offset, epoch=epoch)

    def apply_frame_line(self, line: str) -> int:
        """Apply one shipped frame (replica ingest) under the lock."""
        with self._lock:
            return self._store.apply_frame_line(line)

    def snapshot_archive(self) -> tuple[int, dict[str, str]]:
        """The newest checkpoint's files, for replica bootstrap.

        Holds the lock: when no checkpoint exists one is written first,
        and the returned files are read while no writer can prune them
        from under the reader.
        """
        with self._lock:
            return self._store.snapshot_archive()

    def add_commit_listener(self, listener: Callable[[int], None]) -> None:
        """Call ``listener(lsn)`` after every durable WAL append."""
        self._store.wal.add_listener(listener)

    def remove_commit_listener(self, listener: Callable[[int], None]) -> None:
        self._store.wal.remove_listener(listener)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._store.close()
