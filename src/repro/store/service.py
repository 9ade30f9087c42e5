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
after it, never interleaved into it.  Both also support **pagination**
(``range_scan(..., limit=, after=)``, :meth:`StoreService.scan_pages`,
``snapshot_items(page_size=...)``): the lock is then held per page and
released between pages, so a long scan does not pin writers out for the
whole store — each page is individually consistent and the cursor key
defines the resumption point.

**Mutation latency tracking.**  Constructed with ``track_latency=True``,
the service stamps every mutation (the stamp is taken before the lock, so
queueing is part of the measured time) into a
:class:`~repro.core.cost.CostTracker` — per-operation move-cost and
wall-clock percentiles via :meth:`StoreService.latency_statistics`, with
batches weight-expanded exactly like the workload runner's.  The clock is
injectable for deterministic tests.

**Background compaction.**  :meth:`StoreService.start_compactor` runs
``compact()`` on a daemon thread whenever the WAL grows past a threshold;
the compaction itself takes the lock, so it is just another (heavyweight)
writer as far as correctness is concerned.

**Not reentrant.**  No service method calls another while holding the
lock: the commit listeners run under it and must not call back into the
service (the server's hops to its loop with ``call_soon_threadsafe``), and
the compaction retainer reads a copy of the replica table.

The multi-threaded driver in ``tests/test_store.py`` hammers one service
with interleaved readers, writers and a compactor and asserts that every
scan is sorted and consistent, every read returns a value that was current
at some point, and the final durable state equals the writers' merged
effect.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Hashable, Iterable

from repro import obs
from repro.core.cost import CostTracker
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

    def __init__(
        self,
        store: DurableStore,
        *,
        track_latency: bool = False,
        clock: Callable[[], float] | None = None,
        registry=None,
    ) -> None:
        self._store = store
        self._lock = FifoLock()
        self._compactor: threading.Thread | None = None
        self._compactor_stop = threading.Event()
        self._compactor_error: BaseException | None = None
        self._latency = CostTracker() if track_latency else None
        self._clock = clock if clock is not None else time.perf_counter
        self._retainer: Callable[[], int | None] | None = None
        # The service inherits the store's registry unless given its own,
        # so one injection at the DurableStore covers the whole stack.
        if registry is None:
            registry = getattr(store, "obs", None)
        self._registry = obs.resolve(registry)
        self._obs_enabled = self._registry.enabled
        self._obs_commands: dict[str, object] = {}
        self._obs_lock_wait = self._registry.histogram("service.lock_wait_seconds")
        self._obs_lock_hold = self._registry.histogram("service.lock_hold_seconds")
        self._obs_compactor_alive = self._registry.gauge("service.compactor_alive")
        self._obs_compactor_errors = self._registry.counter(
            "service.compactor_errors"
        )

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
        now = self._clock()
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
        started = self._clock() if self._obs_enabled else 0.0
        with self._lock:
            value = self._store.get(key, default)
        if self._obs_enabled:
            self._observe_command("get", started)
        return value

    def contains(self, key) -> bool:
        started = self._clock() if self._obs_enabled else 0.0
        with self._lock:
            found = key in self._store
        if self._obs_enabled:
            self._observe_command("contains", started)
        return found

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def _mutation_stamp(self) -> float:
        """Pre-lock timestamp; 0.0 when nothing will consume it."""
        if self._latency is not None or self._obs_enabled:
            return self._clock()
        return 0.0

    def put(self, key, value) -> None:
        started = self._mutation_stamp()
        with obs.span("service.put"):
            with self._lock:
                acquired = self._clock() if self._obs_enabled else None
                self._mutate(lambda: self._store.put(key, value), started, 1)
                if self._obs_enabled:
                    self._observe_command("put", started, acquired)

    def delete(self, key) -> None:
        started = self._mutation_stamp()
        with obs.span("service.delete"):
            with self._lock:
                acquired = self._clock() if self._obs_enabled else None
                self._mutate(lambda: self._store.delete(key), started, 1)
                if self._obs_enabled:
                    self._observe_command("delete", started, acquired)

    def put_many(self, items: Iterable[tuple[Hashable, object]]) -> int:
        materialized = list(items)
        started = self._mutation_stamp()
        with obs.span("service.put_many"):
            with self._lock:
                acquired = self._clock() if self._obs_enabled else None
                try:
                    return self._mutate(
                        lambda: self._store.put_many(materialized), started, None
                    )
                finally:
                    if self._obs_enabled:
                        self._observe_command("put_many", started, acquired)

    def delete_many(self, keys: Iterable[Hashable]) -> int:
        materialized = list(keys)
        started = self._mutation_stamp()
        with obs.span("service.delete_many"):
            with self._lock:
                acquired = self._clock() if self._obs_enabled else None
                try:
                    return self._mutate(
                        lambda: self._store.delete_many(materialized), started, None
                    )
                finally:
                    if self._obs_enabled:
                        self._observe_command("delete_many", started, acquired)

    def _mutate(self, action, started: float, operations: int | None):
        """Run one mutation, recording moves + latency when tracking is on.

        ``started`` was stamped *before* the lock was taken, so queueing
        behind other calls counts toward the observed latency — the
        client-visible number, not just the structure's own work.
        ``operations=None`` weights the event by the mutation's returned
        count (the batch paths).

        A batch that applied **zero** operations (``delete_many([])``,
        ``put_many`` of nothing) still happened and still held the lock
        for a measurable time: it is recorded as a weight-0 event, so the
        event-level latency percentiles see the stall while the
        per-operation views stay untouched — p999 cannot hide a no-op
        stall just because nothing was applied.
        """
        if self._latency is None:
            return action()
        before = self._store.map.costs.total_cost
        result = action()
        elapsed = max(0.0, self._clock() - started)
        weight = operations if operations is not None else int(result)
        self._latency.record_batch(
            self._store.map.costs.total_cost - before,
            weight,
            latency=elapsed,
        )
        return result

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
        started = self._clock() if self._obs_enabled else 0.0
        with self._lock:
            page = list(self._store.range(low, high, limit=limit, after=after))
        if self._obs_enabled:
            self._observe_command("range_scan", started)
        return page

    def count_range(self, low, high) -> int:
        """Number of keys in ``[low, high]`` (rank arithmetic, no scan)."""
        started = self._clock() if self._obs_enabled else 0.0
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

    def snapshot_items(self, page_size: int | None = None) -> list[tuple]:
        """Every item of the store.

        With ``page_size=None`` (the default) the whole view materializes
        under one lock hold — a consistent point-in-time snapshot.
        Passing a ``page_size`` materializes it chunk by chunk through
        :meth:`scan_pages` instead: each chunk is consistent and writers
        run between chunks, trading the single-instant guarantee for not
        blocking the write path on huge stores.
        """
        if page_size is None:
            with self._lock:
                return list(self._store.items())
        items: list[tuple] = []
        for page in self.scan_pages(page_size=page_size):
            items.extend(page)
        return items

    def size(self) -> int:
        with self._lock:
            return len(self._store)

    # ------------------------------------------------------------------
    # Mutation latency statistics (``track_latency=True`` services)
    # ------------------------------------------------------------------
    @property
    def mutation_costs(self) -> CostTracker | None:
        """The mutation tracker, or ``None`` when tracking is off."""
        return self._latency

    def latency_statistics(self) -> dict[str, float]:
        """Move-cost and wall-clock percentiles of the tracked mutations.

        Empty when the service was built without ``track_latency=True`` or
        no mutation has been recorded yet.  Batches are weight-expanded:
        ``p999`` is a per-operation number on the same scale for singleton
        and ``put_many`` traffic.  Zero-applied batches carry no
        operations but still count as events, so the event-level keys
        (``events``, ``latency_event_p999``, ``latency_max``) expose
        no-op stalls the per-operation percentiles cannot see.
        """
        if self._latency is None or not self._latency.events:
            return {}
        stats = {
            "operations": float(self._latency.operations),
            "events": float(self._latency.events),
            "total_moves": float(self._latency.total_cost),
            "p50": self._latency.percentile(0.50),
            "p99": self._latency.percentile(0.99),
            "p999": self._latency.percentile(0.999),
        }
        # latency_summary() is the single naming point for latency keys:
        # canonical per-operation (latency_p*) and per-event
        # (latency_event_*) names plus the historical aliases.
        stats.update(self._latency.latency_summary())
        return stats

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def snapshot(self) -> int:
        with self._lock:
            return self._store.snapshot()

    def compact(self) -> int:
        with self._lock:
            retain = self._retainer() if self._retainer is not None else None
            return self._store.compact(retain_after=retain)

    def verify(self) -> dict:
        with self._lock:
            return self._store.verify()

    def shard_statistics(self) -> dict[str, float]:
        """Point-in-time labeler shard statistics.

        Empty for labelers that do not expose
        :meth:`~repro.core.sharded.ShardedLabeler.shard_statistics`.
        """
        with self._lock:
            stats = getattr(self._store.labeler, "shard_statistics", None)
            return dict(stats()) if callable(stats) else {}

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

    def set_compaction_retainer(
        self, retainer: Callable[[], int | None] | None
    ) -> None:
        """Install the replication server's retention floor.

        ``retainer()`` returns the smallest LSN acknowledged by every
        connected replica (or ``None`` for no constraint); ``compact``
        keeps frames past it so a live replica's catch-up stream never
        loses its tail to compaction.  Replicas that are *not* connected
        do not hold the log hostage — they re-bootstrap from a snapshot.
        """
        self._retainer = retainer

    def add_commit_listener(self, listener: Callable[[int], None]) -> None:
        """Call ``listener(lsn)`` after every durable WAL append."""
        self._store.wal.add_listener(listener)

    def remove_commit_listener(self, listener: Callable[[int], None]) -> None:
        self._store.wal.remove_listener(listener)

    # ------------------------------------------------------------------
    # Background compaction
    # ------------------------------------------------------------------
    def start_compactor(
        self,
        *,
        wal_frame_threshold: int = 1024,
        poll_seconds: float = 0.05,
        on_compact: Callable[[int], None] | None = None,
        on_error: Callable[[BaseException], None] | None = None,
    ) -> None:
        """Run compaction on a daemon thread when the WAL grows too long.

        The loop survives failing iterations: an exception from
        ``compact()`` or the ``on_compact`` callback is caught per poll,
        stored (:attr:`last_compactor_error`), reported through the
        ``on_error`` hook, and the thread keeps polling — a one-off
        failure (a full disk that recovers, a flaky callback) must not
        silently kill the compactor and let the WAL grow without bound.
        :attr:`compactor_alive` says whether the thread is still running.
        """
        if self._compactor is not None:
            raise RuntimeError("compactor already running")
        self._compactor_stop.clear()
        self._compactor_error = None

        def loop() -> None:
            self._obs_compactor_alive.set(1)
            try:
                while not self._compactor_stop.wait(poll_seconds):
                    try:
                        if (
                            self._store.wal_frames_since_snapshot
                            >= wal_frame_threshold
                        ):
                            lsn = self.compact()
                            if on_compact is not None:
                                on_compact(lsn)
                    except Exception as error:
                        self._compactor_error = error
                        self._obs_compactor_errors.inc()
                        if on_error is not None:
                            try:
                                on_error(error)
                            except Exception:
                                # A broken error hook must not kill the loop
                                # the hook exists to keep observable.
                                pass
            finally:
                self._obs_compactor_alive.set(0)

        self._compactor = threading.Thread(
            target=loop, name="repro-store-compactor", daemon=True
        )
        self._compactor.start()

    @property
    def compactor_alive(self) -> bool:
        """Whether the background compactor thread is currently running."""
        return self._compactor is not None and self._compactor.is_alive()

    @property
    def last_compactor_error(self) -> BaseException | None:
        """The most recent exception a compactor iteration swallowed."""
        return self._compactor_error

    def stop_compactor(self) -> None:
        if self._compactor is not None:
            self._compactor_stop.set()
            self._compactor.join()
            self._compactor = None

    def close(self) -> None:
        self.stop_compactor()
        with self._lock:
            self._store.close()
