"""Durable labeling store: WAL + snapshots + crash recovery + serving.

The paper's list-labeling structures earn their keep in a database context
only if state survives a crash: this package turns the sharded labeling
engine (:class:`~repro.core.sharded.ShardedLabeler` behind a
:class:`~repro.applications.ordered_map.PackedMemoryMap` clustered index)
into an actual store.  Four layers, bottom up:

* :mod:`repro.store.wal` — an append-only, schema-versioned JSONL
  **write-ahead log**: one CRC-stamped frame per mutation (batch ops are a
  single atomic frame), fsync barriers per the configured sync policy, and
  torn-tail detection + truncation on open;
* :mod:`repro.store.snapshot` — crash-safe **checkpoints**: the exact
  labeler state of every shard (via the ``snapshot()``/``restore()``
  hooks on :class:`~repro.core.interface.ListLabeler`) plus its values,
  one checksummed section per shard in a single data file, atomically
  renamed into place and checksum-verified on load;
* :mod:`repro.store.store` — :class:`~repro.store.store.DurableStore`:
  log-then-apply mutations, **recovery** = newest valid snapshot +
  tail-WAL replay, and **compaction** that snapshots and truncates the
  log, never past the replication floor — run by hand or, with
  ``compact_every``, by the commit that makes it due;
* :mod:`repro.store.service` — :class:`~repro.store.service.StoreService`:
  a thread-safe front-end under one FIFO lock (every call takes it once,
  and a release hands it to the longest waiter) and snapshot-consistent
  range scans;
* :mod:`repro.store.protocol` / :mod:`repro.store.server` /
  :mod:`repro.store.client` — the **networked front-end**: a
  length-prefixed JSON wire protocol over the store codec, an asyncio
  :class:`~repro.store.server.StoreServer` answering each request inline
  on its event-loop thread, one ``asyncio.Protocol`` per connection, and
  a blocking
  :class:`~repro.store.client.StoreClient` mirroring the service API;
* :mod:`repro.store.replica` — **WAL-shipping replication**:
  :class:`~repro.store.replica.Replica` bootstraps from the primary's
  newest snapshot (installed by the snapshot writer and the store, so a
  replica writes no store file itself), streams WAL frames verbatim
  (byte-identical state by construction), catches up after disconnects,
  serves read traffic, and promotes to a writable primary on failover.

Because every registered shard algorithm snapshots its *complete*
behavioural state (slot layout, RNG state, pending rebalance tasks,
hotspot counters), recovery is exact: the recovered store has the same key
order, the same composed labels, and the same per-shard physical layout as
the uninterrupted run — asserted at every WAL frame boundary by the
crash-injection differential in ``tests/test_store.py``.

Quickstart::

    from repro.store import DurableStore, StoreService

    with DurableStore("/tmp/mystore", algorithm="classical") as store:
        store.put("alice", 1)
        store.put_many([("bob", 2), ("carol", 3)])   # one atomic WAL frame
        store.compact()                              # snapshot + truncate log

    reopened = DurableStore("/tmp/mystore")          # runs recovery
    assert reopened.keys() == ["alice", "bob", "carol"]

Command line: ``python -m repro.store {snapshot,recover,verify,compact}``.
"""

from repro.store.client import ReadOnlyError, StoreClient, StoreClientError
from repro.store.factories import DEFAULT_ALGORITHM, SHARD_FACTORIES
from repro.store.protocol import ProtocolError
from repro.store.replica import Replica
from repro.store.server import ServerThread, StoreServer
from repro.store.service import FifoLock, StoreService
from repro.store.snapshot import SnapshotInfo, list_snapshots
from repro.store.store import DurableStore, RecoveryReport, StoreError, StoreLockedError
from repro.store.wal import WALError, WALTruncateReport, WriteAheadLog

__all__ = [
    "DEFAULT_ALGORITHM",
    "DurableStore",
    "FifoLock",
    "ProtocolError",
    "ReadOnlyError",
    "RecoveryReport",
    "Replica",
    "SHARD_FACTORIES",
    "ServerThread",
    "SnapshotInfo",
    "StoreClient",
    "StoreClientError",
    "StoreError",
    "StoreLockedError",
    "StoreServer",
    "StoreService",
    "WALError",
    "WALTruncateReport",
    "WriteAheadLog",
    "list_snapshots",
]
