"""E-SERVER — the networked store: concurrent serving and replication.

Three claims about the networked layer, measured over real sockets:

* **Concurrent clients merge exactly** — ≥4 clients with disjoint key
  ranges hammer one served store at once; because disjoint mutations
  commute, the merged final state is seed-deterministic and must equal
  the locally computed model (hard-asserted, size-independent).
* **A replica converges byte-identically** — a replica bootstraps from
  the primary's snapshot, catches up through a backlog, then streams the
  live half of the workload; at the end its state *digest* (keys, items,
  composed labels, per-shard layout) must equal the primary's, with zero
  final lag.
* **Failover loses nothing** — a promoted replica serves the primary's
  exact final state and accepts writes.

Quick mode (``REPRO_BENCH_QUICK=1``) shrinks the workloads; every hard
assertion here is a size-independent correctness claim, so they all stay
fatal in the CI smoke job.
"""

from __future__ import annotations

from benchmarks.conftest import emit, scaled
from repro.perf.scenarios import run_replica_catchup, run_server_mixed

#: Seed shared with the committed ``BENCH_server.json`` baseline.
SEED = 20260730


def test_concurrent_clients_merge_exactly(run_once):
    """Disjoint-range clients over real sockets produce the exact model."""
    n = scaled(1024)

    metrics = run_once(lambda: run_server_mixed(n, SEED))
    emit(
        "E-SERVER: concurrent clients (disjoint ranges) vs local model",
        [
            {
                "clients": metrics["clients"],
                "operations": metrics["operations"],
                "final keys": metrics["keys"],
                "wal frames": metrics["wal_frames"],
                "merged == model": metrics["reads_match"],
            }
        ],
    )
    assert metrics["clients"] >= 4
    assert metrics["reads_match"] is True


def test_replica_converges_byte_identically(run_once):
    """Bootstrap + backlog catch-up + live streaming ends digest-equal."""
    n = scaled(1024)

    metrics = run_once(lambda: run_replica_catchup(n, SEED))
    emit(
        "E-SERVER: replica bootstrap, catch-up and live streaming",
        [
            {
                "workload frames": metrics["wal_frames"],
                "frames applied": metrics["frames_applied"],
                "bootstraps": metrics["bootstraps"],
                "final lag": metrics["replica_lag_final"],
                "digest equal": metrics["replicas_match"],
            }
        ],
    )
    assert metrics["replicas_match"] is True
    assert metrics["replica_lag_final"] == 0
    assert metrics["frames_applied"] == metrics["wal_frames"]
    # A fresh replica bootstraps exactly once, then streams.
    assert metrics["bootstraps"] == 1


def test_failover_promotion_serves_exact_state(run_once, tmp_path):
    """A promoted replica holds the primary's final state and takes writes."""
    from repro.store.client import StoreClient
    from repro.store.harness import apply_to_store, make_ops, state_digest
    from repro.store.replica import Replica
    from repro.store.server import ServerThread
    from repro.store.service import StoreService
    from repro.store.store import DurableStore

    frames = scaled(512)

    def experiment():
        store = DurableStore(
            tmp_path / "primary",
            algorithm="classical",
            shard_capacity=64,
            sync_policy="never",
        )
        service = StoreService(store)
        with ServerThread(service) as server:
            for op in make_ops(frames, seed=SEED):
                apply_to_store(service, op)
            replica = Replica(
                tmp_path / "replica",
                server.address,
                serve=True,
                sync_policy="never",
            )
            replica.start()
            replica.wait_ready(timeout=60.0)
            replica.wait_caught_up(store.last_lsn, timeout=60.0)
            primary_digest = state_digest(store.map)
        promoted = replica.promote()
        promoted_digest = state_digest(promoted.store.map)
        host, port = replica.address
        with StoreClient(host, port) as client:
            client.put(10**9 + 1, "post-failover")
            accepted = client.get(10**9 + 1) == "post-failover"
        size = len(promoted.store)
        replica.stop()
        service.close()
        return {
            "workload frames": frames,
            "digest equal at promotion": primary_digest == promoted_digest,
            "accepts writes": accepted,
            "keys after failover write": size,
        }

    row = run_once(experiment)
    emit("E-SERVER: failover promotion", [row])
    assert row["digest equal at promotion"] is True
    assert row["accepts writes"] is True
