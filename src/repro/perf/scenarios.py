"""Deterministic, seeded scenarios for the benchmark baselines.

Each scenario is a pure function ``run(n, seed) -> dict`` returning a flat
metric dict of **exact quantities only**: move counts, operation and key
counts, frame counts, and boolean correctness flags.  The same
``(n, seed)`` produces the same dict in any process — the determinism
test compares whole documents across fresh processes, and the CI
comparator treats every field as exact.  No scenario reads a clock:
wall-clock time is measured by the repository benchmark
(``perfbench/``), and the two timing bounds that gate something are
asserted by the bench files that measure them (``bench_wire_speed.py``,
``bench_obs.py``).

The core scenarios replay one recorded physical trace on the slab
:class:`~repro.core.physical.PhysicalArray` and on the seed
:class:`~repro.core.physical_reference.ReferencePhysicalArray` oracle;
``moves_match`` / ``reads_match`` assert bit-identical move logs (and
lookup answers) across the two.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.core.operations import MoveRecorder, move_triples
from repro.core.physical import BUFFER, F_SLOT, PhysicalArray, ReferencePhysicalArray
from repro.perf.trace import (
    PhysicalTrace,
    TracingPhysicalArray,
    record_insert_heavy_trace,
    replay_trace,
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One named scenario plus the sizes it runs at.

    The committed baselines store results at both ``quick_n`` and
    ``full_n``; quick regenerations (CI) only rerun ``quick_n`` and the
    comparator diffs the intersection.
    """

    name: str
    quick_n: int
    full_n: int
    run: Callable[[int, int], dict]


# ---------------------------------------------------------------------------
# Core suite: physical-layer replays (slab vs reference)
# ---------------------------------------------------------------------------
def _replays(trace: PhysicalTrace, num_slots: int) -> dict:
    """Replay ``trace`` on the reference and slab arrays and cross-check
    their ``(element, source, destination)`` move logs."""
    reference = ReferencePhysicalArray(num_slots)
    sink: list = []
    reference.move_sink = sink
    replay_trace(trace, reference)
    slab = PhysicalArray(num_slots)
    recorder = MoveRecorder()
    slab.move_sink = recorder
    replay_trace(trace, slab)
    return {
        "trace_ops": len(trace),
        "num_slots": num_slots,
        "moves": recorder.total_cost,
        "reference_moves": sum(move.cost for move in sink),
        "moves_match": move_triples(sink) == recorder.triples(),
    }


def run_insert_heavy(n: int, seed: int) -> dict:
    """Singleton insert-heavy embedding traffic at uniformly random ranks.

    The trace of an ``Embedding(adaptive ⊳ classical)`` run — the paper's
    flagship composition — replayed on both physical arrays.
    """
    trace, num_slots = record_insert_heavy_trace(n, seed)
    metrics = {"operations": n}
    metrics.update(_replays(trace, num_slots))
    return metrics


def run_mixed_churn(n: int, seed: int) -> dict:
    """Insert/delete churn (30% deletes) through the same embedding."""
    trace, num_slots = record_insert_heavy_trace(n, seed, delete_fraction=0.3)
    metrics = {"operations": n}
    metrics.update(_replays(trace, num_slots))
    return metrics


def record_chain_sparse_trace(n: int, seed: int) -> tuple[PhysicalTrace, int, int]:
    """A sparse array whose chain moves span almost the whole slot range.

    Two token clusters at the array ends, a vast R-empty middle, and one
    pivot element ping-ponging between far-apart F-labels (plus a few
    buffered elements that ride along as deadweight).  The seed's
    ``chain_positions`` scans the full ``O(m)`` span on every chain move;
    the slab array walks only the tokens it finds.
    """
    num_slots = 32 * n
    cluster = 32
    trace: PhysicalTrace = []
    array = TracingPhysicalArray(num_slots, trace)
    kinds = []
    for offset in range(cluster):
        kind = F_SLOT if offset % 2 == 0 else BUFFER
        kinds.append((offset, kind))
        kinds.append((num_slots - cluster + offset, kind))
    array.initialize_kinds(kinds)
    array.put_element(0, "pivot")
    for position in (1, 3, 5):  # deadweight riders on left-cluster buffers
        array.put_element(position, f"rider-{position}")
    rng = random.Random(seed)
    f_total = array.f_slot_count
    rounds = max(8, n // 64)
    for step in range(rounds):
        source = array.position_of("pivot")
        if step % 2 == 0:
            target = f_total - 1 - rng.randrange(4)
        else:
            target = rng.randrange(4)
        array.chain_move(source, target)
    return trace, num_slots, rounds


def run_chain_sparse(n: int, seed: int) -> dict:
    """Chain moves across a sparse array (the select-walk showcase)."""
    trace, num_slots, rounds = record_chain_sparse_trace(n, seed)
    metrics = {"operations": rounds}
    metrics.update(_replays(trace, num_slots))
    return metrics


#: Rank lookups per build operation for the core point-lookup scenario below.
_LOOKUPS_PER_OP = 8


def run_point_lookup_core(n: int, seed: int) -> dict:
    """Rank lookups on the physical layer, per array.

    The physical-layer twin of the query suite's ``point_lookup_heavy``
    (whose ClassicalPMA shards never touch a physical array): the reference
    and slab arrays replay the same recorded insert-heavy embedding trace to
    an identical populated state, then answer the same seeded stream of
    ``8·n`` rank→element lookups through ``element_at_rank`` (one Fenwick
    select per rank).  Both answer streams — and the move logs of the
    state-building replays — must be identical: ``reads_match`` is a
    correctness flag covering both.
    """
    trace, num_slots = record_insert_heavy_trace(n, seed)
    arrays: list[tuple[str, Callable[[int], object]]] = [
        ("reference", ReferencePhysicalArray),
        ("slab", PhysicalArray),
    ]

    lookups = _LOOKUPS_PER_OP * n
    ranks: list[int] | None = None
    element_count = None
    answers: dict[str, list] = {}
    move_logs: dict[str, tuple] = {}
    move_counts: dict[str, int] = {}
    for label, factory in arrays:
        array = factory(num_slots)
        recorder = MoveRecorder()
        array.move_sink = recorder
        replay_trace(trace, array)
        array.move_sink = None
        move_logs[label] = tuple(recorder.triples())
        move_counts[label] = len(move_logs[label])
        if ranks is None:
            element_count = array.element_count
            rng = random.Random(seed * 7919 + 11)
            ranks = [rng.randrange(1, element_count + 1) for _ in range(lookups)]
        answers[label] = [array.element_at_rank(rank) for rank in ranks]

    return {
        "operations": lookups,
        "trace_ops": len(trace),
        "num_slots": num_slots,
        "element_count": element_count,
        "moves": move_counts["slab"],
        "reference_moves": move_counts["reference"],
        "reads_match": (
            answers["slab"] == answers["reference"]
            and move_logs["slab"] == move_logs["reference"]
        ),
    }


# ---------------------------------------------------------------------------
# Sharded suite: whole-structure throughput through the runner
# ---------------------------------------------------------------------------
def _sharded_labeler(shard_capacity: int = 128):
    from repro.algorithms import ClassicalPMA
    from repro.core.sharded import ShardedLabeler

    return ShardedLabeler(
        lambda capacity: ClassicalPMA(capacity), shard_capacity=shard_capacity
    )


def _run_result_metrics(result, labeler) -> dict:
    tracker = result.tracker
    return {
        "operations": tracker.operations,
        "total_moves": tracker.total_cost,
        "amortized": round(tracker.amortized, 6),
        "worst_event": tracker.worst_case,
        "shards": labeler.shard_count,
        "splits": labeler.splits,
        "merges": labeler.merges,
        "borrows": labeler.borrows,
        "rewrites": labeler.rewrites,
        "restructure_moves": labeler.restructure_moves,
    }


def run_sharded_mixed(n: int, seed: int) -> dict:
    """Uniform random mixed traffic (30% deletes) on sharded classical PMAs."""
    from repro.analysis.runner import run_workload
    from repro.workloads.random_uniform import RandomWorkload

    labeler = _sharded_labeler()
    workload = RandomWorkload(n, capacity=n, delete_fraction=0.3, seed=seed)
    result = run_workload(labeler, workload)
    return _run_result_metrics(result, labeler)


def run_sharded_bulk_batched(n: int, seed: int) -> dict:
    """Sorted-run bulk ingestion through the batch engine (batch size 64)."""
    from repro.analysis.runner import run_workload
    from repro.workloads.bulk import BulkLoadWorkload

    labeler = _sharded_labeler()
    workload = BulkLoadWorkload(n, batch_size=64, seed=seed)
    result = run_workload(labeler, workload, batch_size=64)
    metrics = _run_result_metrics(result, labeler)
    metrics["batches"] = result.tracker.batches
    return metrics


def run_zipfian_hammer(n: int, seed: int) -> dict:
    """Zipf-skewed insertions hammering a small part of the key space."""
    from repro.analysis.runner import run_workload
    from repro.workloads.zipfian import ZipfianWorkload

    labeler = _sharded_labeler()
    workload = ZipfianWorkload(n, skew=1.2, seed=seed)
    result = run_workload(labeler, workload)
    return _run_result_metrics(result, labeler)


# ---------------------------------------------------------------------------
# Query suite: read-heavy serving mixes through the runner
# ---------------------------------------------------------------------------
def _query_run_metrics(result, labeler) -> dict:
    """Metrics of a read-heavy run: write moves + per-kind query counts.

    Every query the runner executes is verified inline against the
    reference model (a divergence raises, so the scenario would never
    return) — ``reads_match`` records that the whole verified run
    completed.  All counts are seed-deterministic.
    """
    tracker = result.tracker
    metrics = {
        "operations": tracker.operations + tracker.queries,
        "writes": tracker.operations,
        "total_moves": tracker.total_cost,
        "queries": tracker.queries,
        "query_items": tracker.query_items,
        "reads_match": True,
        "shards": labeler.shard_count,
        "splits": labeler.splits,
        "merges": labeler.merges,
    }
    for key, value in tracker.query_statistics().items():
        if key != "queries":
            metrics[key] = int(value)
    return metrics


def run_point_lookup_heavy(n: int, seed: int) -> dict:
    """95% point reads (LOOKUP/SELECT only) at uniform ranks, 5% writes."""
    from repro.analysis.runner import run_workload
    from repro.workloads.mixed import MixedReadWriteWorkload

    labeler = _sharded_labeler()
    workload = MixedReadWriteWorkload(
        n,
        read_fraction=0.95,
        key_choice="uniform",
        scan_fraction=0.0,
        count_fraction=0.0,
        seed=seed,
    )
    result = run_workload(labeler, workload)
    return _query_run_metrics(result, labeler)


def run_ycsb_b_mixed(n: int, seed: int) -> dict:
    """The YCSB-B profile: 95/5 read/write over zipfian-skewed targets,
    with a small share of range scans and interval counts."""
    from repro.analysis.runner import run_workload
    from repro.workloads.mixed import MixedReadWriteWorkload

    labeler = _sharded_labeler()
    workload = MixedReadWriteWorkload(
        n,
        read_fraction=0.95,
        key_choice="zipfian",
        skew=1.1,
        scan_fraction=0.05,
        count_fraction=0.02,
        scan_length=16,
        delete_fraction=0.2,
        seed=seed,
    )
    result = run_workload(labeler, workload)
    return _query_run_metrics(result, labeler)


def run_range_scan_heavy(n: int, seed: int) -> dict:
    """Load half the stream, then stream 64-rank cursor scans."""
    from repro.analysis.runner import run_workload
    from repro.workloads.mixed import RangeScanWorkload

    labeler = _sharded_labeler()
    workload = RangeScanWorkload(n, scan_length=64, load_fraction=0.5, seed=seed)
    result = run_workload(labeler, workload)
    return _query_run_metrics(result, labeler)


# ---------------------------------------------------------------------------
# Store suite: durable traffic and recovery replays
# ---------------------------------------------------------------------------
def _drive_store(store, n: int, seed: int) -> None:
    """Seeded mixed traffic: the crash-injection harness's op mix.

    One op script definition serves the whole durability layer (the
    differential tests, the factory sweep and these scenarios) — see
    :func:`repro.store.harness.make_ops`.  A checkpoint is written halfway
    through (without WAL truncation), so the recovery measurements can
    compare snapshot + tail replay against a full from-empty replay of
    the same log.
    """
    from repro.store.harness import apply_to_store, make_ops

    for index, op in enumerate(make_ops(n, seed), start=1):
        apply_to_store(store, op)
        if index == n // 2:
            store.snapshot()


def run_durable_mixed(n: int, seed: int) -> dict:
    """Durable mixed traffic, then both recovery paths counted.

    ``replayed_tail`` (snapshot + WAL tail) versus ``replayed_full``
    (from-empty WAL replay) is the payoff of checkpointing: the tail must
    replay strictly fewer frames — asserted by ``benchmarks/bench_store.py``.
    """
    import shutil
    import tempfile
    from pathlib import Path

    from repro.store.snapshot import SNAPSHOT_DIR_NAME
    from repro.store.store import DurableStore

    root = Path(tempfile.mkdtemp(prefix="repro-bench-store-"))
    try:
        store = DurableStore(
            root / "store",
            algorithm="classical",
            shard_capacity=128,
            sync_policy="never",
        )
        _drive_store(store, n, seed)
        keys = len(store)
        total_moves = store.map.costs.total_cost
        wal_frames = store.last_lsn
        shards = store.labeler.shard_count
        expected_items = list(store.items())
        store.close()

        # Tail recovery: newest snapshot + WAL frames past it.
        recovered = DurableStore(root / "store", sync_policy="never")
        replayed_tail = recovered.recovery.frames_replayed
        recovered_ok = list(recovered.items()) == expected_items
        recovered.close()

        # Full recovery: same WAL, snapshots removed.
        full_dir = root / "full"
        shutil.copytree(root / "store", full_dir)
        shutil.rmtree(full_dir / SNAPSHOT_DIR_NAME, ignore_errors=True)
        full = DurableStore(full_dir, sync_policy="never")
        replayed_full = full.recovery.frames_replayed
        recovered_ok = recovered_ok and list(full.items()) == expected_items
        full.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)

    return {
        "operations": n,
        "keys": keys,
        "total_moves": total_moves,
        "wal_frames": wal_frames,
        "shards": shards,
        "replayed_tail": replayed_tail,
        "replayed_full": replayed_full,
        "recovered_match": recovered_ok,
    }


def run_durable_bulk_ingest(n: int, seed: int) -> dict:
    """Sorted bulk ingest through atomic ``put_many`` frames.

    One WAL frame per batch of 64 keys: frames ≪ operations, and
    recovery replays batches through the same merged-rebalance path the
    live ingest used.
    """
    import shutil
    import tempfile
    from pathlib import Path

    from repro.store.store import DurableStore

    root = Path(tempfile.mkdtemp(prefix="repro-bench-store-"))
    try:
        rng = random.Random(seed)
        keys = rng.sample(range(10**7), n)
        store = DurableStore(
            root / "store",
            algorithm="classical",
            shard_capacity=128,
            sync_policy="never",
        )
        for start in range(0, n, 64):
            chunk = sorted(keys[start : start + 64])
            store.put_many([(key, start) for key in chunk])
        total_moves = store.map.costs.total_cost
        wal_frames = store.last_lsn
        shards = store.labeler.shard_count
        expected_items = list(store.items())
        store.close()

        recovered = DurableStore(root / "store", sync_policy="never")
        replayed = recovered.recovery.frames_replayed
        recovered_ok = list(recovered.items()) == expected_items
        recovered.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)

    return {
        "operations": n,
        "keys": n,
        "total_moves": total_moves,
        "wal_frames": wal_frames,
        "shards": shards,
        "replayed_full": replayed,
        "recovered_match": recovered_ok,
    }


# ---------------------------------------------------------------------------
# Latency suite: tail percentiles under adversarial workloads
# ---------------------------------------------------------------------------
def _tail_metrics(tracker) -> dict:
    """Per-operation move-cost percentiles (bit-deterministic per seed)."""
    return {
        "p50": round(tracker.percentile(0.50), 6),
        "p99": round(tracker.percentile(0.99), 6),
        "p999": round(tracker.percentile(0.999), 6),
    }


def run_cliff_chaser(n: int, seed: int) -> dict:
    """Classical vs deamortized PMA under the rebalance-cliff chaser.

    The acceptance row of the latency suite: per-algorithm amortized moves
    and p999 per-operation move cost under the feedback-driven densest-
    window chaser, plus the ``tail_inversion`` correctness flag — the
    paper's story that the deamortized structure buys its worst-case bound
    (lower p999) at a small amortized premium, so classical wins the
    average while deamortized wins the tail.  All move numbers are
    bit-deterministic per seed.
    """
    from repro.algorithms import ClassicalPMA, DeamortizedPMA
    from repro.analysis.runner import run_workload
    from repro.workloads.adversarial import RebalanceCliffWorkload

    metrics: dict = {"operations": 2 * n}
    total_moves = 0
    summaries: dict[str, dict[str, float]] = {}
    for label, factory in (
        ("classical", ClassicalPMA),
        ("deamortized", DeamortizedPMA),
    ):
        result = run_workload(factory(n), RebalanceCliffWorkload(n, seed=seed))
        tracker = result.tracker
        summaries[label] = {
            "amortized": tracker.amortized,
            "p999": tracker.percentile(0.999),
        }
        total_moves += tracker.total_cost
        metrics[f"{label}_amortized"] = round(tracker.amortized, 6)
        metrics[f"{label}_p50"] = round(tracker.percentile(0.50), 6)
        metrics[f"{label}_p99"] = round(tracker.percentile(0.99), 6)
        metrics[f"{label}_p999"] = round(tracker.percentile(0.999), 6)
        metrics[f"{label}_worst_case"] = tracker.worst_case
    metrics["total_moves"] = total_moves
    classical_wins_amortized = (
        summaries["classical"]["amortized"] < summaries["deamortized"]["amortized"]
    )
    deamortized_wins_p999 = (
        summaries["deamortized"]["p999"] < summaries["classical"]["p999"]
    )
    metrics["tail_inversion"] = bool(
        classical_wins_amortized and deamortized_wins_p999
    )
    return metrics


def _run_adversarial_sharded(workload) -> dict:
    from repro.analysis.runner import run_workload

    labeler = _sharded_labeler()
    result = run_workload(labeler, workload)
    metrics = _run_result_metrics(result, labeler)
    metrics.update(_tail_metrics(result.tracker))
    return metrics


def run_flash_crowd(n: int, seed: int) -> dict:
    """Sorted-ingest bursts into random regions on sharded classical PMAs."""
    from repro.workloads.adversarial import FlashCrowdWorkload

    return _run_adversarial_sharded(FlashCrowdWorkload(n, seed=seed))


def run_compaction_storm(n: int, seed: int) -> dict:
    """Clustered delete storms alternating with refills (shard-merge driver)."""
    from repro.workloads.adversarial import CompactionStormWorkload

    return _run_adversarial_sharded(CompactionStormWorkload(n, seed=seed))


def run_drifting_zipf(n: int, seed: int) -> dict:
    """Time-varying zipf skew: drifting hotspot with a skew ramp."""
    from repro.workloads.adversarial import DriftingZipfWorkload

    return _run_adversarial_sharded(DriftingZipfWorkload(n, seed=seed))


# ---------------------------------------------------------------------------
# Server suite: networked serving and WAL-shipping replication
# ---------------------------------------------------------------------------
#: Concurrent clients driven against the served store (the issue's floor).
_SERVER_CLIENTS = 4


def _client_script(client: int, per_client: int, seed: int) -> list[tuple]:
    """A seeded per-client op script over a disjoint key range.

    Client ``i`` owns keys in ``[i * 10**7, (i + 1) * 10**7)``, so any
    interleaving of the clients' mutations commutes: the merged final
    state — and therefore ``keys`` and ``wal_frames`` — is
    seed-deterministic even though the wire-level schedule is not.
    """
    base = client * 10**7
    rng = random.Random(seed * 1_000_003 + client)
    live: list[int] = []
    script: list[tuple] = []
    for step in range(per_client):
        roll = rng.random()
        if live and roll < 0.15:
            key = live.pop(rng.randrange(len(live)))
            script.append(("del", key))
        elif live and roll < 0.45:
            script.append(("get", live[rng.randrange(len(live))]))
        elif live and roll < 0.55:
            low = base + rng.randrange(10**6)
            script.append(("range", low, low + 10**4))
        else:
            key = base + rng.randrange(10**6)
            if key not in live:
                live.append(key)
            script.append(("put", key, step))
    return script


def _expected_after(scripts: list[list[tuple]]) -> dict:
    """The merged final state the disjoint-range scripts must produce."""
    model: dict = {}
    for script in scripts:
        for op in script:
            if op[0] == "put":
                model[op[1]] = op[2]
            elif op[0] == "del":
                model.pop(op[1], None)
    return model


def run_server_mixed(n: int, seed: int) -> dict:
    """≥4 concurrent clients hammering one served store over real sockets.

    Disjoint per-client key ranges make the merged final state
    seed-deterministic regardless of scheduling, so ``keys``,
    ``wal_frames`` and ``reads_match`` are exact.
    """
    import shutil
    import tempfile
    import threading
    from pathlib import Path

    from repro.store.client import StoreClient
    from repro.store.server import ServerThread
    from repro.store.service import StoreService
    from repro.store.store import DurableStore

    per_client = max(1, n // _SERVER_CLIENTS)
    scripts = [
        _client_script(index, per_client, seed)
        for index in range(_SERVER_CLIENTS)
    ]
    root = Path(tempfile.mkdtemp(prefix="repro-bench-server-"))
    try:
        store = DurableStore(
            root / "primary",
            algorithm="classical",
            shard_capacity=128,
            sync_policy="never",
        )
        service = StoreService(store)
        failures: list[BaseException] = []

        def drive(script: list[tuple], host: str, port: int) -> None:
            try:
                with StoreClient(host, port) as client:
                    for op in script:
                        if op[0] == "put":
                            client.put(op[1], op[2])
                        elif op[0] == "del":
                            client.delete(op[1])
                        elif op[0] == "get":
                            client.get(op[1], default=None)
                        else:
                            client.range_scan(op[1], op[2], limit=32)
            except BaseException as error:  # surfaced after join
                failures.append(error)

        with ServerThread(service) as server:
            host, port = server.address
            threads = [
                threading.Thread(target=drive, args=(script, host, port))
                for script in scripts
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if failures:
            raise failures[0]

        expected = _expected_after(scripts)
        reads_match = list(store.items()) == sorted(expected.items())
        metrics = {
            "operations": per_client * _SERVER_CLIENTS,
            "clients": _SERVER_CLIENTS,
            "keys": len(expected),
            "wal_frames": store.last_lsn,
            "reads_match": reads_match,
        }
        service.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return metrics


def run_replica_catchup(n: int, seed: int) -> dict:
    """Replica bootstrap, backlog catch-up and live streaming lag.

    Half the seeded workload runs before the replica exists (bootstrap +
    backlog catch-up), half streams live.  Frames shipped, applied LSN,
    bootstrap count and final lag are exact.  ``replicas_match`` is the
    byte-identical-state claim (same fingerprint digest on both sides)
    and hard-fails the comparator when false.
    """
    import shutil
    import tempfile
    from pathlib import Path

    from repro.store.harness import apply_to_store, make_ops, state_digest
    from repro.store.replica import Replica
    from repro.store.server import ServerThread
    from repro.store.service import StoreService
    from repro.store.store import DurableStore

    ops = make_ops(n, seed)
    backlog = ops[: n // 2]
    live = ops[n // 2 :]
    root = Path(tempfile.mkdtemp(prefix="repro-bench-replica-"))
    try:
        store = DurableStore(
            root / "primary",
            algorithm="classical",
            shard_capacity=128,
            sync_policy="never",
        )
        service = StoreService(store)
        with ServerThread(service) as server:
            for op in backlog:
                apply_to_store(service, op)

            replica = Replica(
                root / "replica", server.address, sync_policy="never"
            )
            replica.start()
            replica.wait_ready(timeout=60.0)
            replica.wait_caught_up(store.last_lsn, timeout=60.0)

            for op in live:
                apply_to_store(service, op)
            replica.wait_caught_up(store.last_lsn, timeout=60.0)

            final_lag = store.last_lsn - replica.last_applied_lsn
            replicas_match = state_digest(store.map) == state_digest(
                replica.service.store.map
            )
            applied = replica.last_applied_lsn
            bootstraps = replica.bootstrap_count
            replica.stop()
        keys = len(store)
        frames = store.last_lsn
        service.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)

    return {
        "operations": n,
        "keys": keys,
        "wal_frames": frames,
        "frames_applied": applied,
        "bootstraps": bootstraps,
        "replica_lag_final": final_lag,
        "replicas_match": replicas_match,
    }


# ---------------------------------------------------------------------------
# Obs suite: a live registry changes no structural decision
# ---------------------------------------------------------------------------
def obs_lookup_run(n: int, seed: int, registry):
    """One point-lookup-heavy run; returns (move-log digest, result, labeler).

    Instrumented when given a registry.  ``benchmarks/bench_obs.py`` times
    these runs bare against instrumented.
    """
    from repro.analysis.runner import run_workload
    from repro.store.harness import move_log_digest, record_move_log
    from repro.workloads.mixed import MixedReadWriteWorkload

    labeler = _sharded_labeler()
    if registry is not None:
        labeler.set_registry(registry)
    log = record_move_log(labeler)
    workload = MixedReadWriteWorkload(
        n,
        read_fraction=0.95,
        key_choice="uniform",
        scan_fraction=0.0,
        count_fraction=0.0,
        seed=seed,
    )
    result = run_workload(labeler, workload)
    return move_log_digest(log), result, labeler


def obs_ingest_run(n: int, seed: int, registry):
    """One batched zipfian ingest; instrumented when given a registry."""
    from repro.analysis.runner import run_workload
    from repro.store.harness import move_log_digest, record_move_log
    from repro.workloads.zipfian import ZipfianWorkload

    labeler = _sharded_labeler()
    if registry is not None:
        labeler.set_registry(registry)
    log = record_move_log(labeler)
    workload = ZipfianWorkload(n, seed=seed)
    result = run_workload(labeler, workload, batch_size=128)
    return move_log_digest(log), result, labeler


def _obs_metrics(n: int, seed: int, one_run) -> dict:
    """The same seeded workload, bare and under a live registry.

    ``obs_matches_bare`` is the correctness claim: a live registry must
    not change a single structural decision, proven by move-log digest
    equality between the bare and instrumented runs.
    """
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    bare_digest, _, _ = one_run(n, seed, None)
    digest, result, labeler = one_run(n, seed, registry)
    snapshot = registry.snapshot()
    return {
        "operations": n,
        "obs_matches_bare": digest == bare_digest,
        "total_moves": result.tracker.total_cost,
        "shards": labeler.shard_count,
        "metric_families": sum(len(category) for category in snapshot.values()),
    }


def run_obs_point_lookup_overhead(n: int, seed: int) -> dict:
    """The point_lookup_heavy shape, bare vs under a live registry.

    Reads never touch an instrument (only restructures do), so this
    covers carrying a live registry through the read path.
    """
    return _obs_metrics(n, seed, obs_lookup_run)


def run_obs_batch_ingest_overhead(n: int, seed: int) -> dict:
    """A zipfian batch-128 ingest, bare vs fully instrumented.

    The zipfian hotspot and long tail split every batch into several
    per-shard groups and force a steady stream of splits and rewrites, so
    the instrumented run's live registry (restructure counters, the shard
    gauge, density sweeps) sees the most instrument traffic any sharded
    workload makes — and must still produce the identical move log.
    """
    return _obs_metrics(n, seed, obs_ingest_run)


# ---------------------------------------------------------------------------
# Registries
# ---------------------------------------------------------------------------
CORE_SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec("insert_heavy", quick_n=512, full_n=4096, run=run_insert_heavy),
        ScenarioSpec("mixed_churn", quick_n=512, full_n=2048, run=run_mixed_churn),
        ScenarioSpec("chain_sparse", quick_n=256, full_n=2048, run=run_chain_sparse),
        ScenarioSpec(
            "point_lookup_heavy",
            quick_n=512,
            full_n=4096,
            run=run_point_lookup_core,
        ),
    )
}

SHARDED_SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec("sharded_mixed", quick_n=2048, full_n=16384, run=run_sharded_mixed),
        ScenarioSpec(
            "sharded_bulk_batched",
            quick_n=4096,
            full_n=32768,
            run=run_sharded_bulk_batched,
        ),
        ScenarioSpec(
            "zipfian_hammer", quick_n=1024, full_n=8192, run=run_zipfian_hammer
        ),
    )
}

QUERY_SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            "point_lookup_heavy",
            quick_n=2048,
            full_n=16384,
            run=run_point_lookup_heavy,
        ),
        ScenarioSpec(
            "ycsb_b_mixed", quick_n=2048, full_n=16384, run=run_ycsb_b_mixed
        ),
        ScenarioSpec(
            "range_scan_heavy",
            quick_n=1024,
            full_n=8192,
            run=run_range_scan_heavy,
        ),
    )
}

STORE_SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            "durable_mixed", quick_n=512, full_n=4096, run=run_durable_mixed
        ),
        ScenarioSpec(
            "durable_bulk_ingest",
            quick_n=1024,
            full_n=8192,
            run=run_durable_bulk_ingest,
        ),
    )
}

LATENCY_SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            "cliff_chaser", quick_n=256, full_n=512, run=run_cliff_chaser
        ),
        ScenarioSpec(
            "flash_crowd", quick_n=1024, full_n=4096, run=run_flash_crowd
        ),
        ScenarioSpec(
            "compaction_storm",
            quick_n=1024,
            full_n=4096,
            run=run_compaction_storm,
        ),
        ScenarioSpec(
            "drifting_zipf", quick_n=1024, full_n=4096, run=run_drifting_zipf
        ),
    )
}

SERVER_SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            "server_mixed", quick_n=256, full_n=2048, run=run_server_mixed
        ),
        ScenarioSpec(
            "replica_catchup",
            quick_n=256,
            full_n=2048,
            run=run_replica_catchup,
        ),
    )
}

OBS_SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            "obs_point_lookup_overhead",
            quick_n=2048,
            full_n=16384,
            run=run_obs_point_lookup_overhead,
        ),
        ScenarioSpec(
            "obs_batch_ingest_overhead",
            quick_n=1024,
            full_n=8192,
            run=run_obs_batch_ingest_overhead,
        ),
    )
}
