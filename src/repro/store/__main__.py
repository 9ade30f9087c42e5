"""Command-line entry point: ``python -m repro.store <command> --dir DIR``.

* ``recover --dir DIR`` — open the store (which runs recovery: newest
  valid snapshot + tail-WAL replay + torn-tail truncation) and print the
  recovery report.
* ``snapshot --dir DIR`` — open and write a fresh checkpoint.
* ``compact --dir DIR`` — open, checkpoint, and truncate the WAL prefix
  the checkpoint covers.
* ``verify --dir DIR`` — open and check every integrity invariant
  (physical layout vs. keys, sharding invariants, sorted order,
  key/value bijection); exits nonzero on failure.
* ``verify --factory-sweep`` — instead of opening an existing store, run
  a seeded workload + snapshot + reopen + verify round-trip in a
  temporary directory for **every** registered shard algorithm (what the
  ``store-recovery`` CI job runs).
* ``scan --dir DIR [--low K] [--high K] [--limit N] [--page-size N]`` —
  recover the store and stream the key interval through the paginated
  read path (one labeler-cursor page per ``--page-size`` keys), printing
  ``key<TAB>value`` lines plus a trailing summary.  Keys given on the
  command line parse as JSON with a plain-string fallback.
* ``replica-smoke [--frames N] [--seed S]`` — the replication
  convergence drill the ``replication-smoke`` CI job runs: serve a
  primary, stream a replica, kill it mid-catch-up, restart it (stream
  resume from its own WAL), then compact the primary past the replica's
  LSN and restart again (snapshot bootstrap).  Each round must end with
  the replica's state digest *exactly* equal to the primary's at zero
  lag; exits nonzero otherwise.
* ``stats --host H --port P`` — connect to a live server and render its
  ``STATS`` (durability, a failed compaction, replication, shards) and
  ``METRICS`` (Prometheus exposition + slow-op count) responses.
* ``obs-smoke [--frames N] [--seed S]`` — the observability drill the
  ``obs-smoke`` CI job runs: serve an instrumented store that compacts
  every third of the traffic, drive mixed traffic (including deliberate
  protocol and command errors) over the wire, assert every expected
  metric family shows up in ``METRICS``, and check the ``stats`` command
  renders it all with exit code 0.

A maintenance command pointed at a directory holding no store refuses to
run (a mistyped ``--dir`` must not conjure an empty store and call it
healthy); pass ``--create`` to initialize one, with ``--algorithm`` /
``--shard-capacity`` fixing its configuration — validated, not changed,
on every reopen.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile

from repro.store.factories import SHARD_FACTORIES
from repro.store.store import DurableStore


def _open(args: argparse.Namespace) -> DurableStore:
    if not args.dir:
        raise SystemExit("--dir is required for this command")
    from pathlib import Path

    from repro.store.store import CONFIG_FILENAME

    if not (Path(args.dir) / CONFIG_FILENAME).exists() and not args.create:
        # A maintenance command pointed at a directory with no store must
        # refuse, not conjure an empty store and report it healthy — a
        # mistyped --dir after a crash would otherwise read as "ok: 0 keys".
        raise SystemExit(
            f"no store at {args.dir} (missing {CONFIG_FILENAME}); "
            f"pass --create to initialize a new one"
        )
    return DurableStore(
        args.dir,
        algorithm=args.algorithm,
        shard_capacity=args.shard_capacity,
        sync_policy=args.sync,
    )


def _print_recovery(store: DurableStore) -> None:
    report = store.recovery
    print(f"store      : {store.directory} (algorithm={store.algorithm}, "
          f"shard_capacity={store.shard_capacity})")
    print(f"snapshot   : lsn {report.snapshot_lsn}"
          + ("" if report.snapshot_lsn else " (none; replayed from empty)"))
    print(f"wal        : {report.wal_frames_seen} frame(s) seen, "
          f"{report.frames_replayed} replayed past the snapshot")
    if report.truncated_bytes:
        print(f"torn tail  : {report.truncated_bytes} byte(s) truncated "
              f"({report.truncation_reason})")
    print(f"state      : {len(store)} key(s), last lsn {report.last_lsn}")


def _cmd_recover(args: argparse.Namespace) -> int:
    with _open(args) as store:
        _print_recovery(store)
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    with _open(args) as store:
        lsn = store.snapshot()
        print(f"wrote snapshot covering lsn {lsn} "
              f"({len(store)} key(s), {store.labeler.shard_count} shard(s))")
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    with _open(args) as store:
        lsn = store.compact()
        print(f"compacted through lsn {lsn}; "
              f"wal now holds {store.wal_frames_since_snapshot} frame(s)")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.factory_sweep:
        return _factory_sweep(args)
    try:
        with _open(args) as store:
            report = store.verify()
    except Exception as error:  # surface as a failure exit, not a traceback
        print(f"FAIL: {error}")
        return 1
    print("ok: " + ", ".join(f"{key}={value}" for key, value in report.items()))
    return 0


def _factory_sweep(args: argparse.Namespace) -> int:
    """Workload → snapshot → reopen → verify, for every registered factory."""
    from repro.store.harness import apply_to_store, make_ops

    operations = args.sweep_operations
    failures = 0
    for name in sorted(SHARD_FACTORIES):
        directory = tempfile.mkdtemp(prefix=f"repro-store-{name}-")
        try:
            with DurableStore(
                directory, algorithm=name, shard_capacity=32, sync_policy="never"
            ) as store:
                for index, op in enumerate(make_ops(operations, 20260730), 1):
                    apply_to_store(store, op)
                    if index == operations // 2:
                        store.compact()
                expected = list(store.items())
            with DurableStore(directory, sync_policy="never") as reopened:
                reopened.verify()
                if list(reopened.items()) != expected:
                    raise AssertionError("recovered items diverged")
                replayed = reopened.recovery.frames_replayed
            print(f"ok [{name}]: {len(expected)} key(s) round-tripped, "
                  f"{replayed} tail frame(s) replayed")
        except Exception as error:
            failures += 1
            print(f"FAIL [{name}]: {error}")
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    return 1 if failures else 0


def _cmd_replica_smoke(args: argparse.Namespace) -> int:
    """Kill-and-restart replication convergence, both catch-up paths.

    Round A kills the replica mid-catch-up and restarts it: the restart
    recovers the replica's own WAL and *streams* the missing tail (no
    bootstrap).  Round B stops it, compacts the primary past its applied
    LSN and restarts: the handshake must fall back to a *snapshot
    bootstrap*.  Both rounds end by comparing state digests — the
    byte-identical fingerprint (keys, items, composed labels, per-shard
    physical layout) of primary and replica must be equal at zero lag.
    """
    import time
    from pathlib import Path

    from repro.store.harness import apply_to_store, make_ops, state_digest
    from repro.store.replica import Replica
    from repro.store.server import ServerThread
    from repro.store.service import StoreService

    frames = args.frames
    ops = make_ops(frames, args.seed)
    backlog, live = ops[: 2 * frames // 3], ops[2 * frames // 3 :]
    root = Path(tempfile.mkdtemp(prefix="repro-replica-smoke-"))
    failures: list[str] = []

    def check(condition: bool, message: str) -> None:
        print(("ok    : " if condition else "FAIL  : ") + message)
        if not condition:
            failures.append(message)

    try:
        store = DurableStore(
            root / "primary",
            algorithm="classical",
            shard_capacity=64,
            sync_policy="never",
        )
        service = StoreService(store)
        with ServerThread(service) as server:
            print(f"primary: serving at "
                  f"{server.address[0]}:{server.address[1]}")

            # Round A: the replica streams live while the primary writes
            # the backlog; it is killed as soon as it has applied a frame
            # — strictly mid-catch-up, with most of the workload still to
            # come — then restarted once the primary has finished.
            replica = Replica(
                root / "replica", server.address, sync_policy="never"
            )
            replica.start()
            replica.wait_ready(timeout=60.0)
            killed_at = None
            for index, op in enumerate(backlog):
                apply_to_store(service, op)
                if index % 8 == 0:
                    # Pace the writer so the loop thread's replication
                    # feeder ships frames while most of the backlog is
                    # still to come.
                    time.sleep(0.001)
                if killed_at is None and replica.last_applied_lsn >= 1:
                    replica.stop()
                    killed_at = replica.last_applied_lsn
            if killed_at is None:
                replica.stop()
                killed_at = replica.last_applied_lsn
            for op in live:  # the primary moves on while the replica is down
                apply_to_store(service, op)
            print(f"round A: killed replica at applied lsn {killed_at} "
                  f"(primary finished at {store.last_lsn})")
            check(
                1 <= killed_at < store.last_lsn,
                "kill point was strictly mid-catch-up",
            )
            restarted = Replica(
                root / "replica", server.address, sync_policy="never"
            )
            restarted.start()
            restarted.wait_ready(timeout=60.0)
            restarted.wait_caught_up(store.last_lsn, timeout=60.0)
            check(
                restarted.bootstrap_count == 0,
                "restart resumed from its own WAL (no snapshot bootstrap)",
            )
            check(
                restarted.last_applied_lsn == store.last_lsn,
                f"zero lag after restart (applied {restarted.last_applied_lsn}"
                f" of {store.last_lsn})",
            )
            check(
                state_digest(restarted.service.store.map)
                == state_digest(store.map),
                "round A state digest equals the primary's",
            )
            restarted.stop()
            resumed_lsn = restarted.last_applied_lsn
            # The primary keeps retaining frames for a replica until its
            # loop has seen the disconnect; a compaction before that stops
            # at the replica's last ack.
            deadline = time.monotonic() + 60.0
            while server.replica_count and time.monotonic() < deadline:
                time.sleep(0.005)

            # Round B: compaction moves the horizon past the stopped
            # replica, so its next connection must snapshot-bootstrap.
            for op in make_ops(max(8, frames // 8), args.seed + 1):
                apply_to_store(service, op)
            service.compact()
            check(
                store.durable_horizon > resumed_lsn,
                f"compaction advanced the horizon past the replica "
                f"({store.durable_horizon} > {resumed_lsn})",
            )
            rebootstrapped = Replica(
                root / "replica", server.address, sync_policy="never"
            )
            rebootstrapped.start()
            rebootstrapped.wait_ready(timeout=60.0)
            rebootstrapped.wait_caught_up(store.last_lsn, timeout=60.0)
            check(
                rebootstrapped.bootstrap_count == 1,
                "behind-horizon restart fell back to a snapshot bootstrap",
            )
            check(
                rebootstrapped.last_applied_lsn == store.last_lsn,
                "zero lag after bootstrap",
            )
            check(
                state_digest(rebootstrapped.service.store.map)
                == state_digest(store.map),
                "round B state digest equals the primary's",
            )
            rebootstrapped.stop()
        service.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if failures:
        print(f"replica-smoke: {len(failures)} failure(s)")
        return 1
    print("replica-smoke: converged byte-identically in both rounds")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Render a live server's STATS + METRICS over the wire."""
    from repro.store.client import StoreClient

    with StoreClient(args.host, args.port, timeout=args.timeout) as client:
        stats = client.stats()
        print(f"server     : {args.host}:{args.port}")
        print(f"durability : last lsn {stats['last_lsn']}, "
              f"horizon {stats['durable_horizon']}, "
              f"{stats['wal_frames_since_snapshot']} wal frame(s) "
              f"since snapshot")
        error = stats.get("last_compaction_error")
        if error:
            print(f"compaction : last automatic compaction failed: {error}")
        floor = stats.get("replication_floor")
        print(f"replicas   : {stats.get('replica_count', 0)} connected, "
              f"acks {stats.get('replica_acks', [])}, "
              f"floor {floor if floor is not None else '-'}")
        shards = stats.get("shard_statistics") or {}
        if shards:
            print("shards     : " + ", ".join(
                f"{key}={value}" for key, value in sorted(shards.items())
            ))
        errors = stats.get("error_counts") or {}
        if errors:
            print("errors     : " + ", ".join(
                f"{family}={count}" for family, count in sorted(errors.items())
            ))
        metrics = client.metrics()
        if metrics.get("enabled"):
            slow = metrics.get("slow_ops") or []
            print(f"slow ops   : {len(slow)} captured over threshold")
            print("metrics    :")
            print(metrics["exposition"], end="")
        else:
            print("metrics    : registry disabled "
                  "(start the server with an obs registry to collect them)")
    return 0


def _cmd_obs_smoke(args: argparse.Namespace) -> int:
    """End-to-end observability drill (the ``obs-smoke`` CI job).

    Serves an instrumented store through a plain ``StoreService(store)``,
    like every served path, with ``compact_every`` a third of the
    traffic, and drives mixed traffic over the wire — including a
    deliberate unknown command, a miss delete, and a raw oversized frame.
    It then asserts the METRICS response carries every expected metric
    family (compactions included), each ``service.latency.<command>``
    histogram counted exactly the mutation requests the drill sent (the
    failed miss delete included), STATS reports compaction/shard health,
    and the ``stats`` CLI renders it all with exit code 0.
    """
    import contextlib
    import io
    import socket as socket_module
    import struct
    from collections import Counter
    from pathlib import Path

    from repro.obs import MetricsRegistry
    from repro.store.client import StoreClient, StoreClientError
    from repro.store.harness import apply_to_store, make_ops
    from repro.store.protocol import MAX_MESSAGE_BYTES
    from repro.store.server import ServerThread
    from repro.store.service import StoreService

    failures: list[str] = []

    def check(condition: bool, message: str) -> None:
        print(("ok    : " if condition else "FAIL  : ") + message)
        if not condition:
            failures.append(message)

    root = Path(tempfile.mkdtemp(prefix="repro-obs-smoke-"))
    registry = MetricsRegistry()
    try:
        store = DurableStore(
            root / "store",
            algorithm="classical",
            shard_capacity=64,
            sync_policy="never",
            compact_every=max(1, args.frames // 3),
            registry=registry,
        )
        service = StoreService(store)
        sent: Counter = Counter()  # mutation requests, by service command
        commands = {
            "put": "put", "del": "delete",
            "put_many": "put_many", "del_many": "delete_many",
        }
        with ServerThread(service) as server:
            host, port = server.address
            print(f"primary: serving at {host}:{port} (registry live)")
            with StoreClient(host, port) as client:
                for op in make_ops(args.frames, args.seed):
                    apply_to_store(client, op)
                    sent[commands[op[0]]] += 1
                page = client.range_scan(limit=64)
                if page:
                    client.count_range(page[0][0], page[-1][0])
                check(client.size() > 0, "mixed traffic left a populated store")
                sent["delete"] += 1
                try:
                    client.delete(("obs-smoke", "no-such-key"))
                    check(False, "miss delete raised KeyError")
                except KeyError:
                    check(True, "miss delete raised KeyError")
                try:
                    client._call("BOGUS")
                    check(False, "unknown command was rejected")
                except StoreClientError as error:
                    check(
                        error.code == "bad_request",
                        "unknown command was rejected",
                    )
            # An oversized length prefix must drop the connection (and be
            # accounted in its own error family).
            with socket_module.create_connection(
                (host, port), timeout=10.0
            ) as sock:
                sock.sendall(struct.pack(">I", MAX_MESSAGE_BYTES + 1))
                sock.settimeout(10.0)
                check(
                    sock.recv(1) == b"",
                    "oversized frame dropped the connection",
                )

            with StoreClient(host, port) as client:
                metrics = client.metrics()
                check(metrics.get("enabled") is True, "METRICS reports a live registry")
                snapshot = metrics["metrics"]
                counters = snapshot["counters"]
                for name in (
                    "wal.frames_appended",
                    "wal.bytes_appended",
                    "server.requests",
                    "server.connections",
                    "server.errors.bad_command",
                    "server.errors.not_found",
                    "server.errors.oversized_frame",
                    "store.compactions",
                ):
                    check(
                        counters.get(name, 0) > 0,
                        f"counter {name} > 0",
                    )
                histograms = snapshot["histograms"]
                check(
                    any(name.startswith("service.latency.")
                        for name in histograms),
                    "per-command latency histograms present",
                )
                for command, count in sorted(sent.items()):
                    observed = histograms.get(
                        f"service.latency.{command}", {}
                    ).get("count", 0)
                    check(
                        observed == count,
                        f"service.latency.{command} counted {observed} of "
                        f"{count} request(s) sent",
                    )
                check(
                    snapshot["gauges"].get("sharded.shard_count", 0) >= 1,
                    "shard-count gauge present",
                )
                exposition = metrics.get("exposition", "")
                check(
                    "# TYPE repro_wal_frames_appended_total counter"
                    in exposition,
                    "exposition text carries TYPE lines",
                )
                stats = client.stats()
                check(
                    stats.get("last_compaction_error", "missing") is None,
                    "STATS: no compaction error",
                )
                check(
                    bool(stats.get("shard_statistics")),
                    "STATS: shard statistics present",
                )
                check(
                    stats.get("error_counts", {}).get("bad_command", 0) >= 1,
                    "STATS: error families accounted",
                )

            # The user-facing path: `python -m repro.store stats` against
            # this live server must exit 0 and print something.
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = _cmd_stats(argparse.Namespace(
                    host=host, port=port, timeout=10.0
                ))
            rendered = buffer.getvalue()
            check(
                code == 0 and bool(rendered.strip()),
                "stats CLI exited 0 with non-empty output",
            )
            check(
                "repro_wal_frames_appended_total" in rendered,
                "stats CLI rendered the exposition text",
            )
        service.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if failures:
        print(f"obs-smoke: {len(failures)} failure(s)")
        return 1
    print("obs-smoke: every metric family observed over the wire")
    return 0


def _parse_key(text: str | None):
    """A CLI key: JSON when it parses, the raw string otherwise."""
    if text is None:
        return None
    import json

    try:
        return json.loads(text)
    except ValueError:
        return text


def _cmd_scan(args: argparse.Namespace) -> int:
    low = _parse_key(args.low)
    high = _parse_key(args.high)
    emitted = 0
    pages = 0
    with _open(args) as store:
        if args.page_size:
            # The paginated path: one bounded cursor page per round trip,
            # resumed strictly past the previous page's last key — the
            # same protocol StoreService.scan_pages serves under its
            # per-page lock holds.
            after = None
            while True:
                remaining = (
                    None if args.limit is None else args.limit - emitted
                )
                if remaining is not None and remaining <= 0:
                    break
                size = args.page_size
                if remaining is not None:
                    size = min(size, remaining)
                page = list(store.range(low, high, limit=size, after=after))
                if not page:
                    break
                pages += 1
                for key, value in page:
                    print(f"{key}\t{value}")
                emitted += len(page)
                after = page[-1][0]
        else:
            for key, value in store.range(low, high, limit=args.limit):
                print(f"{key}\t{value}")
                emitted += 1
            pages = 1 if emitted else 0
    print(f"scanned {emitted} key(s) in {pages} page(s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.store")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(command: argparse.ArgumentParser) -> None:
        command.add_argument("--dir", default=None, help="store directory")
        command.add_argument(
            "--algorithm",
            choices=sorted(SHARD_FACTORIES),
            default=None,
            help="shard algorithm (first open only; validated on reopen)",
        )
        command.add_argument("--shard-capacity", type=int, default=None)
        command.add_argument(
            "--sync", choices=["always", "batch", "never"], default="always"
        )
        command.add_argument(
            "--create",
            action="store_true",
            help="initialize a new store when --dir holds none",
        )

    recover = sub.add_parser("recover", help="open the store and report recovery")
    common(recover)
    recover.set_defaults(func=_cmd_recover)

    snapshot = sub.add_parser("snapshot", help="write a checkpoint")
    common(snapshot)
    snapshot.set_defaults(func=_cmd_snapshot)

    compact = sub.add_parser("compact", help="checkpoint + truncate the WAL")
    common(compact)
    compact.set_defaults(func=_cmd_compact)

    verify = sub.add_parser("verify", help="check every integrity invariant")
    common(verify)
    verify.add_argument(
        "--factory-sweep",
        action="store_true",
        help="round-trip a seeded workload for every registered algorithm",
    )
    verify.add_argument("--sweep-operations", type=int, default=400)
    verify.set_defaults(func=_cmd_verify)

    scan = sub.add_parser("scan", help="stream a key interval (paginated)")
    common(scan)
    scan.add_argument("--low", default=None, help="lowest key (JSON; inclusive)")
    scan.add_argument("--high", default=None, help="highest key (JSON; inclusive)")
    scan.add_argument("--limit", type=int, default=None, help="cap on emitted keys")
    scan.add_argument(
        "--page-size",
        type=int,
        default=None,
        help="scan in cursor pages of this many keys (the paginated path)",
    )
    scan.set_defaults(func=_cmd_scan)

    smoke = sub.add_parser(
        "replica-smoke",
        help="kill-and-restart replication convergence drill (CI job)",
    )
    smoke.add_argument(
        "--frames", type=int, default=1200, help="workload frames on the primary"
    )
    smoke.add_argument("--seed", type=int, default=20260730)
    smoke.set_defaults(func=_cmd_replica_smoke)

    stats = sub.add_parser(
        "stats", help="render a live server's STATS + METRICS over the wire"
    )
    stats.add_argument("--host", default="127.0.0.1")
    stats.add_argument("--port", type=int, required=True)
    stats.add_argument("--timeout", type=float, default=10.0)
    stats.set_defaults(func=_cmd_stats)

    obs_smoke = sub.add_parser(
        "obs-smoke",
        help="end-to-end metrics/tracing drill against a live server (CI job)",
    )
    obs_smoke.add_argument(
        "--frames", type=int, default=600, help="mixed-traffic operations"
    )
    obs_smoke.add_argument("--seed", type=int, default=20260730)
    obs_smoke.set_defaults(func=_cmd_obs_smoke)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
