"""Networked store and replication fences.

Four walls:

* **Protocol** — framing round-trips the full codec value space, rejects
  oversized and truncated messages instead of misreading them.
* **Serving** — every command works over the wire; errors come back typed
  (``KeyError`` parity with the local API, ``ReadOnlyError`` on replica
  writes); concurrent clients with disjoint key ranges merge exactly.
* **Replication convergence** — a seeded mixed workload runs on the
  primary while a replica streams; the replica is killed at parametrized
  points (mid-stream, mid-catch-up, behind a compaction horizon),
  restarted, and must converge to the primary's *byte-identical* state:
  same keys, same ``items()``, same composed labels, same per-shard
  physical layout — the same fingerprint the crash-injection differential
  uses.  The replica's WAL must be a verbatim suffix of the primary's.
* **Failover** — a promoted replica serves the primary's exact final
  state and accepts writes.
"""

from __future__ import annotations

import socket
import threading
import time
from pathlib import Path

import pytest

from repro.store import codec
from repro.store.client import ReadOnlyError, StoreClient, StoreClientError
from repro.store.harness import apply_to_store, fingerprint, make_ops, state_digest
from repro.store.protocol import (
    MAX_MESSAGE_BYTES,
    ProtocolError,
    decode_body,
    encode_message,
    recv_message,
    send_message,
)
from repro.store.replica import Replica
from repro.store.server import ServerThread
from repro.store.service import StoreService
from repro.store.store import WAL_FILENAME, DurableStore


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------
@pytest.fixture
def primary(tmp_path):
    """A served primary: (service, ServerThread) over a fresh store."""
    store = DurableStore(
        tmp_path / "primary", algorithm="classical", shard_capacity=32,
        sync_policy="never",
    )
    service = StoreService(store)
    with ServerThread(service) as server:
        yield service, server
    service.close()


def wait_for(predicate, timeout: float = 10.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError(f"timed out waiting for {message}")
        time.sleep(0.005)


# ---------------------------------------------------------------------------
# Protocol framing
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_round_trips_codec_value_space(self):
        from fractions import Fraction

        message = {
            "cmd": "PUT",
            "key": (1, Fraction(22, 7), "x"),
            "value": {b"\x00bytes": [None, True, -17, 3.5]},
            3: "int-keyed",
        }
        framed = encode_message(message)
        assert framed[:4] == len(framed[4:]).to_bytes(4, "big")
        assert decode_body(framed[4:]) == message

    def test_round_trips_over_a_real_socket(self):
        left, right = socket.socketpair()
        try:
            payload = {"cmd": "PING", "blob": "x" * 100_000}
            send_message(left, payload)
            assert recv_message(right) == payload
        finally:
            left.close()
            right.close()

    def test_oversized_length_prefix_is_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall((MAX_MESSAGE_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(ProtocolError, match="length prefix"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_truncated_body_is_rejected(self):
        left, right = socket.socketpair()
        try:
            framed = encode_message({"cmd": "PING"})
            left.sendall(framed[: len(framed) - 3])
            left.close()
            with pytest.raises(ProtocolError, match="closed"):
                recv_message(right)
        finally:
            right.close()

    def test_clean_eof_returns_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert recv_message(right) is None
        finally:
            right.close()

    def test_non_object_body_is_rejected(self):
        with pytest.raises(ProtocolError, match="object"):
            decode_body(codec.dumps([1, 2, 3]).encode())


# ---------------------------------------------------------------------------
# Serving: commands, typed errors, concurrent clients
# ---------------------------------------------------------------------------
def _send_mixed_requests(client: StoreClient, count: int) -> None:
    """``count`` requests cycling through every data command; every tenth
    one is a STATS.  Leaves one key per ten requests behind."""
    requests = [
        lambda i: client.put(i, i),
        lambda i: client.put_many([(i, i), (10**6 + i, i)]),
        lambda i: client.get(i - 2),
        lambda i: client.contains(i - 2),
        lambda i: client.range_scan(limit=8),
        lambda i: client.count_range(0, 10**5),
        lambda i: client.delete(i - 6),
        lambda i: client.delete_many([i - 6]),
        lambda i: client.size(),
        lambda i: client.stats(),
    ]
    for i in range(count):
        requests[i % len(requests)](i)
    assert client.size() == count // len(requests)


class TestStoreServer:
    def test_every_command_round_trips(self, primary):
        service, server = primary
        with StoreClient(*server.address) as client:
            assert client.ping() == 0
            client.put("alice", 1)
            assert client.put_many([("bob", 2), ("carol", 3)]) == 2
            assert client.get("bob") == 2
            assert client.get("nope", "fallback") == "fallback"
            with pytest.raises(KeyError):
                client.get("nope")
            assert client.contains("alice")
            assert not client.contains("nope")
            assert client.size() == 3
            assert client.count_range("a", "bz") == 2
            assert client.range_scan("b", "z") == [("bob", 2), ("carol", 3)]
            assert client.range_scan(limit=2) == [("alice", 1), ("bob", 2)]
            pages = list(client.scan_pages(page_size=2))
            assert [len(page) for page in pages] == [2, 1]
            assert [pair for page in pages for pair in page] == [
                ("alice", 1), ("bob", 2), ("carol", 3),
            ]
            client.delete("alice")
            assert client.delete_many(["bob"]) == 1
            with pytest.raises(KeyError):
                client.delete("alice")
            report = client.verify()
            assert report["keys"] == 1
            stats = client.stats()
            assert stats["last_lsn"] == service.store.last_lsn

    def test_unknown_command_and_bad_page_size(self, primary):
        _, server = primary
        with StoreClient(*server.address) as client:
            with pytest.raises(StoreClientError, match="unknown command"):
                client._call("FROBNICATE")
            with pytest.raises(StoreClientError, match="page_size"):
                client._call("SCAN_PAGES", page_size=10**9)
            with pytest.raises(StoreClientError, match="page_size"):
                client._call("SCAN_PAGES", page_size=0)

    def test_values_survive_the_wire_exactly(self, primary):
        from fractions import Fraction

        _, server = primary
        with StoreClient(*server.address) as client:
            value = {"frac": Fraction(1, 3), "tup": (1, (2, b"\xff"))}
            client.put(7, value)
            assert client.get(7) == value

    def test_concurrent_clients_merge_exactly(self, primary):
        service, server = primary
        clients = 4
        keys_each = 60
        errors: list[BaseException] = []

        def worker(slot: int) -> None:
            try:
                with StoreClient(*server.address) as client:
                    base = slot * 10**6
                    for i in range(keys_each):
                        if i % 10 == 9:
                            client.put_many(
                                [(base + 10**5 + i * 4 + j, j) for j in range(4)]
                            )
                        else:
                            client.put(base + i, f"c{slot}-{i}")
                        if i % 7 == 6:
                            scan = client.range_scan(base, base + 10**5)
                            keys = [key for key, _ in scan]
                            assert keys == sorted(keys)
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors[0]

        # Disjoint key ranges: the union is exact, and every client's
        # writes are all present.
        with StoreClient(*server.address) as client:
            assert client.size() == service.size()
            report = client.verify()
        per_client = keys_each - keys_each // 10 + (keys_each // 10) * 4
        assert report["keys"] == clients * per_client

    def test_failed_call_closes_the_connection(self, primary, monkeypatch):
        """A timed-out call must not leave its late answer to the next call."""
        service, server = primary
        service.put("slow", "slow-value")
        service.put("fast", "fast-value")
        real_get = service.get

        def slow_get(key, default=None):
            if key == "slow":
                time.sleep(0.5)
            return real_get(key, default)

        monkeypatch.setattr(service, "get", slow_get)
        client = StoreClient(*server.address, timeout=0.2)
        try:
            with pytest.raises(TimeoutError):
                client.get("slow")
            time.sleep(0.6)  # the late answer has arrived by now
            with pytest.raises(OSError):
                client.get("fast")
        finally:
            client.close()
        with StoreClient(*server.address) as fresh:
            assert fresh.get("fast") == "fast-value"

    def test_nan_key_put_is_a_bad_request(self, primary):
        service, server = primary
        with StoreClient(*server.address) as client:
            client.put_many([(1.0, "v"), (2.0, "v"), (3.0, "v")])
            last_lsn = client.ping()
            with pytest.raises(StoreClientError) as refused:
                client.put(float("nan"), "x")
            assert refused.value.code == "bad_request"
            assert client.ping() == last_lsn  # no frame left behind
            assert list(client.range_scan(2.0, 3.0)) == [(2.0, "v"), (3.0, "v")]
            client.put(4.0, "v")  # the connection stays usable
        service.store.verify()
        assert service.store.keys() == [1.0, 2.0, 3.0, 4.0]

    def test_unencodable_request_keeps_the_connection(self, primary):
        _, server = primary
        with StoreClient(*server.address) as client:
            with pytest.raises(TypeError):
                client.put("k", object())
            client.put("k", "v")
            assert client.get("k") == "v"

    def test_service_calls_run_on_the_server_thread(self, primary, monkeypatch):
        """Requests and the replication feed call the service on the loop's
        own thread."""
        service, server = primary
        callers: set[threading.Thread] = set()
        for name in (
            "get", "contains", "put", "delete", "put_many", "delete_many",
            "range_scan", "count_range", "size", "shard_statistics",
            "snapshot_archive", "ship_frames",
        ):
            method = getattr(service, name)

            def recorded(*args, _method=method, **kwargs):
                callers.add(threading.current_thread())
                return _method(*args, **kwargs)

            monkeypatch.setattr(service, name, recorded)
        with StoreClient(*server.address) as client:
            _send_mixed_requests(client, 100)
            with socket.create_connection(server.address, timeout=5) as sock:
                send_message(sock, {"cmd": "REPLICATE", "after": -1})
                assert recv_message(sock)["mode"] == "snapshot"
                assert recv_message(sock)["kind"] == "snapshot"
                client.put(10**7, "after-snapshot")
                while recv_message(sock)["kind"] != "frames":
                    pass
        wait_for(lambda: server.replica_count == 0, message="stream closed")
        assert callers == {server._thread}

    def test_serving_requests_starts_no_thread(self, primary, monkeypatch):
        _, server = primary
        started: list[threading.Thread] = []
        real_start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        with StoreClient(*server.address) as client:
            _send_mixed_requests(client, 100)
        assert started == []

    def test_read_waits_out_an_exclusive_lock_holder(self, primary):
        """A GET sent while another thread holds the service lock blocks
        the loop until the release, then answers."""
        service, server = primary
        service.put("k", "v")
        answers: list = []

        def read() -> None:
            with StoreClient(*server.address) as client:
                answers.append(client.get("k"))

        reader = threading.Thread(target=read)
        service._lock.acquire()
        try:
            reader.start()
            time.sleep(0.2)
            assert answers == []
        finally:
            service._lock.release()
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert answers == ["v"]
        with StoreClient(*server.address) as client:
            assert client.get("k") == "v"

    def test_in_process_writer_does_not_stall_the_loop(self, primary):
        """While an in-process thread puts back to back for 1.5 s, every
        GET and PING round trip stays under 250 ms: each release hands the
        lock to the waiting loop thread, so a GET waits out a put or two,
        not the writer's whole run."""
        service, server = primary
        service.put(-1, "v")
        started_writing = threading.Event()
        done = threading.Event()

        def writer() -> None:
            deadline = time.monotonic() + 1.5
            key = 0
            started_writing.set()
            while time.monotonic() < deadline:
                service.put(key, key)
                key += 1
            done.set()

        thread = threading.Thread(target=writer)
        worst = 0.0
        rounds = 0
        with StoreClient(*server.address) as client:
            thread.start()
            assert started_writing.wait(timeout=10)
            while not done.is_set():
                for call in (lambda: client.get(-1), client.ping):
                    started = time.perf_counter()
                    call()
                    worst = max(worst, time.perf_counter() - started)
                rounds += 1
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert worst < 0.25, f"a round trip took {worst * 1000:.0f} ms"
        assert rounds >= 10

    def test_read_only_server_rejects_mutations(self, tmp_path):
        store = DurableStore(tmp_path / "ro", sync_policy="never")
        service = StoreService(store)
        with ServerThread(service, read_only=True) as server:
            with StoreClient(*server.address) as client:
                with pytest.raises(ReadOnlyError):
                    client.put("x", 1)
                with pytest.raises(ReadOnlyError):
                    client.delete_many(["x"])
                assert client.size() == 0  # reads still served
        service.close()

    def test_replicate_from_ahead_of_primary_is_rejected(self, primary):
        _, server = primary
        sock = socket.create_connection(server.address, timeout=5)
        try:
            send_message(sock, {"cmd": "REPLICATE", "after": 999})
            response = recv_message(sock)
            assert response["ok"] is False
            assert "ahead" in response["error"]
        finally:
            sock.close()


# ---------------------------------------------------------------------------
# Replication: bootstrap, streaming, kill-point convergence, catch-up
# ---------------------------------------------------------------------------
def _converged(service: StoreService, replica: Replica) -> None:
    """The byte-identical convergence assertion: same fingerprint."""
    replica.wait_caught_up(service.store.last_lsn)
    assert fingerprint(replica.service.store.map) == fingerprint(
        service.store.map
    )
    assert state_digest(replica.service.store.map) == state_digest(
        service.store.map
    )
    replica.service.verify()


class TestReplication:
    FRAMES = 90

    @pytest.mark.parametrize("kill_fraction", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("compact_between", [False, True])
    def test_kill_and_restart_converges_exactly(
        self, primary, tmp_path, kill_fraction, compact_between
    ):
        """Kill the replica at a workload point, write on, restart it.

        With ``compact_between`` the primary compacts while the replica is
        away, moving the durable horizon past the replica's LSN — the
        restart must fall back to snapshot bootstrap.  Either way the
        restarted replica converges to the primary's exact state.
        """
        service, server = primary
        ops = make_ops(self.FRAMES, seed=31 + int(kill_fraction * 10))
        kill_at = int(self.FRAMES * kill_fraction)

        replica = Replica(
            tmp_path / "replica", server.address, sync_policy="never"
        ).start()
        replica.wait_ready()
        for op in ops[:kill_at]:
            apply_to_store(service, op)
        _converged(service, replica)
        replica.stop()
        wait_for(
            lambda: server.replica_count == 0, message="replica disconnect"
        )

        for op in ops[kill_at:]:
            apply_to_store(service, op)
        if compact_between:
            service.compact()
            assert service.store.durable_horizon == service.store.last_lsn

        restarted = Replica(
            tmp_path / "replica", server.address, sync_policy="never"
        ).start()
        restarted.wait_ready()
        _converged(service, restarted)
        if compact_between:
            # The log tail was gone: only a snapshot could bridge the gap.
            assert restarted.bootstrap_count == 1
        else:
            # The log still held the tail: no re-bootstrap, pure catch-up,
            # and the replica's WAL is a verbatim suffix of the primary's.
            assert restarted.bootstrap_count == 0
            primary_wal = (service.store.directory / WAL_FILENAME).read_bytes()
            replica_wal = (Path(tmp_path) / "replica" / WAL_FILENAME).read_bytes()
            assert replica_wal and primary_wal.endswith(replica_wal)
        restarted.stop()

    def test_kill_mid_catch_up_then_restart_converges(self, primary, tmp_path):
        """The CI smoke scenario: kill the puller *during* catch-up."""
        service, server = primary
        replica = Replica(
            tmp_path / "replica", server.address, sync_policy="never"
        ).start()
        replica.wait_ready()
        for op in make_ops(20, seed=76):
            apply_to_store(service, op)
        _converged(service, replica)
        base = replica.last_applied_lsn
        replica.stop()
        wait_for(
            lambda: server.replica_count == 0, message="replica disconnect"
        )

        for op in make_ops(150, seed=77):
            apply_to_store(service, op)

        restarted = Replica(
            tmp_path / "replica", server.address, sync_policy="never"
        ).start()
        # Kill as soon as catch-up has made *some* progress — with luck
        # mid-chunk (the puller checks its stop flag between frames); if
        # the stream already drained, the point still covers restart
        # safety after an abrupt stop.
        wait_for(
            lambda: restarted.last_applied_lsn > base,
            message="catch-up progress",
        )
        restarted.stop()
        assert base < restarted.last_applied_lsn <= service.store.last_lsn

        final = Replica(
            tmp_path / "replica", server.address, sync_policy="never"
        ).start()
        final.wait_ready()
        _converged(service, final)
        final.stop()

    def test_replica_attached_during_client_writes_converges(
        self, primary, tmp_path
    ):
        """Clients keep writing over the wire while a replica bootstraps
        and streams; it still converges to the primary's exact state."""
        service, server = primary
        stop = threading.Event()
        errors: list[BaseException] = []

        def write(slot: int) -> None:
            try:
                with StoreClient(*server.address) as client:
                    i = 0
                    while not stop.is_set() and i < 5000:
                        if i % 5 == 4:  # drop the key written just before
                            client.delete(slot * 10**6 + (i - 1) % 60)
                        else:
                            client.put(slot * 10**6 + i % 60, f"{slot}-{i}")
                        i += 1
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        writers = [
            threading.Thread(target=write, args=(slot,)) for slot in range(3)
        ]
        for thread in writers:
            thread.start()
        try:
            wait_for(lambda: service.store.last_lsn >= 50, message="writes")
            replica = Replica(
                tmp_path / "replica", server.address, sync_policy="never"
            ).start()
            replica.wait_ready()
            target = service.store.last_lsn + 100
            wait_for(lambda: service.store.last_lsn >= target, message="writes")
        finally:
            stop.set()
            for thread in writers:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in writers)
        assert not errors, errors[0]
        _converged(service, replica)
        replica.stop()

    def test_live_streaming_keeps_lag_bounded(self, primary, tmp_path):
        service, server = primary
        replica = Replica(
            tmp_path / "replica", server.address, sync_policy="never"
        ).start()
        replica.wait_ready()
        for op in make_ops(60, seed=5):
            apply_to_store(service, op)
        _converged(service, replica)
        assert replica.lag == 0
        assert replica.primary_lsn == service.store.last_lsn
        replica.stop()

    def test_replica_serves_reads_and_rejects_writes(self, primary, tmp_path):
        service, server = primary
        for op in make_ops(40, seed=9):
            apply_to_store(service, op)
        replica = Replica(
            tmp_path / "replica", server.address, serve=True,
            sync_policy="never",
        ).start()
        replica.wait_ready()
        replica.wait_caught_up(service.store.last_lsn)
        with StoreClient(*replica.address) as client:
            assert client.size() == service.size()
            scan = client.range_scan()
            assert scan == service.range_scan()
            with pytest.raises(ReadOnlyError):
                client.put("x", 1)
        replica.stop()

    def test_retention_floor_tracks_connected_replicas(self, primary, tmp_path):
        """Compaction keeps the tail a live replica still streams."""
        service, server = primary
        replica = Replica(
            tmp_path / "replica", server.address, sync_policy="never"
        ).start()
        replica.wait_ready()
        for op in make_ops(30, seed=13):
            apply_to_store(service, op)
        _converged(service, replica)
        acked = service.store.last_lsn
        for op in make_ops(10, seed=14, key_space=100):
            apply_to_store(service, op)
        # The replica acked `acked` at the latest; compaction must keep
        # the horizon at or below the floor, never past a live stream.
        service.compact()
        assert service.store.durable_horizon <= service.store.last_lsn
        assert service.store.durable_horizon >= 0
        _converged(service, replica)
        assert replica.bootstrap_count == 1  # only the initial bootstrap
        replica.stop()

    def test_promote_serves_the_primary_final_state(self, primary, tmp_path):
        """Failover: the promoted replica is the primary, exactly."""
        service, server = primary
        ops = make_ops(70, seed=21)
        replica = Replica(
            tmp_path / "replica", server.address, serve=True,
            sync_policy="never",
        ).start()
        replica.wait_ready()
        for op in ops:
            apply_to_store(service, op)
        _converged(service, replica)
        expected = fingerprint(service.store.map)

        promoted = replica.promote()
        # Exact final state of the old primary, by fingerprint.
        assert fingerprint(promoted.store.map) == expected
        # The write path is open — over the wire too.
        with StoreClient(*replica.address) as client:
            client.put(10**9 + 7, "written-after-promotion")
            assert client.get(10**9 + 7) == "written-after-promotion"
        assert promoted.get(10**9 + 7) == "written-after-promotion"
        promoted.verify()
        replica.stop()

    def test_promoted_replica_recovers_durably(self, primary, tmp_path):
        """Writes accepted after promotion survive a restart."""
        service, server = primary
        for op in make_ops(25, seed=3):
            apply_to_store(service, op)
        replica = Replica(
            tmp_path / "replica", server.address, sync_policy="never"
        ).start()
        replica.wait_ready()
        _converged(service, replica)
        promoted = replica.promote()
        promoted.put(10**9 + 1, "after-failover")
        expected = fingerprint(promoted.store.map)
        replica.stop()

        reopened = DurableStore(tmp_path / "replica", sync_policy="never")
        assert fingerprint(reopened.map) == expected
        reopened.verify()
        reopened.close()
