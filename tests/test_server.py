"""Networked store and replication fences.

Five walls:

* **Protocol** — framing round-trips the full codec value space, rejects
  oversized and truncated messages instead of misreading them.
* **Serving** — every command works over the wire; errors come back typed
  (``KeyError`` parity with the local API, ``ReadOnlyError`` on replica
  writes); concurrent clients with disjoint key ranges merge exactly:
  every ``(key, value)`` of their puts, upserts and deletes.
* **Transport** — requests split across reads or packed into one are
  answered in order; an undecodable body closes its connection and is
  counted; a client that pipelines without reading holds at most one
  high-water mark of answers in the server; stopping the server does not
  wait for connected clients.
* **Replication convergence** — a seeded mixed workload runs on the
  primary while a replica streams; the replica is killed at parametrized
  points (mid-stream, mid-catch-up, behind a compaction horizon),
  restarted, and must converge to the primary's *byte-identical* state:
  same keys, same ``items()``, same composed labels, same per-shard
  physical layout — the same fingerprint the crash-injection differential
  uses.  The replica's WAL must be a verbatim suffix of the primary's.
  A bootstrap fsyncs every file it installs before the store opens, and
  refuses a shipped file name that leaves the snapshot directory.
* **Failover** — a promoted replica serves the primary's exact final
  state and accepts writes.
"""

from __future__ import annotations

import asyncio
import gc
import socket
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry
from repro.store import codec
from repro.store import snapshot as snapshot_io
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
from repro.store.snapshot import (
    DATA_FILENAME,
    MANIFEST_FILENAME,
    SNAPSHOT_DIR_NAME,
    list_snapshots,
)
from repro.store.store import (
    CONFIG_FILENAME,
    HORIZON_FILENAME,
    WAL_FILENAME,
    DurableStore,
    StoreError,
    StoreLockedError,
)
from tests.conftest import record_syscalls, synced


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
        steps = 60
        errors: list[BaseException] = []
        models: list[dict] = [{} for _ in range(clients)]

        def worker(slot: int) -> None:
            model = models[slot]
            try:
                with StoreClient(*server.address) as client:
                    base = slot * 10**6
                    last_put = None
                    for i in range(steps):
                        if i % 10 == 9:
                            items = [(base + 10**5 + i * 4 + j, j) for j in range(4)]
                            client.put_many(items)
                            model.update(items)
                        elif i % 5 == 4 and last_put is not None:
                            client.delete(last_put)
                            del model[last_put]
                            last_put = None
                        else:
                            # Keys wrap every 25 steps: later puts overwrite
                            # values and bring deleted keys back.
                            key = base + i % 25
                            client.put(key, f"c{slot}-{i}")
                            model[key] = f"c{slot}-{i}"
                            last_put = key
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

        # Disjoint key ranges commute: the merged state is exactly the
        # union of the clients' models, every key with its last value.
        expected = sorted(item for model in models for item in model.items())
        with StoreClient(*server.address) as client:
            assert client.range_scan() == expected
            assert client.size() == service.size()
            report = client.verify()
        assert report["keys"] == len(expected)

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
# Transport: frames across reads, pipelining, flow control, shutdown
# ---------------------------------------------------------------------------
#: Keys preloaded for the pipelining tests; one RANGE answer of them all
#: is ~140 KB, twice the transport's write high-water mark.
_PIPELINE_KEYS = 4096


def _on_loop(server: ServerThread, call):
    """``call()`` run on the server's event-loop thread; its result."""

    async def run():
        return call()

    return asyncio.run_coroutine_threadsafe(run(), server._loop).result(timeout=10)


def _transport_of(server: ServerThread, sock: socket.socket):
    """The server's transport for the client socket ``sock``; ``None``
    until the loop has accepted it.  Call on the loop thread."""
    for transport in server.server._transports:
        if transport.get_extra_info("peername") == sock.getsockname():
            return transport
    return None


def _stopped_reading(server: ServerThread, sock: socket.socket) -> bool:
    transport = _transport_of(server, sock)
    return transport is not None and not transport.is_reading()


def _pipeline_unread_ranges(server: ServerThread, sock: socket.socket) -> int:
    """Send RANGE requests without reading until the server stops reading
    from ``sock``; returns how many were sent (request ``i`` asks for
    ``_PIPELINE_KEYS - i`` items)."""
    count = 96  # ~13 MB of answers: more than the loopback socket buffers
    sock.sendall(
        b"".join(
            encode_message({"cmd": "RANGE", "limit": _PIPELINE_KEYS - i})
            for i in range(count)
        )
    )
    wait_for(
        lambda: _on_loop(server, lambda: _stopped_reading(server, sock)),
        message="the server to stop reading",
    )
    return count


@pytest.fixture
def wait_closed_waits_for_connections(monkeypatch):
    """asyncio's ``Server.wait_closed()`` as from Python 3.12.1, where it
    also waits for every accepted connection to close.  Before, it returns
    at once, which would hide a ``stop()`` that leaves a connection open."""
    if sys.version_info < (3, 12, 1):

        async def wait_closed(self):
            if self._waiters is None:
                return
            waiter = self._loop.create_future()
            self._waiters.append(waiter)
            await waiter

        monkeypatch.setattr(asyncio.base_events.Server, "wait_closed", wait_closed)


class TestTransport:
    def test_two_requests_in_one_send_get_two_answers_in_order(self, primary):
        service, server = primary
        service.put(7, "seven")
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(
                encode_message({"cmd": "GET", "key": 7})
                + encode_message({"cmd": "SIZE"})
            )
            assert recv_message(sock) == {"ok": True, "found": True, "value": "seven"}
            assert recv_message(sock) == {"ok": True, "size": 1}

    def test_request_sent_one_byte_per_send_is_answered(self, primary):
        service, server = primary
        service.put(7, "seven")
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for byte in encode_message({"cmd": "GET", "key": 7}):
                sock.send(bytes([byte]))
                time.sleep(0.001)
            assert recv_message(sock) == {"ok": True, "found": True, "value": "seven"}

    def test_undecodable_frames_close_the_connection_and_are_counted(
        self, tmp_path
    ):
        store = DurableStore(
            tmp_path / "s", sync_policy="never", registry=MetricsRegistry()
        )
        service = StoreService(store)

        def framed(body: bytes) -> bytes:
            return len(body).to_bytes(4, "big") + body

        frames = [
            framed(b"\xff\xfe not UTF-8"),
            framed(codec.dumps([1, 2, 3]).encode()),
            encode_message({"cmd": "PING"})[:-3],  # a hang-up inside the body
        ]
        with ServerThread(service) as server:
            for sent, frame in enumerate(frames, start=1):
                with socket.create_connection(server.address, timeout=5) as sock:
                    sock.sendall(frame)
                    sock.shutdown(socket.SHUT_WR)
                    assert sock.recv(1) == b""
                assert server.server.error_counts()["protocol"] == sent
        service.close()

    def test_pipelining_without_reading_bounds_the_write_buffer(self, primary):
        """Reading pauses at the transport's high-water mark, so the
        server holds at most one answer beyond it; every answer still
        arrives, in order, once the client reads."""
        service, server = primary
        service.put_many((key, "v" * 24) for key in range(_PIPELINE_KEYS))
        largest = len(
            encode_message(
                {"ok": True, "items": [[key, "v" * 24] for key in range(_PIPELINE_KEYS)]}
            )
        )
        with socket.create_connection(server.address, timeout=10) as sock:
            count = _pipeline_unread_ranges(server, sock)
            time.sleep(0.1)  # a server still answering would grow its buffer
            buffered, (_, high) = _on_loop(
                server,
                lambda: (
                    _transport_of(server, sock).get_write_buffer_size(),
                    _transport_of(server, sock).get_write_buffer_limits(),
                ),
            )
            assert high <= buffered <= high + largest
            for index in range(count):
                response = recv_message(sock)
                assert len(response["items"]) == _PIPELINE_KEYS - index
            assert _on_loop(server, lambda: _transport_of(server, sock).is_reading())

    def test_stop_returns_while_clients_are_connected(
        self, tmp_path, wait_closed_waits_for_connections
    ):
        """Neither an idle client nor one the server cannot write to
        keeps ``stop()`` waiting."""
        store = DurableStore(tmp_path / "s", sync_policy="never")
        service = StoreService(store)
        service.put_many((key, "v" * 24) for key in range(_PIPELINE_KEYS))
        server = ServerThread(service).start()
        idle = StoreClient(*server.address)
        stuck = socket.create_connection(server.address, timeout=10)
        try:
            idle.ping()
            _pipeline_unread_ranges(server, stuck)
            stopper = threading.Thread(target=server.stop, daemon=True)
            stopper.start()
            stopper.join(timeout=10)
            assert not stopper.is_alive()
        finally:
            idle.close()
            stuck.close()
            service.close()

    def test_stop_returns_while_clients_keep_connecting(
        self, tmp_path, wait_closed_waits_for_connections
    ):
        """A connection accepted just before ``stop()`` closes the
        listener, but made after ``stop()`` aborted the open ones, is
        dropped too."""
        service = StoreService(DurableStore(tmp_path / "s", sync_policy="never"))
        sockets: list[socket.socket] = []
        try:
            for _ in range(10):
                _stop_while_clients_connect(service, sockets)
        finally:
            for sock in sockets:
                sock.close()
            service.close()

    def test_stop_leaves_no_transport_open(
        self, tmp_path, wait_closed_waits_for_connections
    ):
        """``stop()`` closes every connection accepted before it, those
        whose transport asyncio had not made yet included: the garbage
        collector finds no transport or socket left open."""
        service = StoreService(DurableStore(tmp_path / "s", sync_policy="never"))
        sockets: list[socket.socket] = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            try:
                for _ in range(10):
                    _stop_while_clients_connect(service, sockets)
            finally:
                for sock in sockets:
                    sock.close()
                service.close()
            gc.collect()
        unclosed = [
            str(warning.message)
            for warning in caught
            if issubclass(warning.category, ResourceWarning)
        ]
        assert unclosed == [], f"{len(unclosed)} left open, e.g. {unclosed[:2]}"


def _stop_while_clients_connect(service: StoreService, sockets: list) -> None:
    """Start a server, connect to it in a loop from another thread, and
    stop it mid-stream; ``stop()`` must return within 10 s.  The client
    sockets of the previous round are closed first and this round's are
    left in ``sockets``."""
    for sock in sockets:
        sock.close()
    sockets.clear()
    server = ServerThread(service).start()
    address = server.address
    done = threading.Event()

    def connect_until_done() -> None:
        while not done.is_set():
            try:
                sockets.append(socket.create_connection(address, timeout=1))
            except OSError:
                pass

    connector = threading.Thread(target=connect_until_done)
    connector.start()
    time.sleep(0.01)
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=10)
    done.set()
    connector.join(timeout=10)
    assert not stopper.is_alive()
    assert not connector.is_alive()


# ---------------------------------------------------------------------------
# Replication: bootstrap, streaming, kill-point convergence, catch-up
# ---------------------------------------------------------------------------
class _FakePrimary:
    """A listener that answers every ``REPLICATE`` with a snapshot
    handshake and ``files`` as the checkpoint of lsn 5, then waits for the
    replica to hang up.  ``connections`` counts the handshakes."""

    def __init__(self, files: dict[str, str]) -> None:
        self.files = files
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._serve)

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()

    def __enter__(self) -> "_FakePrimary":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._done.set()
        self._thread.join(timeout=10)
        self._listener.close()
        assert not self._thread.is_alive()

    def _serve(self) -> None:
        while not self._done.is_set():
            try:
                connection, _ = self._listener.accept()
            except socket.timeout:
                continue
            with connection:
                connection.settimeout(10)
                try:
                    recv_message(connection)  # the REPLICATE handshake
                    self.connections += 1
                    send_message(connection, {
                        "ok": True, "mode": "snapshot", "primary_lsn": 5,
                        "algorithm": "classical", "shard_capacity": 32,
                    })
                    send_message(connection, {
                        "kind": "snapshot", "lsn": 5, "files": self.files,
                    })
                    recv_message(connection)  # None once the replica hangs up
                except OSError:
                    pass


def _converged(service: StoreService, replica: Replica) -> None:
    """The byte-identical convergence assertion: same fingerprint."""
    replica.wait_caught_up(service.store.last_lsn)
    assert fingerprint(replica.service.store.map) == fingerprint(
        service.store.map
    )
    assert state_digest(replica.service.store.map) == state_digest(
        service.store.map
    )


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

    def test_caught_up_frame_is_in_the_map(self, primary, tmp_path):
        """``wait_caught_up(n)`` returns only after frame ``n``'s apply has
        returned: with every apply slowed down, a direct read of the
        replica's map (no service lock) still sees frame ``n``'s key."""
        service, server = primary
        service.put(0, "zero")
        replica = Replica(
            tmp_path / "replica", server.address, sync_policy="never"
        ).start()
        replica.wait_ready()
        replica.wait_caught_up(service.store.last_lsn)
        store = replica.service.store
        apply = store._apply

        def slow_apply(op, payload):
            time.sleep(0.05)
            apply(op, payload)

        store._apply = slow_apply
        for key in range(1, 4):
            service.put(key, str(key))
            replica.wait_caught_up(service.store.last_lsn)
            assert key in store.map
        replica.stop()

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

    def test_replica_behind_a_damaged_covered_frame_bootstraps(self, tmp_path):
        """Regression: a primary that recovers past a damaged frame its
        newest checkpoint covers moves its horizon to that checkpoint, so
        a replica behind it bootstraps; it used to reconnect for ever,
        sent a ``restart`` each time the stream skipped its next LSN."""
        directory = tmp_path / "primary"
        store = DurableStore(
            directory, algorithm="classical", shard_capacity=32,
            sync_policy="never",
        )
        service = StoreService(store)
        with ServerThread(service) as server:
            for key in range(6):
                service.put(key, f"v{key}")
            replica = Replica(
                tmp_path / "replica", server.address, sync_policy="never"
            ).start()
            replica.wait_caught_up(6)
            replica.stop()
        for key in range(6, 10):
            service.put(key, f"v{key}")
        store.snapshot()                    # covers lsn 1..10
        service.close()
        wal_path = directory / WAL_FILENAME
        lines = wal_path.read_bytes().splitlines(keepends=True)
        damaged = lines[6].replace(b'"key":6', b'"key":0')  # frame 7
        assert damaged != lines[6]
        wal_path.write_bytes(b"".join(lines[:6] + [damaged] + lines[7:]))

        service = StoreService(DurableStore(directory, sync_policy="never"))
        assert service.store.durable_horizon == 10
        with ServerThread(service) as server:
            service.put(100, "a")
            restarted = Replica(
                tmp_path / "replica", server.address, sync_policy="never"
            ).start()
            restarted.wait_ready()
            _converged(service, restarted)
            assert restarted.bootstrap_count == 1
            restarted.stop()
        service.close()

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

    def test_bootstrap_fsyncs_every_installed_file_before_opening(
        self, primary, tmp_path, monkeypatch
    ):
        """The manifest, the data file and the horizon are fsynced before
        their rename, the renames' directories after it, and all of them
        and the config before the replica's store opens: a power cut
        cannot leave an installed file empty behind its directory entry."""
        service, server = primary
        for op in make_ops(40, seed=43):
            apply_to_store(service, op)
        service.compact()  # the bootstrap then only reads the primary
        directory = tmp_path / "replica"
        with record_syscalls() as events:
            real_load = snapshot_io.load_newest_valid

            def opening(store_dir):
                events.append(("open", Path(store_dir)))
                return real_load(store_dir)

            monkeypatch.setattr(snapshot_io, "load_newest_valid", opening)
            replica = Replica(directory, server.address, sync_policy="never").start()
            try:
                replica.wait_ready()
            finally:
                replica.stop()

        def position(event) -> int:
            assert event in events, f"{event} never happened"
            return events.index(event)

        snapshot = list_snapshots(directory)[-1].path
        horizon = directory / HORIZON_FILENAME
        opened = position(("open", directory))
        for installed, renamed in (
            (snapshot / MANIFEST_FILENAME, snapshot),
            (snapshot / DATA_FILENAME, snapshot),
            (horizon, horizon),
        ):
            assert position(synced(installed)) < position(("replace", renamed)) < opened
        assert position(("replace", snapshot)) < position(
            synced(directory / SNAPSHOT_DIR_NAME)
        ) < position(("replace", horizon)) < position(synced(directory)) < opened
        assert position(synced(directory / CONFIG_FILENAME)) < opened

    @pytest.mark.parametrize(
        "name", ["../escaped", "nested/file", "back\\slash", ".hidden"]
    )
    def test_unsafe_shipped_file_name_is_refused(self, tmp_path, name):
        """A snapshot payload naming a file outside the snapshot directory
        is a protocol error, and nothing of the payload is written."""
        errors: list[BaseException] = []
        with _FakePrimary({MANIFEST_FILENAME: "{}", name: "planted"}) as fake:
            replica = Replica(
                tmp_path / "replica", fake.address,
                reconnect_seconds=60.0, on_error=errors.append,
            ).start()
            try:
                wait_for(lambda: errors, message="the refusal")
            finally:
                replica.stop()
        assert isinstance(errors[0], ProtocolError)
        assert "unsafe name" in str(errors[0])
        assert [path for path in tmp_path.rglob("*") if path.is_file()] == []

    def test_bootstrap_that_does_not_open_is_retried(self, tmp_path):
        """A shipped checkpoint that installs but does not open (a manifest
        of ``{}`` for lsn 5: recovery ends at lsn 0, below the horizon)
        is an error the puller reports and retries, not its end."""
        errors: list[BaseException] = []
        with _FakePrimary({MANIFEST_FILENAME: "{}"}) as fake:
            replica = Replica(
                tmp_path / "replica", fake.address, sync_policy="never",
                reconnect_seconds=0.01, on_error=errors.append,
            ).start()
            try:
                wait_for(lambda: fake.connections >= 3, message="retries")
                assert replica._thread.is_alive()
            finally:
                replica.stop()
        assert errors and all(isinstance(error, StoreError) for error in errors)

    def test_restart_after_a_bootstrap_that_did_not_open_asks_the_primary(
        self, tmp_path
    ):
        """What a bootstrap that did not open leaves behind does not stop
        a restarted replica before it contacts the primary."""
        errors: list[BaseException] = []
        directory = tmp_path / "replica"
        with _FakePrimary({MANIFEST_FILENAME: "{}"}) as fake:
            replica = Replica(
                directory, fake.address, sync_policy="never",
                reconnect_seconds=60.0, on_error=errors.append,
            ).start()
            try:
                wait_for(lambda: errors, message="the failed bootstrap")
            finally:
                replica.stop()
            restarted = Replica(
                directory, fake.address, sync_policy="never",
                reconnect_seconds=60.0,
            ).start()
            try:
                wait_for(
                    lambda: fake.connections == 2,
                    message="the restarted replica to contact the primary",
                )
            finally:
                restarted.stop()

    @staticmethod
    def _stopped_replica(service, server, directory: Path) -> None:
        """Bootstrap a replica into ``directory``, converge it, stop it."""
        for key in range(40):
            service.put(key, key)
        replica = Replica(directory, server.address, sync_policy="never").start()
        try:
            replica.wait_ready()
            _converged(service, replica)
        finally:
            replica.stop()
        wait_for(lambda: server.replica_count == 0, message="replica disconnect")

    def test_restart_with_an_emptied_config_bootstraps_again(self, primary, tmp_path):
        """A restarted replica whose directory does not open wipes it and
        bootstraps from the primary; its puller lives on."""
        service, server = primary
        directory = tmp_path / "replica"
        self._stopped_replica(service, server, directory)
        (directory / CONFIG_FILENAME).write_text("")
        service.put(100, 100)
        errors: list[BaseException] = []
        restarted = Replica(
            directory, server.address, sync_policy="never",
            reconnect_seconds=0.01, on_error=errors.append,
        ).start()
        try:
            restarted.wait_ready(timeout=10)
            _converged(service, restarted)
            assert restarted.bootstrap_count == 1
        finally:
            restarted.stop()
        assert isinstance(errors[0], StoreError)
        assert not isinstance(errors[0], StoreLockedError)
        assert "unreadable store config" in str(errors[0])

    def test_restart_on_a_held_directory_retries_and_never_wipes(
        self, primary, tmp_path
    ):
        """A directory another live store holds is reported and retried,
        not wiped: once the holder closes, the replica recovers its own
        directory and catches up without a bootstrap."""
        service, server = primary
        directory = tmp_path / "replica"
        self._stopped_replica(service, server, directory)
        service.put(100, 100)
        holder = DurableStore(directory, sync_policy="never")
        files = {
            path.relative_to(directory): path.read_bytes()
            for path in directory.rglob("*") if path.is_file()
        }
        errors: list[BaseException] = []
        restarted = Replica(
            directory, server.address, sync_policy="never",
            reconnect_seconds=0.01, on_error=errors.append,
        ).start()
        try:
            wait_for(lambda: len(errors) >= 3, message="retries of the held lock")
            assert restarted._thread.is_alive()
            assert all(isinstance(error, StoreLockedError) for error in errors)
            assert {
                path.relative_to(directory): path.read_bytes()
                for path in directory.rglob("*") if path.is_file()
            } == files
            holder.close()
            restarted.wait_ready(timeout=10)
            _converged(service, restarted)
            assert restarted.bootstrap_count == 0
        finally:
            holder.close()
            restarted.stop()

    def test_commits_wake_the_loop_only_while_a_replica_is_connected(
        self, primary, tmp_path, monkeypatch
    ):
        """A commit hops into the server's loop to wake replica feeders;
        with no replica connected it costs the loop nothing."""
        service, server = primary
        loop = server._loop
        wakeups: list[tuple] = []
        real_call_soon_threadsafe = loop.call_soon_threadsafe

        def counting(*args, **kwargs):
            wakeups.append(args)
            return real_call_soon_threadsafe(*args, **kwargs)

        monkeypatch.setattr(loop, "call_soon_threadsafe", counting)
        with StoreClient(*server.address) as client:
            for key in range(50):
                client.put(key, key)
            assert wakeups == []
            replica = Replica(
                tmp_path / "replica", server.address, sync_policy="never"
            ).start()
            try:
                replica.wait_ready()
                for key in range(50, 100):
                    client.put(key, key)
                assert len(wakeups) >= 1
                _converged(service, replica)
            finally:
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

    def test_compact_every_keeps_the_tail_of_a_replica_that_has_not_acked(
        self, tmp_path
    ):
        """The automatic compaction cuts at the replication floor too: a
        connected replica that has acknowledged nothing yet still receives
        every frame in order, and is never told to restart."""
        store = DurableStore(
            tmp_path / "primary", algorithm="classical", shard_capacity=32,
            sync_policy="never", compact_every=5,
        )
        service = StoreService(store)
        with ServerThread(service) as server:
            for key in range(1, 4):
                service.put(key, f"v{key}")
            with socket.create_connection(server.address, timeout=10.0) as sock:
                send_message(sock, {"cmd": "REPLICATE", "after": 0})
                assert recv_message(sock)["mode"] == "frames"
                for key in range(4, 13):  # compacts at lsn 5 and 10
                    service.put(key, f"v{key}")
                assert store.wal_frames_since_snapshot == 2
                received: list[int] = []
                deadline = time.monotonic() + 10.0
                while (not received or received[-1] < 12) and time.monotonic() < deadline:
                    message = recv_message(sock)
                    assert message is not None, f"stream closed after {received}"
                    assert message.get("kind") != "restart", f"restart after {received}"
                    if message.get("kind") == "frames":
                        received += [codec.loads(line)["lsn"] for line in message["frames"]]
                assert received == list(range(1, 13))
                assert store.durable_horizon == 0  # the floor: nothing acked
                assert server.replica_count == 1
        service.close()

    def test_replica_compacts_its_own_log_as_it_applies(self, primary, tmp_path):
        """Shipped frames count toward the replica's own ``compact_every``."""
        service, server = primary
        replica = Replica(
            tmp_path / "replica", server.address, sync_policy="never",
            compact_every=20,
        ).start()
        replica.wait_ready()
        for op in make_ops(70, seed=31):
            apply_to_store(service, op)
        _converged(service, replica)
        assert replica.service.store.durable_horizon > 0
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
