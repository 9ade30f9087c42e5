"""Asyncio front-end serving a :class:`~repro.store.service.StoreService`.

:class:`StoreServer` listens on a TCP socket and speaks the
length-prefixed JSON protocol of :mod:`repro.store.protocol`.  Every
request calls the matching ``StoreService`` method directly on the
event-loop thread.  A worker-thread hop per request would add latency,
not concurrency: every call takes the service's one lock and runs
under the GIL, so requests wait for a lock holder either way.  While
another thread (an in-process writer, whose commit may also compact)
holds the lock, the loop waits too, and so do the requests and
replication streams that need no lock.  The lock is FIFO, so the loop
waits out the calls queued ahead of it, not a writer thread's whole
run.  The server adds networking, not a new concurrency model.

**Connections.**  Each accepted connection is one ``asyncio.Protocol``
(:class:`_Connection`).  The bytes it receives go into one buffer; every
complete request is taken off the buffer's front
(:func:`~repro.store.protocol.pop_message`), answered through the
service and written to the transport before the next one is parsed:
pipelined requests are answered in order, and no task or future is made
per request.  When the transport's write buffer passes its high-water
mark the connection stops reading and leaves the rest of its buffer
unanswered until the buffer drains, so a client that sends without
reading holds at most one high-water mark plus one answer in the server.
A malformed frame (an oversized length prefix, a body that is not a
UTF-8 JSON object, a hang-up inside a frame) closes the connection and
is counted under its error family; an answer too large for one frame is
replaced by an ``oversized_frame`` error on a connection that stays
open.  :meth:`StoreServer.stop` stops accepting, lets the accepts
already under way make their connections, and drops every open
connection before it waits for the listener to close.

**Replication.**  A ``REPLICATE`` request switches its connection into
push mode: a feeder task writes the stream through the connection, the
same ``data_received`` parses the replica's ``ACK`` messages, a full
write buffer holds the feeder as it holds request answers, and losing
the connection cancels the feeder.  The server decides how the replica
starts:

* ``after >= durable_horizon`` — the log still holds everything the
  replica is missing: stream WAL frames with ``lsn > after``, verbatim;
* ``after < durable_horizon`` — compaction already dropped that tail:
  send the newest **snapshot** (manifest + data file, section checksums
  and all), then stream frames past its LSN.

Frames are shipped as the exact bytes the primary's WAL holds (validated
by the one frame scanner recovery, replica ingest and compaction also
read through, so nothing a recovery would reject is ever shipped), which
is what makes a replica's state byte-identical by construction.  Live
tails push immediately — a WAL commit listener wakes every replica
feeder, and skips the wake-up while no replica is connected — and idle
connections get heartbeats carrying the primary's last LSN, which is
how replicas measure their lag.
Replicas acknowledge applied LSNs upstream; the smallest acknowledged
LSN across connected replicas is the store's **replication floor**
(installed by :meth:`StoreServer.start`), which every compaction, manual
or ``compact_every``, keeps the log past, so a live replica's catch-up
stream never loses its tail (a *disconnected* replica holds nothing
hostage — it re-bootstraps from a snapshot).

:class:`ServerThread` runs the whole event loop on a daemon thread for
synchronous callers (tests, benchmarks, the CLI smoke command).
"""

from __future__ import annotations

import asyncio
import threading
from typing import Callable

from repro import obs
from repro.store.protocol import (
    OversizedFrameError,
    ProtocolError,
    encode_message,
    pop_message,
)
from repro.store.service import StoreService

#: Frames per ``frames`` push message (bounds message size on big tails).
SHIP_CHUNK = 256

#: Idle heartbeat cadence for replication streams, seconds.
HEARTBEAT_SECONDS = 0.2

#: Largest page a single RANGE / SCAN_PAGES request may ask for.
PAGE_SIZE_LIMIT = 4096

_MISSING = object()


class StoreServer:
    """Serve one :class:`StoreService` over TCP.

    ``read_only=True`` (a replica serving read traffic) rejects every
    mutating command with the ``read_only`` error code; flipping the
    attribute to ``False`` is how a promotion opens the write path.
    """

    def __init__(
        self,
        service: StoreService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        read_only: bool = False,
    ) -> None:
        self._service = service
        self._host = host
        self._port = port
        self.read_only = read_only
        self._server: asyncio.AbstractServer | None = None
        #: Transports of the open connections; :meth:`stop` aborts them.
        self._transports: set[asyncio.Transport] = set()
        #: Set by :meth:`stop`; a connection made after that aborts itself.
        self._stopping = False
        #: Per-replica-connection state: {id: {"id", "event", "acked"}}.
        self._replicas: dict[int, dict] = {}
        self._next_replica_id = 0
        self._commit_listener: Callable[[int], None] | None = None
        self._registry = service.registry
        self._obs_connections = self._registry.counter("server.connections")
        self._obs_requests = self._registry.counter("server.requests")
        self._obs_errors: dict[str, object] = {}

    # ------------------------------------------------------------------
    @property
    def service(self) -> StoreService:
        return self._service

    @property
    def registry(self):
        """The metrics registry this server records into."""
        return self._registry

    def _count_error(self, family: str) -> None:
        """Bump (and cache) the counter for one error family."""
        counter = self._obs_errors.get(family)
        if counter is None:
            counter = self._registry.counter(f"server.errors.{family}")
            self._obs_errors[family] = counter
        counter.inc()

    def error_counts(self) -> dict[str, int]:
        """Per-family error counts observed so far (all zero when obs is off)."""
        return {
            family: counter.value
            for family, counter in sorted(self._obs_errors.items())
        }

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` after start)."""
        if self._server is None:
            raise RuntimeError("server is not running")
        return self._server.sockets[0].getsockname()[:2]

    @property
    def replica_count(self) -> int:
        """Connected replication streams."""
        return len(self._replicas)

    def replication_floor(self) -> int | None:
        """Smallest LSN acknowledged by every connected replica."""
        # A copy: a compaction on a writer thread calls this while the
        # loop edits the table.
        acks = [entry["acked"] for entry in list(self._replicas.values())]
        return min(acks) if acks else None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("server already started")
        loop = asyncio.get_running_loop()
        self._stopping = False
        self._server = await loop.create_server(
            lambda: _Connection(self), self._host, self._port
        )

        def on_commit(lsn: int) -> None:
            # Runs on whatever thread appended the frame; hop into the
            # loop to wake every replica feeder.  With none connected the
            # hop would only cost the loop an iteration per commit: a
            # feeder registers before its first ship_frames, which reads
            # every frame committed until then.
            if self._replicas:
                loop.call_soon_threadsafe(self._wake_replicas)

        self._commit_listener = on_commit
        self._service.add_commit_listener(on_commit)
        self._service.store.replication_floor = self.replication_floor

    async def stop(self) -> None:
        if self._server is None:
            return
        self._stopping = True
        if self._commit_listener is not None:
            self._service.remove_commit_listener(self._commit_listener)
            self._commit_listener = None
        self._service.store.replication_floor = None
        # Stop accepting, then give the accepts already under way one loop
        # pass to make their transports while the listener is still open:
        # asyncio's Server.close() makes a later one fail half-built and
        # leaves its socket open.  Each such connection aborts itself in
        # connection_made (``_stopping``).
        loop = asyncio.get_running_loop()
        for sock in self._server.sockets:
            loop.remove_reader(sock.fileno())
        await asyncio.sleep(0)
        self._server.close()
        # From Python 3.12.1 wait_closed() also waits for every accepted
        # connection to close, so none may be left open.  Aborting, not
        # closing: a client that stopped reading would hold a closing
        # transport open forever.  Losing its connection cancels a
        # replica's feeder.
        for transport in list(self._transports):
            transport.abort()
        await self._server.wait_closed()
        self._server = None

    def _wake_replicas(self) -> None:
        for entry in self._replicas.values():
            entry["event"].set()

    # ------------------------------------------------------------------
    # Request dispatch (called by the connections, on the loop thread)
    # ------------------------------------------------------------------
    def _dispatch(self, cmd, request: dict) -> dict:
        self._obs_requests.inc()
        server_handler = _SERVER_HANDLERS.get(cmd)
        if server_handler is not None:
            try:
                return server_handler(self, request)
            except Exception as error:
                self._count_error("server_error")
                return _error("server_error", f"{type(error).__name__}: {error}")
        handler = _HANDLERS.get(cmd)
        if handler is None:
            self._count_error("bad_command")
            return _error("bad_request", f"unknown command {cmd!r}")
        if cmd in _MUTATING and self.read_only:
            self._count_error("read_only")
            return _error(
                "read_only", "this server is a replica; writes go to the primary"
            )
        try:
            return handler(self._service, request)
        except KeyError as error:
            self._count_error("not_found")
            return _error("not_found", f"key not found: {error.args[0]!r}")
        except (TypeError, ValueError) as error:
            self._count_error("bad_request")
            return _error("bad_request", str(error))
        except Exception as error:  # the store's own integrity errors
            self._count_error("server_error")
            return _error("server_error", f"{type(error).__name__}: {error}")

    # ------------------------------------------------------------------
    # Replication stream
    # ------------------------------------------------------------------
    def _open_replication(
        self, connection: "_Connection", request: dict
    ) -> tuple[dict, int] | None:
        """Answer a ``REPLICATE`` handshake on ``connection``.

        Returns the replica's ack entry, already registered, and the LSN
        its frame stream starts after; ``None`` when the request is
        refused (the refusal has been sent).
        """
        store = self._service.store
        after = int(request.get("after", -1))
        if after > store.last_lsn:
            connection.send(
                _error(
                    "bad_request",
                    f"replica is ahead of this primary "
                    f"(after={after} > last_lsn={store.last_lsn})",
                )
            )
            return None

        replica_id = self._next_replica_id
        self._next_replica_id += 1
        entry = {"id": replica_id, "event": asyncio.Event(), "acked": max(after, 0)}
        # Registered before any horizon decision: from here on compaction
        # retains frames past the replica's cursor.
        self._replicas[replica_id] = entry
        try:
            horizon = self._service.durable_horizon
            bootstrap = None
            if after < horizon or after < 0:
                # The log alone cannot (or, for a brand-new replica with
                # no config, should not) carry the replica to the present:
                # bootstrap from the newest checkpoint.
                lsn, files = self._service.snapshot_archive()
                bootstrap = {"kind": "snapshot", "lsn": lsn, "files": files}
                start = max(after, lsn)
            else:
                start = after
            entry["acked"] = max(entry["acked"], start)
            connection.send(
                {
                    "ok": True,
                    "mode": "snapshot" if bootstrap is not None else "frames",
                    "algorithm": store.algorithm,
                    "shard_capacity": store.shard_capacity,
                    "start_lsn": start,
                    "primary_lsn": store.last_lsn,
                }
            )
            if bootstrap is not None:
                connection.send(bootstrap)
                start = bootstrap["lsn"]
        except BaseException:
            del self._replicas[replica_id]
            raise
        return entry, start

    async def _feed_frames(
        self, connection: "_Connection", entry: dict, start: int
    ) -> None:
        """Push the log past ``start`` to one replica, then its live tail.

        Waits for the connection's write buffer to drain before each
        message.  Returning ends the stream: the connection then closes
        and the replica reconnects.  Losing the connection cancels it.
        """
        service = self._service
        cursor = start
        offset = 0
        epoch: int | None = None
        try:
            while True:
                await connection.drained()
                frames, offset, epoch = service.ship_frames(
                    cursor, offset=offset, epoch=epoch
                )
                if frames and frames[0][0] != cursor + 1:
                    # Compaction dropped the replica's tail (it cuts the
                    # whole log when a retained frame fails re-validation):
                    # tell it to reconnect — the handshake will send a
                    # snapshot covering the gap.
                    connection.send({"kind": "restart"})
                    return
                if frames:
                    for index in range(0, len(frames), SHIP_CHUNK):
                        chunk = frames[index : index + SHIP_CHUNK]
                        await connection.drained()
                        connection.send(
                            {
                                "kind": "frames",
                                "frames": [line for _, line in chunk],
                                "primary_lsn": service.store.last_lsn,
                            }
                        )
                    cursor = frames[-1][0]
                    continue
                entry["event"].clear()
                try:
                    await asyncio.wait_for(
                        entry["event"].wait(), timeout=HEARTBEAT_SECONDS
                    )
                except asyncio.TimeoutError:
                    connection.send(
                        {
                            "kind": "heartbeat",
                            "primary_lsn": service.store.last_lsn,
                        }
                    )
        except (OSError, ProtocolError):
            # The connection is closing, the log could not be read, or a
            # chunk overflowed a frame.
            pass


class _Connection(asyncio.Protocol):
    """One accepted connection: requests answered inline, or a push stream.

    See the module docstring for the lifecycle.  Every method runs on
    the loop thread.
    """

    def __init__(self, server: StoreServer) -> None:
        self._server = server
        self._transport: asyncio.Transport | None = None
        self._buffer = bytearray()
        #: Set while the transport's write buffer is below its high-water
        #: mark; cleared by ``pause_writing``.
        self._drained = asyncio.Event()
        self._drained.set()
        #: Push mode: the replica's ack entry and the task feeding it.
        self._replica: dict | None = None
        self._feeder: asyncio.Task | None = None

    # -- asyncio.Protocol callbacks ------------------------------------
    def connection_made(self, transport) -> None:
        self._transport = transport
        if self._server._stopping:
            # Accepted just before stop() closed the listener, and made
            # too late for stop() to abort it.
            transport.abort()
            return
        self._server._transports.add(transport)
        self._server._obs_connections.inc()

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._handle_buffered()

    def eof_received(self) -> None:
        if self._buffer:
            self._server._count_error("protocol")  # the peer hung up mid-frame
        # Returning None closes the transport once its answers are sent.

    def pause_writing(self) -> None:
        self._drained.clear()
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._drained.set()
        self._transport.resume_reading()
        self._handle_buffered()

    def connection_lost(self, exc) -> None:
        server = self._server
        server._transports.discard(self._transport)
        if self._feeder is not None:
            self._feeder.cancel()
        if self._replica is not None:
            server._replicas.pop(self._replica["id"], None)

    # -- used by the server ----------------------------------------------
    def send(self, message: dict) -> None:
        self._transport.write(encode_message(message))

    async def drained(self) -> None:
        """Return once the write buffer is below its high-water mark.

        Raises ``ConnectionResetError`` once the connection is closing,
        so a feeder never writes into a lost connection.
        """
        if self._transport.is_closing():
            raise ConnectionResetError("the replica's connection is closing")
        await self._drained.wait()

    # ------------------------------------------------------------------
    def _handle_buffered(self) -> None:
        """Handle every complete message in the buffer, in order, until
        the write buffer fills or the connection closes."""
        server = self._server
        transport = self._transport
        buffer = self._buffer
        while self._drained.is_set() and not transport.is_closing():
            try:
                request = pop_message(buffer)
            except OversizedFrameError:
                server._count_error("oversized_frame")
                transport.close()
                return
            except ProtocolError:
                server._count_error("protocol")
                transport.close()
                return
            if request is None:
                return
            cmd = request.get("cmd")
            if self._replica is not None:
                if cmd == "ACK":
                    entry = self._replica
                    entry["acked"] = max(entry["acked"], int(request["lsn"]))
            elif cmd == "REPLICATE":
                self._start_push(request)
            else:
                try:
                    frame = encode_message(server._dispatch(cmd, request))
                except OversizedFrameError as error:  # nothing was sent yet
                    server._count_error("oversized_frame")
                    frame = encode_message(_error("oversized_frame", str(error)))
                transport.write(frame)

    def _start_push(self, request: dict) -> None:
        """Switch into push mode: handshake, then a feeder task."""
        server = self._server
        try:
            opened = server._open_replication(self, request)
        except (OSError, ProtocolError):  # an unreadable or oversized checkpoint
            opened = None
        if opened is None:
            self._transport.close()
            return
        self._replica, start = opened
        self._feeder = asyncio.get_running_loop().create_task(
            server._feed_frames(self, self._replica, start)
        )
        self._feeder.add_done_callback(lambda _: self._transport.close())


# ---------------------------------------------------------------------------
# Request handlers (run on the event-loop thread)
# ---------------------------------------------------------------------------
def _error(code: str, message: str) -> dict:
    return {"ok": False, "code": code, "error": message}


def _page_size(request: dict, key: str, default: int | None = None) -> int | None:
    value = request.get(key, default)
    if value is None:
        return None
    value = int(value)
    if value < 1 or value > PAGE_SIZE_LIMIT:
        raise ValueError(
            f"{key} must be between 1 and {PAGE_SIZE_LIMIT}, got {value}"
        )
    return value


def _handle_ping(service: StoreService, request: dict) -> dict:
    return {"ok": True, "last_lsn": service.store.last_lsn}


def _handle_get(service: StoreService, request: dict) -> dict:
    value = service.get(request["key"], _MISSING)
    if value is _MISSING:
        return {"ok": True, "found": False, "value": None}
    return {"ok": True, "found": True, "value": value}


def _handle_contains(service: StoreService, request: dict) -> dict:
    return {"ok": True, "contains": service.contains(request["key"])}


def _handle_put(service: StoreService, request: dict) -> dict:
    service.put(request["key"], request.get("value"))
    return {"ok": True}


def _handle_delete(service: StoreService, request: dict) -> dict:
    service.delete(request["key"])
    return {"ok": True}


def _handle_put_many(service: StoreService, request: dict) -> dict:
    items = [(key, value) for key, value in request.get("items", [])]
    return {"ok": True, "applied": service.put_many(items)}


def _handle_delete_many(service: StoreService, request: dict) -> dict:
    return {"ok": True, "applied": service.delete_many(request.get("keys", []))}


def _handle_range(service: StoreService, request: dict) -> dict:
    items = service.range_scan(
        request.get("low"),
        request.get("high"),
        limit=_page_size(request, "limit"),
        after=request.get("after"),
    )
    return {"ok": True, "items": [[key, value] for key, value in items]}


def _handle_count_range(service: StoreService, request: dict) -> dict:
    return {
        "ok": True,
        "count": service.count_range(request.get("low"), request.get("high")),
    }


def _handle_scan_pages(service: StoreService, request: dict) -> dict:
    """One page per request; the returned cursor resumes the scan.

    The page materializes under the service's lock exactly like
    :meth:`StoreService.scan_pages` holds it — per page — so a slow
    client paging a huge interval never pins writers out between its
    requests.
    """
    page_size = _page_size(request, "page_size", 256)
    page = service.range_scan(
        request.get("low"),
        request.get("high"),
        limit=page_size,
        after=request.get("after"),
    )
    cursor = page[-1][0] if len(page) == page_size else None
    return {
        "ok": True,
        "page": [[key, value] for key, value in page],
        "after": cursor,
    }


def _handle_size(service: StoreService, request: dict) -> dict:
    return {"ok": True, "size": service.size()}


def _handle_verify(service: StoreService, request: dict) -> dict:
    return {"ok": True, "report": service.verify()}


def _handle_stats(server: "StoreServer", request: dict) -> dict:
    """Enriched STATS: durability, compaction health, replication, shards.

    Runs as a *server* handler (not a service handler) so it can read the
    replica ack table and error counters only the server holds.
    """
    service = server.service
    store = service.store
    error = store.last_compaction_error
    acks = sorted(entry["acked"] for entry in server._replicas.values())
    return {
        "ok": True,
        "last_lsn": store.last_lsn,
        "durable_horizon": store.durable_horizon,
        "wal_frames_since_snapshot": store.wal_frames_since_snapshot,
        "last_compaction_error": (
            f"{type(error).__name__}: {error}" if error is not None else None
        ),
        "replica_count": server.replica_count,
        "replica_acks": acks,
        "replication_floor": server.replication_floor(),
        "shard_statistics": service.shard_statistics(),
        "error_counts": server.error_counts(),
    }


def _handle_metrics(server: "StoreServer", request: dict) -> dict:
    """Whole-process metrics: snapshot, Prometheus text, slow-op traces."""
    registry = server.registry
    snapshot = registry.snapshot()
    return {
        "ok": True,
        "enabled": registry.enabled,
        "metrics": snapshot,
        "exposition": obs.render_prometheus(snapshot),
        "slow_ops": obs.get_tracer().slow_ops(),
    }


_HANDLERS: dict[str, Callable[[StoreService, dict], dict]] = {
    "PING": _handle_ping,
    "GET": _handle_get,
    "CONTAINS": _handle_contains,
    "PUT": _handle_put,
    "DELETE": _handle_delete,
    "PUT_MANY": _handle_put_many,
    "DELETE_MANY": _handle_delete_many,
    "RANGE": _handle_range,
    "COUNT_RANGE": _handle_count_range,
    "SCAN_PAGES": _handle_scan_pages,
    "SIZE": _handle_size,
    "VERIFY": _handle_verify,
}

#: Handlers that need the *server* (replica acks, error counters, the
#: registry) rather than just the service; checked before ``_HANDLERS``.
_SERVER_HANDLERS: dict[str, Callable[["StoreServer", dict], dict]] = {
    "STATS": _handle_stats,
    "METRICS": _handle_metrics,
}

_MUTATING = frozenset({"PUT", "DELETE", "PUT_MANY", "DELETE_MANY"})


# ---------------------------------------------------------------------------
# Synchronous wrapper: the event loop on a daemon thread
# ---------------------------------------------------------------------------
class ServerThread:
    """Run a :class:`StoreServer` on a background event-loop thread.

    The synchronous entry point tests, benchmarks and the CLI use::

        with ServerThread(service) as server:
            client = StoreClient(*server.address)
            ...

    ``address`` blocks until the socket is bound; exiting the context
    stops the server and joins the thread.
    """

    def __init__(
        self,
        service: StoreService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        read_only: bool = False,
    ) -> None:
        self.server = StoreServer(service, host, port, read_only=read_only)
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._failure: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-store-server", daemon=True
        )

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                await self.server.start()
            except BaseException as error:
                self._failure = error
                self._ready.set()
                return
            self._ready.set()
            await self._stop.wait()
            await self.server.stop()

        asyncio.run(main())

    def start(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait()
        if self._failure is not None:
            raise self._failure
        return self

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    @property
    def replica_count(self) -> int:
        return self.server.replica_count

    @property
    def read_only(self) -> bool:
        return self.server.read_only

    @read_only.setter
    def read_only(self, value: bool) -> None:
        self.server.read_only = value

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
