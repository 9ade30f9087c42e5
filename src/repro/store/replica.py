"""WAL-shipping replica of a networked :class:`DurableStore` primary.

:class:`Replica` owns its own store directory and keeps it converged with
a primary by streaming the primary's WAL over the
:mod:`repro.store.protocol` replication stream:

* **Bootstrap** — a fresh replica (or one whose applied LSN fell below
  the primary's durable horizon while it was away) receives the
  primary's newest *snapshot* verbatim — the manifest with its section
  checksums and the one data file of per-shard sections — installs it
  with :func:`~repro.store.store.install_checkpoint` (the snapshot
  writer's publish sequence plus the store's horizon writer), and opens
  the store through ordinary recovery.  The replica writes no store file
  itself.  A checkpoint that does not open is removed again and the
  puller retries, so a bad checkpoint stops neither the puller nor a
  later restart.
* **Streaming** — frames past its LSN arrive as the exact bytes the
  primary's WAL holds and are applied through
  :meth:`~repro.store.store.DurableStore.apply_frame_line`: re-validated
  (CRC, version, LSN contiguity), appended to the replica's own WAL
  verbatim, then applied through the same ``_apply`` recovery uses, and
  counted toward the replica's own ``compact_every`` like a local
  commit.  The replica's durable state is byte-identical to the
  primary's *by construction*, not by best effort — there is no
  replica-specific apply code to drift.
* **Catch-up** — a disconnect (primary restart, network blip, replica
  crash) is not an error state: the puller reconnects and resumes from
  its own durable ``last_lsn``.  If compaction moved the horizon past it
  in the meantime, the handshake falls back to snapshot bootstrap.  A
  replica *restart* is just recovery of its own directory followed by the
  same reconnect.  A directory that does not open (an emptied config, a
  log that no longer meets its checkpoint) is wiped and bootstrapped
  again; one that another live store holds
  (:class:`~repro.store.store.StoreLockedError`) is reported and retried,
  never wiped.
* **Failover** — :meth:`Replica.promote` stops the puller and opens the
  write path: the replica's service (and its read-only front-end, if one
  is serving) becomes an ordinary writable primary holding exactly the
  state the old primary had at the replica's last applied frame.

The replica acknowledges applied LSNs upstream; every compaction on the
primary, manual or ``compact_every``, keeps frames past the smallest
acknowledged LSN of its *connected* replicas (the store's replication
floor), so a live stream never loses its tail to compaction — while a
dead replica holds nothing hostage (it re-bootstraps).

The puller runs on a daemon thread and uses ``select()`` before every
blocking read so ``stop()`` interrupts it promptly without socket
timeouts tearing messages mid-frame.
"""

from __future__ import annotations

import select
import shutil
import socket
import threading
from pathlib import Path
from typing import Callable

from repro import obs
from repro.store.protocol import (
    ProtocolError,
    recv_message,
    send_message,
)
from repro.store.server import ServerThread
from repro.store.service import StoreService
from repro.store.store import (
    CONFIG_FILENAME,
    DurableStore,
    StoreError,
    StoreLockedError,
    install_checkpoint,
)

#: How long the puller waits in ``select()`` per poll (stop-flag latency).
_POLL_SECONDS = 0.1


class Replica:
    """Keep a local store converged with a primary via WAL shipping."""

    def __init__(
        self,
        directory: str | Path,
        primary: tuple[str, int],
        *,
        serve: bool = False,
        serve_host: str = "127.0.0.1",
        serve_port: int = 0,
        sync_policy: str = "always",
        compact_every: int | None = None,
        reconnect_seconds: float = 0.05,
        on_error: Callable[[BaseException], None] | None = None,
        registry=None,
    ) -> None:
        self.directory = Path(directory)
        self.primary = primary
        self._serve = serve
        self._serve_host = serve_host
        self._serve_port = serve_port
        self._sync_policy = sync_policy
        self._compact_every = compact_every
        self._reconnect_seconds = reconnect_seconds
        self._on_error = on_error

        self._service: StoreService | None = None
        self._server: ServerThread | None = None
        self._stop = threading.Event()
        self._ready = threading.Event()
        self._state_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._promoted = False

        #: Diagnostics, readable from any thread.
        self.bootstrap_count = 0
        self.connected = False
        self.last_error: BaseException | None = None
        self._primary_lsn = 0
        self._final_lsn = 0

        self._obs = obs.resolve(registry)
        self._obs_bootstraps = self._obs.counter("replica.bootstraps")
        self._obs_frames = self._obs.counter("replica.frames_applied")
        self._obs_acks = self._obs.counter("replica.ack_round_trips")
        self._obs_lag = self._obs.gauge("replica.lag_lsns")
        self._obs_connected = self._obs.gauge("replica.connected")

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def service(self) -> StoreService | None:
        """The replica's live service (``None`` until first bootstrap)."""
        return self._service

    @property
    def address(self) -> tuple[str, int]:
        """Where the replica serves reads (requires ``serve=True``)."""
        if self._server is None:
            raise RuntimeError("replica is not serving")
        return self._server.address

    @property
    def last_applied_lsn(self) -> int:
        if self._service is None:
            return self._final_lsn  # what was durable when we stopped
        return self._service.store.last_lsn

    @property
    def primary_lsn(self) -> int:
        """The primary's last LSN as of the latest frame or heartbeat."""
        return self._primary_lsn

    @property
    def lag(self) -> int:
        """Frames the primary has durably committed that we have not."""
        return max(0, self._primary_lsn - self.last_applied_lsn)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Replica":
        if self._thread is not None:
            raise RuntimeError("replica already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._pull_loop, name="repro-store-replica", daemon=True
        )
        self._thread.start()
        return self

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until the replica's store is open (bootstrapped/recovered)."""
        if not self._ready.wait(timeout):
            raise TimeoutError(
                f"replica did not become ready within {timeout}s "
                f"(last error: {self.last_error})"
            )

    def wait_caught_up(self, target_lsn: int, timeout: float = 30.0) -> None:
        """Block until ``last_applied_lsn >= target_lsn``."""
        deadline = _monotonic() + timeout
        while self.last_applied_lsn < target_lsn:
            if _monotonic() >= deadline:
                raise TimeoutError(
                    f"replica stuck at lsn {self.last_applied_lsn} "
                    f"(target {target_lsn}, last error: {self.last_error})"
                )
            _sleep(0.005)

    def stop(self) -> None:
        """Stop pulling and serving; the store closes durably."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        with self._state_lock:
            self._teardown_server()
            if self._service is not None:
                self._final_lsn = self._service.store.last_lsn
                self._service.close()
                self._service = None
        self._ready.clear()

    def promote(self) -> StoreService:
        """Failover: stop replicating and open the write path.

        The puller stops (joining cleanly mid-stream), the read-only
        front-end — if one is serving — starts accepting mutations, and
        the returned service is an ordinary writable
        :class:`StoreService` over the replica's durable directory,
        holding exactly the primary's state as of the last applied frame.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        with self._state_lock:
            if self._service is None:
                self._open_store()
            self._promoted = True
            if self._server is not None:
                self._server.read_only = False
        return self._service

    def __enter__(self) -> "Replica":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Local store management
    # ------------------------------------------------------------------
    def _open_store(
        self, algorithm: str | None = None, shard_capacity: int | None = None
    ) -> None:
        """Open (recover) the local directory and start serving reads.

        ``algorithm`` and ``shard_capacity`` create the config of a
        freshly bootstrapped directory; a restart reads them from it.
        """
        store = DurableStore(
            self.directory,
            algorithm=algorithm,
            shard_capacity=shard_capacity,
            sync_policy=self._sync_policy,
            compact_every=self._compact_every,
            registry=self._obs,
        )
        self._service = StoreService(store)
        if self._serve:
            self._server = ServerThread(
                self._service,
                self._serve_host,
                self._serve_port,
                read_only=not self._promoted,
            ).start()
            # Survive a re-bootstrap with a stable address.
            self._serve_host, self._serve_port = self._server.address
        self._ready.set()

    def _teardown_server(self) -> None:
        if self._server is not None:
            self._server.stop()
            self._server = None

    def _install_snapshot(self, handshake: dict, payload: dict) -> None:
        """Wipe the directory and install the primary's checkpoint.

        The store is then created with the handshake's algorithm and
        shard capacity, so recovery rebuilds the exact structure the
        primary runs.  Opening it is ordinary recovery — the bootstrap
        path *is* the crash-recovery path.
        """
        with self._state_lock:
            self._teardown_server()
            if self._service is not None:
                self._service.close()
                self._service = None
            if self.directory.exists():
                shutil.rmtree(self.directory)
            install_checkpoint(self.directory, payload["lsn"], payload["files"])
            self.bootstrap_count += 1
            self._obs_bootstraps.inc()
            try:
                self._open_store(handshake["algorithm"], handshake["shard_capacity"])
            except StoreError:
                # A checkpoint that does not open must not outlive this
                # attempt: a restart would find its config, fail the same
                # way and never ask the primary again.
                shutil.rmtree(self.directory)
                raise

    # ------------------------------------------------------------------
    # The puller
    # ------------------------------------------------------------------
    def _pull_loop(self) -> None:
        try:
            while not self._stop.is_set():
                try:
                    self._recover_directory()
                    self._run_once()
                except (OSError, ProtocolError, StoreError) as error:
                    self.last_error = error
                    if self._on_error is not None:
                        self._on_error(error)
                finally:
                    self.connected = False
                    self._obs_connected.set(0)
                self._stop.wait(self._reconnect_seconds)
        except BaseException as error:  # pragma: no cover - fatal surface
            self.last_error = error
            if self._on_error is not None:
                self._on_error(error)
            raise

    def _recover_directory(self) -> None:
        """A replica restart: recover whatever the directory already holds
        before asking the primary for the rest.

        Runs inside the puller's retry loop.  A directory that does not
        open is wiped, as :meth:`_install_snapshot` wipes a checkpoint
        that does not open, and the error is raised to be reported; the
        next attempt finds no config and bootstraps.  A lock held by
        another live store is raised untouched and retried: the directory
        is someone's open store, not damage.
        """
        if self._service is not None or not (self.directory / CONFIG_FILENAME).exists():
            return
        with self._state_lock:
            try:
                self._open_store()
            except StoreLockedError:
                raise
            except StoreError:
                shutil.rmtree(self.directory)
                raise

    def _run_once(self) -> None:
        """One connection: handshake, optional bootstrap, stream frames."""
        after = (
            self._service.store.last_lsn if self._service is not None else -1
        )
        sock = socket.create_connection(self.primary, timeout=5.0)
        try:
            send_message(sock, {"cmd": "REPLICATE", "after": after})
            handshake = self._recv_interruptible(sock)
            if handshake is None:
                return
            if not handshake.get("ok"):
                raise ProtocolError(
                    f"primary rejected replication: {handshake.get('error')}"
                )
            self._primary_lsn = max(
                self._primary_lsn, handshake.get("primary_lsn", 0)
            )
            if handshake["mode"] == "snapshot":
                payload = self._recv_interruptible(sock)
                if payload is None:
                    return
                if payload.get("kind") != "snapshot":
                    raise ProtocolError(
                        f"expected snapshot payload, got {payload.get('kind')!r}"
                    )
                self._install_snapshot(handshake, payload)
                send_message(
                    sock, {"cmd": "ACK", "lsn": self._service.store.last_lsn}
                )
                self._obs_acks.inc()
            self.connected = True
            self._obs_connected.set(1)
            self._stream(sock)
        finally:
            sock.close()

    def _stream(self, sock: socket.socket) -> None:
        while not self._stop.is_set():
            message = self._recv_interruptible(sock)
            if message is None:
                return
            kind = message.get("kind")
            if kind == "frames":
                applied = 0
                try:
                    for line in message["frames"]:
                        if self._stop.is_set():
                            # A kill mid-chunk is safe: every applied frame
                            # is already durable locally, and the next
                            # connect resumes from the store's recovered
                            # last_lsn.
                            return
                        self._service.apply_frame_line(line)
                        applied += 1
                finally:
                    if applied:
                        self._obs_frames.inc(applied)
                self._primary_lsn = max(
                    self._primary_lsn, message.get("primary_lsn", 0)
                )
                send_message(
                    sock, {"cmd": "ACK", "lsn": self._service.store.last_lsn}
                )
                self._obs_acks.inc()
                self._obs_lag.set(self.lag)
            elif kind == "heartbeat":
                self._primary_lsn = max(
                    self._primary_lsn, message.get("primary_lsn", 0)
                )
                self._obs_lag.set(self.lag)
            elif kind == "restart":
                # Compaction outran this stream; reconnect — the next
                # handshake will bootstrap from a covering snapshot.
                return
            else:
                raise ProtocolError(f"unknown push message kind {kind!r}")

    def _recv_interruptible(self, sock: socket.socket) -> dict | None:
        """``recv_message`` that honours the stop flag between messages.

        ``select()`` gates the *first* byte of each message; once a
        message has started arriving the blocking read runs to the frame
        boundary (socket timeout still bounds a stalled peer), so stopping
        never tears a half-consumed frame.
        """
        while not self._stop.is_set():
            readable, _, _ = select.select([sock], [], [], _POLL_SECONDS)
            if readable:
                return recv_message(sock)
        return None


def _monotonic() -> float:
    import time

    return time.monotonic()


def _sleep(seconds: float) -> None:
    import time

    time.sleep(seconds)
