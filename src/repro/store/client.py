"""Blocking client for the networked store.

:class:`StoreClient` speaks the length-prefixed protocol of
:mod:`repro.store.protocol` over one TCP connection and mirrors the
:class:`~repro.store.service.StoreService` API: ``get`` / ``put`` /
``delete`` / ``put_many`` / ``delete_many`` / ``range_scan`` /
``count_range`` / ``scan_pages`` / ``size`` / ``contains`` / ``verify`` /
``stats`` / ``metrics``.  Errors come back typed — a missing key raises ``KeyError``
like the local store, a write against a replica raises
:class:`ReadOnlyError` — so code written against the service runs against
the wire unchanged.

One client is one connection and is **not** thread-safe; concurrent
benchmark workers each open their own (that is the point of the
multi-client benchmark — the server interleaves their requests on its
event loop, not the client).  A call that fails after its request went
out (a timeout, a reset, a half-read answer) closes the connection, so
a late answer is never read as the next call's; later calls on that
client raise ``OSError``.
"""

from __future__ import annotations

import socket
from typing import Hashable, Iterable, Iterator

from repro.store.protocol import ProtocolError, recv_message, send_message

_MISSING = object()


class StoreClientError(RuntimeError):
    """A request the server rejected; ``code`` carries the error class."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class ReadOnlyError(StoreClientError):
    """A mutation sent to a replica (writes go to the primary)."""


class StoreClient:
    """One blocking connection to a :class:`~repro.store.server.StoreServer`."""

    def __init__(
        self, host: str, port: int, *, timeout: float | None = 10.0
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.settimeout(timeout)

    # ------------------------------------------------------------------
    def _call(self, cmd: str, **fields) -> dict:
        request = {"cmd": cmd, **fields}
        try:
            send_message(self._sock, request)
            response = recv_message(self._sock)
            if response is None:
                raise ProtocolError("server closed the connection mid-request")
        except (TypeError, ValueError):
            raise  # an unencodable request: nothing was sent
        except BaseException:
            # Bytes of this exchange may still be in flight; the next call
            # would read them as its own answer.
            self.close()
            raise
        if not response.get("ok"):
            code = response.get("code", "server_error")
            message = response.get("error", "request failed")
            if code == "read_only":
                raise ReadOnlyError(code, message)
            if code == "not_found":
                raise KeyError(message)
            raise StoreClientError(code, message)
        return response

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------
    def ping(self) -> int:
        """Round-trip; returns the server's last durable LSN."""
        return self._call("PING")["last_lsn"]

    def get(self, key, default=_MISSING):
        response = self._call("GET", key=key)
        if not response["found"]:
            if default is _MISSING:
                raise KeyError(key)
            return default
        return response["value"]

    def contains(self, key) -> bool:
        return self._call("CONTAINS", key=key)["contains"]

    __contains__ = contains

    def put(self, key, value) -> None:
        self._call("PUT", key=key, value=value)

    __setitem__ = put

    def delete(self, key) -> None:
        self._call("DELETE", key=key)

    __delitem__ = delete

    def put_many(self, items: Iterable[tuple[Hashable, object]]) -> int:
        payload = [[key, value] for key, value in items]
        return self._call("PUT_MANY", items=payload)["applied"]

    def delete_many(self, keys: Iterable[Hashable]) -> int:
        return self._call("DELETE_MANY", keys=list(keys))["applied"]

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def range_scan(self, low=None, high=None, *, limit=None, after=None) -> list[tuple]:
        response = self._call(
            "RANGE", low=low, high=high, limit=limit, after=after
        )
        return [(key, value) for key, value in response["items"]]

    def count_range(self, low, high) -> int:
        return self._call("COUNT_RANGE", low=low, high=high)["count"]

    def scan_pages(
        self, low=None, high=None, *, page_size: int = 256
    ) -> Iterator[list[tuple]]:
        """Page the interval; one request per page, cursor-resumed —
        the same contract as :meth:`StoreService.scan_pages` (writers on
        other connections interleave between pages)."""
        after = None
        while True:
            response = self._call(
                "SCAN_PAGES",
                low=low,
                high=high,
                page_size=page_size,
                after=after,
            )
            page = [(key, value) for key, value in response["page"]]
            if page:
                yield page
            after = response["after"]
            if after is None:
                return

    def size(self) -> int:
        return self._call("SIZE")["size"]

    __len__ = size

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def verify(self) -> dict:
        """Run the server-side integrity check; returns its report."""
        return self._call("VERIFY")["report"]

    def stats(self) -> dict:
        """Durability, compaction, replication and shard statistics."""
        return self._call("STATS")

    def metrics(self) -> dict:
        """The server's metrics snapshot.

        Returns the METRICS response: ``enabled`` (whether a live
        registry is installed), ``metrics`` (the structured snapshot),
        ``exposition`` (Prometheus text format) and ``slow_ops`` (the
        captured slow-operation span trees)."""
        return self._call("METRICS")

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "StoreClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
