"""Length-prefixed JSON wire protocol for the networked store.

One *message* on the wire is a 4-byte big-endian length followed by that
many bytes of canonical JSON — the same tagged codec the WAL and the
snapshots use (:mod:`repro.store.codec`), so every key and value a
:class:`~repro.store.store.DurableStore` can hold (``Fraction`` keys,
tuples, bytes, non-string dict keys) round-trips the network unchanged::

    +----------------+---------------------------+
    | length (>I, 4) | codec JSON (UTF-8, length)|
    +----------------+---------------------------+

Requests are dicts with a ``cmd`` key (``GET``, ``PUT``, ``DELETE``,
``PUT_MANY``, ``DELETE_MANY``, ``RANGE``, ``COUNT_RANGE``,
``SCAN_PAGES``, ``SIZE``, ``CONTAINS``, ``VERIFY``, ``STATS``,
``METRICS``, ``PING``, ``REPLICATE``, ``ACK``); responses carry ``ok``
plus either the result
fields or ``{"ok": false, "code": ..., "error": ...}``.  Replication
switches the connection into a push stream of ``kind``-tagged messages
(``frames`` / ``heartbeat`` / ``snapshot`` / ``restart``) flowing
server→replica, with ``ACK`` messages flowing back.

Two readers share the framing and its checks.  The server's
``asyncio.Protocol`` appends whatever bytes arrive to one buffer and
takes every complete message off its front with :func:`pop_message`;
the client and the replica puller read one message at a time from a
blocking socket with :func:`recv_message`.  Both send with
:func:`encode_message` (:func:`send_message` on a blocking socket).
"""

from __future__ import annotations

import socket
import struct

from repro.store import codec

#: Hard ceiling on one message's body; a longer prefix means a corrupt or
#: hostile stream, and aborting beats allocating an arbitrary buffer.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """A malformed frame, an oversized length prefix, or a truncated body."""


class OversizedFrameError(ProtocolError):
    """A length prefix or body beyond :data:`MAX_MESSAGE_BYTES`.

    Split out from the generic :class:`ProtocolError` so the server can
    account oversized frames as their own error family."""


def encode_message(message: dict) -> bytes:
    """Frame one message: length prefix + canonical codec JSON."""
    body = codec.dumps(message).encode("utf-8")
    if len(body) > MAX_MESSAGE_BYTES:
        raise OversizedFrameError(
            f"message of {len(body)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(body)) + body


def decode_body(body: bytes | bytearray) -> dict:
    """Decode a message body (the bytes after the length prefix)."""
    try:
        message = codec.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"undecodable message body: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"message must be an object, got {type(message).__name__}"
        )
    return message


def _check_length(length: int) -> None:
    if length > MAX_MESSAGE_BYTES:
        raise OversizedFrameError(
            f"length prefix {length} exceeds the {MAX_MESSAGE_BYTES}-byte limit"
        )


# ---------------------------------------------------------------------------
# buffer flavour (server side)
# ---------------------------------------------------------------------------
def pop_message(buffer: bytearray) -> dict | None:
    """Take the first complete message off the front of ``buffer``.

    ``None`` while the buffer holds no whole frame yet; the bytes stay
    for the next call.  An oversized length prefix raises
    :class:`OversizedFrameError` as soon as the prefix has arrived.  The
    body's bytes and text live only inside this call, so a large request
    holds no second copy of itself while it is served.
    """
    if len(buffer) < _LENGTH.size:
        return None
    (length,) = _LENGTH.unpack_from(buffer)
    _check_length(length)
    end = _LENGTH.size + length
    if len(buffer) < end:
        return None
    body = buffer[_LENGTH.size : end]
    del buffer[:end]
    return decode_body(body)


# ---------------------------------------------------------------------------
# blocking-socket flavour (client / replica side)
# ---------------------------------------------------------------------------
def _recv_exactly(sock: socket.socket, length: int) -> bytes | None:
    """Read exactly ``length`` bytes; ``None`` on immediate clean EOF."""
    chunks: list[bytes] = []
    remaining = length
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if not chunks:
                return None
            raise ProtocolError("connection closed mid-message")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> dict | None:
    """Read one message; ``None`` on a clean EOF at a frame boundary.

    Callers that must stay interruptible (the replica puller checking its
    stop flag) should ``select()`` for readability before calling this
    with a blocking socket, rather than setting a socket timeout — a
    timeout firing mid-message would lose the consumed prefix.
    """
    prefix = _recv_exactly(sock, _LENGTH.size)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    _check_length(length)
    body = _recv_exactly(sock, length)
    if body is None:
        raise ProtocolError("connection closed inside a message body")
    return decode_body(body)


def send_message(sock: socket.socket, message: dict) -> None:
    sock.sendall(encode_message(message))
