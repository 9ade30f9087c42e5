"""Append-only write-ahead log with torn-tail recovery.

The WAL is a JSONL file: one *frame* per line, written before the in-memory
structure is mutated.  A frame is a tagged-codec JSON object::

    {"v": 1, "lsn": 17, "op": "put", "key": ..., "value": ..., "crc": 912...}

* ``v`` — the WAL schema version; a version the reader does not understand
  aborts the open (no silent misinterpretation of old logs).
* ``lsn`` — log sequence number, strictly ``previous + 1``.  A gap or
  repeat marks the frame (and everything after it) as untrusted.
* ``crc`` — CRC32 over the frame's canonical JSON with the ``crc`` field
  removed.  A mismatch means the line was half-written or bit-rotted.
  ``crc`` sorts first, so the line is that same JSON with the field
  spliced in after the opening brace: :meth:`WriteAheadLog.append`
  serializes each frame once.

**One scanner.**  Every reader of frame lines goes through :func:`_scan`,
which checks a run of lines for JSON, CRC, schema version and an LSN
sequence and stops at the first line that fails: the torn-tail scan of
:meth:`WriteAheadLog.open`, frame shipping (:meth:`~WriteAheadLog.read_frames`),
replica ingest (:meth:`~WriteAheadLog.append_frame_line`) and compaction
(:meth:`~WriteAheadLog.truncate_through`).  What recovery would keep is
exactly what is shipped, ingested and kept.

**Contiguity.**  The file holds consecutive frames that end at
``next_lsn - 1`` (or none, after a full cut): appends add ``next_lsn``,
:meth:`~WriteAheadLog.rollback_last` retracts the newest frame, compaction
drops a prefix, and when :meth:`~WriteAheadLog.ensure_next_lsn` moves the
next LSN past the file's last frame (a checkpoint covers more than the
log holds), it empties the log first.  So the frames a compaction keeps
are the file's last ``next_lsn - 1 - lsn`` lines: compaction parses and
re-validates only those, and does not read the log when it keeps nothing.

**Batch atomicity.**  A batched mutation (``put_many`` / ``delete_many``)
is one frame, so recovery applies it entirely or — when the crash landed
mid-write — not at all.  There is no partially-applied batch state on disk.

**Fsync barriers.**  ``sync_policy`` controls durability: ``"always"``
fsyncs after every append (every acknowledged op survives a power cut),
``"batch"`` fsyncs only on explicit :meth:`sync` / :meth:`close` (group
commit), ``"never"`` leaves flushing to the OS (tests, benchmarks).
Under ``"always"`` and ``"batch"``, the open that creates the file also
fsyncs its directory once, so the log's directory entry is as durable as
its first frame.

**Torn-tail detection.**  :meth:`WriteAheadLog.open` scans the whole file;
at the first unparsable / checksum-failing / out-of-sequence line it
truncates the file back to the last good frame boundary and reports how
many bytes were dropped.  This is the standard ARIES-style contract: the
log prefix up to the tear is exactly the set of recoverable operations.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.store import codec

#: Version stamped into every frame; bumped on incompatible layout changes.
WAL_SCHEMA_VERSION = 1


class WALError(RuntimeError):
    """Raised for unrecoverable log conditions (e.g. an unknown version)."""


def _scan(
    raw: bytes, expected_lsn: int | None = None
) -> tuple[list[tuple[dict, bytes]], int, str | None]:
    """Validate the frame lines at the start of ``raw``.

    Each line must be JSON with a matching CRC, this build's schema
    version and the LSN ``expected_lsn`` (or any positive LSN for the
    first line when ``expected_lsn`` is ``None``), then one more per line.
    Returns ``(frames, end, reason)``: the valid frames as
    ``(document, line)`` pairs — the document still codec-encoded, without
    its ``crc``, so its ``lsn`` is a plain int and a reader that ships or
    keeps the raw line never decodes the payload — the offset just past
    them, and why the scan stopped before the end of ``raw`` (``None``
    when it did not).  An unknown schema version is not a torn tail: it
    raises :class:`WALError` instead of silently dropping a log written by
    a newer build.
    """
    frames: list[tuple[dict, bytes]] = []
    offset = 0
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        if newline < 0:
            return frames, offset, "unterminated final frame"
        line = raw[offset : newline + 1]
        position = f"lsn {expected_lsn}" if expected_lsn is not None else "log head"
        try:
            document = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return frames, offset, f"unparsable frame at {position}"
        if not isinstance(document, dict) or "crc" not in document:
            return frames, offset, f"malformed frame at {position}"
        crc = document.pop("crc")
        if crc != codec.checksum(codec.canonical(document)):
            return frames, offset, f"checksum mismatch at {position}"
        if document.get("v") != WAL_SCHEMA_VERSION:
            raise WALError(
                f"WAL frame at {position} has schema version "
                f"{document.get('v')!r}; this build reads {WAL_SCHEMA_VERSION}"
            )
        lsn = document.get("lsn")
        if not isinstance(lsn, int) or lsn < 1 or (
            expected_lsn is not None and lsn != expected_lsn
        ):
            return frames, offset, (
                f"sequence break: expected {position}, found lsn {lsn!r}"
            )
        frames.append((document, line))
        offset = newline + 1
        expected_lsn = lsn + 1
    return frames, offset, None


@dataclass
class WALTruncateReport:
    """What :meth:`WriteAheadLog.truncate_through` kept and dropped.

    ``suspect_frames``/``suspect_bytes`` count retained-range lines that
    *failed* re-validation (corrupt, wrong version, out of sequence) and
    were therefore discarded along with everything after them;
    ``suspect_reason`` says why.  A clean compaction has
    ``suspect_reason is None``.
    """

    retained_frames: int = 0
    suspect_frames: int = 0
    suspect_bytes: int = 0
    suspect_reason: str | None = None


@dataclass
class WALOpenReport:
    """What :meth:`WriteAheadLog.open` found on disk."""

    frames: list[dict]
    #: Bytes dropped from the tail (0 when the log was clean).
    truncated_bytes: int = 0
    #: Human-readable reason for the truncation, when one happened.
    truncation_reason: str | None = None

    @property
    def last_lsn(self) -> int:
        return self.frames[-1]["lsn"] if self.frames else 0


class WriteAheadLog:
    """One append-only JSONL log file plus its durability policy."""

    # Inert class-level defaults: instances built without __init__ (crash
    # tests hand-assembling a WAL via __new__) fall back to no-op
    # instruments instead of AttributeError-ing on the hot path.
    _obs_frames = _obs_bytes = _obs_fsyncs = obs.NULL_REGISTRY.counter("null")
    _obs_truncations = _obs_torn_bytes = _obs_rollbacks = _obs_frames

    def __init__(
        self, path: str | Path, *, sync_policy: str = "always", registry=None
    ) -> None:
        if sync_policy not in ("always", "batch", "never"):
            raise ValueError(f"unknown sync policy {sync_policy!r}")
        self.path = Path(path)
        self.sync_policy = sync_policy
        self._file = None
        self._next_lsn = 1
        self._listeners: list = []
        self._truncate_epoch = 0
        reg = obs.resolve(registry)
        self._obs_frames = reg.counter("wal.frames_appended")
        self._obs_bytes = reg.counter("wal.bytes_appended")
        # Fsyncs keyed by the policy that caused them, so an exposition
        # shows at a glance which durability mode the process is paying for.
        self._obs_fsyncs = reg.counter(f"wal.fsyncs.{sync_policy}")
        self._obs_truncations = reg.counter("wal.truncations")
        self._obs_torn_bytes = reg.counter("wal.torn_tail_bytes")
        self._obs_rollbacks = reg.counter("wal.rollbacks")

    # ------------------------------------------------------------------
    # Opening and torn-tail recovery
    # ------------------------------------------------------------------
    def open(self) -> WALOpenReport:
        """Scan the log, truncate any torn tail, and position for appends."""
        with obs.span("wal.open"):
            created = not self.path.exists()
            raw = b"" if created else self.path.read_bytes()
            frames, end, reason = _scan(raw)
            if end < len(raw):
                self._obs_torn_bytes.inc(len(raw) - end)
                with open(self.path, "r+b") as handle:
                    handle.truncate(end)
                    handle.flush()
                    os.fsync(handle.fileno())
            self._file = open(self.path, "a", encoding="utf-8")
            if created and self.sync_policy != "never":
                _fsync_directory(self.path.parent)
            report = WALOpenReport(
                [codec.decode(document) for document, _ in frames],
                len(raw) - end,
                reason,
            )
            self._next_lsn = report.last_lsn + 1
        return report

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    def append(self, op: str, payload: dict) -> int:
        """Write one frame; returns its LSN.  Fsyncs per the sync policy.

        The frame is serialized once.  Its canonical JSON without ``crc``
        is the CRC body, and since ``"crc"`` sorts before every other
        frame key, the canonical JSON *with* it is that body with
        ``"crc":<n>,`` spliced in after the opening brace — the bytes a
        second ``sort_keys`` dump would write.  A payload key sorting at
        or before ``"crc"`` would break that, so it is refused.
        """
        with obs.span("wal.append"):
            frame = {"v": WAL_SCHEMA_VERSION, "lsn": self._next_lsn, "op": op}
            frame.update(codec.encode(payload))
            if min(frame) <= "crc":
                raise WALError(
                    f"frame key {min(frame)!r} sorts at or before 'crc'"
                )
            body = codec.canonical(frame)
            return self._write('{"crc":%d,' % codec.checksum(body) + body[1:] + "\n")

    def append_frame_line(self, line: str) -> dict:
        """Append one *already-framed* line verbatim (replica apply path).

        The line is what a primary's :meth:`append` wrote — CRC, version,
        LSN and newline included — shipped over the replication stream.
        It goes through the scanner recovery uses, anchored at
        ``next_lsn``, before a single byte lands in the file, so a corrupt,
        torn or out-of-sequence shipped frame raises instead of poisoning
        the replica's own log; because the accepted bytes are written
        untouched, the replica's WAL stays byte-identical to the primary's
        frame stream by construction.

        Returns the decoded frame.
        """
        frames, _, reason = _scan(line.encode("utf-8"), self._next_lsn)
        if reason is not None or len(frames) != 1:
            raise WALError(
                f"rejected shipped frame: {reason or 'not one frame line'}"
            )
        frame = codec.decode(frames[0][0])
        self._write(line)
        return frame

    def _write(self, line: str) -> int:
        """Write one validated frame line as LSN ``next_lsn``; returns it."""
        if self._file is None:
            raise WALError("log is not open")
        self._file.write(line)
        self._file.flush()
        if self.sync_policy == "always":
            os.fsync(self._file.fileno())
            self._obs_fsyncs.inc()
        self._obs_frames.inc()
        self._obs_bytes.inc(len(line))
        lsn = self._next_lsn
        self._next_lsn += 1
        self._notify(lsn)
        return lsn

    # ------------------------------------------------------------------
    # Live frame stream (replication shipping)
    # ------------------------------------------------------------------
    @property
    def truncate_epoch(self) -> int:
        """Bumped on every :meth:`truncate_through` rewrite.

        Byte offsets handed out by :meth:`read_frames` are only valid
        within one epoch — compaction rewrites the file, so a reader that
        cached an offset must restart from 0 when the epoch moved.
        """
        return self._truncate_epoch

    def add_listener(self, listener) -> None:
        """Call ``listener(lsn)`` after every durable append (live tail
        notification for replication feeders)."""
        self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def _notify(self, lsn: int) -> None:
        for listener in list(self._listeners):
            listener(lsn)

    def read_frames(
        self, after_lsn: int, *, offset: int = 0, epoch: int | None = None
    ) -> tuple[list[tuple[int, str]], int, int]:
        """Validated raw frame lines with ``frame.lsn > after_lsn``.

        The shipping read used by primary→replica WAL streaming: returns
        ``(frames, end_offset, epoch)`` where ``frames`` is a list of
        ``(lsn, line)`` pairs ready to send verbatim, ``end_offset`` is
        the byte position after the last validated frame (pass it back as
        ``offset`` on the next call to resume without rescanning), and
        ``epoch`` is the :attr:`truncate_epoch` the offset belongs to.
        A stale ``epoch`` resets the scan to the start of the (rewritten)
        file.  Only the bytes past the offset are read, so a feeder that
        resumes from its cached offset pays for the new tail, not the
        whole log.  The bytes go through the scanner :meth:`open` uses,
        so only frames a recovery would accept are ever shipped and the
        stream stops at the first line recovery would cut.  Lines are
        validated, not decoded: they are shipped as the raw bytes.
        """
        if epoch is not None and epoch != self._truncate_epoch:
            offset = 0
        try:
            with open(self.path, "rb") as handle:
                start = min(offset, os.fstat(handle.fileno()).st_size)
                handle.seek(start)
                raw = handle.read()
        except FileNotFoundError:
            start, raw = 0, b""
        frames, end, _ = _scan(raw)
        shipped = [
            (document["lsn"], line.decode("utf-8"))
            for document, line in frames
            if document["lsn"] > after_lsn
        ]
        return shipped, start + end, self._truncate_epoch

    def tell(self) -> int:
        """Current end-of-log byte offset (a frame boundary)."""
        if self._file is None:
            raise WALError("log is not open")
        return self._file.tell()

    def rollback_last(self, offset: int, lsn: int) -> None:
        """Physically retract the frame appended at ``offset``/``lsn``.

        Used when the in-memory apply of a just-logged frame fails: the
        frame would otherwise poison every future recovery (replay would
        deterministically fail on it).  Only valid for the most recent
        append.
        """
        if self._file is None:
            raise WALError("log is not open")
        if lsn != self._next_lsn - 1:
            raise WALError("rollback_last may only retract the latest frame")
        self._file.truncate(offset)
        # O_APPEND writes always land at EOF, but tell() would keep
        # reporting the pre-truncation position — resync it so the next
        # frame's recorded offset is the real boundary.
        self._file.seek(0, os.SEEK_END)
        self._file.flush()
        if self.sync_policy != "never":
            os.fsync(self._file.fileno())
            self._obs_fsyncs.inc()
        self._obs_rollbacks.inc()
        self._next_lsn = lsn
        # Cached read_frames offsets may point past (or into) the retracted
        # bytes; invalidate them like a compaction rewrite would.
        self._truncate_epoch += 1

    def ensure_next_lsn(self, minimum: int) -> None:
        """Advance the append position to at least ``minimum``.

        After a compacted log reopens empty, the checkpoint — not the log
        — carries the durable horizon.  A log that still holds frames
        when the position jumps ends before the checkpoint asking for
        ``minimum`` (recovery cut a damaged frame it covers), so that
        checkpoint covers every frame in the file: the log is emptied
        first, since an append after the gap would be cut off by the next
        recovery.
        """
        if self._next_lsn < minimum:
            if self.tell():
                self.truncate_through(self._next_lsn - 1)
            self._next_lsn = minimum

    def sync(self) -> None:
        """Explicit fsync barrier (group commit for ``"batch"`` policy)."""
        if self._file is not None and self.sync_policy != "never":
            self._file.flush()
            os.fsync(self._file.fileno())
            self._obs_fsyncs.inc()

    # ------------------------------------------------------------------
    # Compaction support
    # ------------------------------------------------------------------
    def truncate_through(self, lsn: int) -> WALTruncateReport:
        """Drop every frame with ``frame.lsn <= lsn`` (atomic rewrite).

        Called by compaction after a snapshot has made the prefix
        redundant.  The rewrite goes through a temp file + ``os.replace``
        + directory fsync, so a crash mid-compaction leaves either the
        old or the new log, never a mix.

        The log's frames are consecutive and end at ``next_lsn - 1``
        (see the module docstring), so the frames the cut keeps are the
        file's last ``next_lsn - 1 - lsn`` lines.  Only those are parsed, and each
        is **re-validated** by the scanner with its LSN anchored at
        ``lsn + 1`` (CRC, schema version, LSN contiguity), not just
        re-parsed: a frame that bit-rotted *after* the log was opened must
        not be rewritten into the retained tail, where it would survive
        compaction and poison every later recovery (and every replica
        catch-up reading the shipped stream).  The retained tail is cut at
        the first bad frame; the returned :class:`WALTruncateReport` says
        what was kept and what was discarded as suspect.  The dropped
        prefix is neither read nor validated — no recovery reads it again
        — and a cut that keeps nothing does not read the log at all.
        """
        with obs.span("wal.truncate"):
            self.close()
            kept = self._next_lsn - 1 - lsn
            tail = b""
            if kept > 0:
                raw = self.path.read_bytes()
                start = len(raw)
                for _ in range(kept):
                    if not start:
                        break
                    start = raw.rfind(b"\n", 0, start - 1) + 1
                tail = raw[start:]
            frames, end, reason = _scan(tail, lsn + 1)
            report = WALTruncateReport(retained_frames=len(frames))
            if end < len(tail):
                # Everything from the first bad frame on is untrusted — the
                # sequence anchor is gone, so later "good-looking" frames
                # cannot be re-validated either.
                suspect = tail[end:]
                report.suspect_reason = reason
                report.suspect_bytes = len(suspect)
                report.suspect_frames = suspect.count(b"\n") + (
                    0 if suspect.endswith(b"\n") else 1
                )
            tmp = self.path.with_suffix(".tmp")
            with open(tmp, "wb") as handle:
                handle.write(tail[:end])
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
            _fsync_directory(self.path.parent)
            self._file = open(self.path, "a", encoding="utf-8")
            self._truncate_epoch += 1
            self._obs_truncations.inc()
        return report

    def close(self) -> None:
        if self._file is not None:
            self.sync()
            self._file.close()
            self._file = None


def _fsync_directory(directory: Path) -> None:
    """Flush a rename to disk (no-op on platforms without dir fds)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
