"""Snapshot checkpoints for the durable store: one data file each.

A snapshot is a *directory* under ``<store>/snapshots/`` named by the LSN
it covers::

    snapshots/snapshot-0000000042/
        manifest.json     {"schema_version": 2, "lsn", "labeler",
                           "section_crcs": [crc32, ...]}
        sections.jsonl    one canonical-JSON line per shard: the shard's
                          exact labeler snapshot plus the values of the
                          keys it holds

The sharded engine's snapshot document is split into a *skeleton* (the
engine's own fields, kept in the manifest) and one *section* per shard,
in shard order.  Each section is written as soon as it is encoded, so
memory does not grow with the number of sections, and its CRC32 goes
into the manifest.

Writing is crash-safe, and its fsyncs do not depend on the shard count:
the data file and the manifest land in a ``*.tmp`` directory, each
fsynced, then the temp directory is fsynced, atomically renamed into
place, and the parent fsynced.  Loading checks that the data file holds
exactly the listed sections with matching checksums, and falls back to
the next-newest snapshot when anything is missing or corrupt, so a crash
*during* snapshotting can never poison recovery.  Pruning also removes
the temp directories such a crash leaves behind.

A checkpoint also travels: :func:`read_archive` reads one back verbatim
(what a primary ships to a bootstrapping replica), and
:func:`install_archive` publishes the shipped files on the receiving side
through the same temp-directory sequence :func:`write_snapshot` uses.

Schema-1 snapshots (one ``shard-NNNN.json`` file per shard, checksums
keyed by file name) still load.
"""

from __future__ import annotations

import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.store import codec
from repro.store.protocol import ProtocolError
from repro.store.wal import _fsync_directory

SNAPSHOT_SCHEMA_VERSION = 2

MANIFEST_FILENAME = "manifest.json"
DATA_FILENAME = "sections.jsonl"

SNAPSHOT_DIR_NAME = "snapshots"
_PREFIX = "snapshot-"


@dataclass
class SnapshotInfo:
    """One on-disk snapshot checkpoint."""

    path: Path
    lsn: int
    #: Bytes :func:`write_snapshot` wrote (0 for a listed snapshot).
    bytes_written: int = 0


def snapshot_root(store_dir: str | Path) -> Path:
    return Path(store_dir) / SNAPSHOT_DIR_NAME


def list_snapshots(store_dir: str | Path) -> list[SnapshotInfo]:
    """All snapshot directories, oldest first (invalid names skipped)."""
    root = snapshot_root(store_dir)
    found: list[SnapshotInfo] = []
    if not root.exists():
        return found
    for entry in sorted(root.iterdir()):
        name = entry.name
        if not entry.is_dir() or not name.startswith(_PREFIX):
            continue
        if name.endswith(".tmp"):
            continue  # a crash mid-write left this; never trusted
        try:
            lsn = int(name[len(_PREFIX) :])
        except ValueError:
            continue
        found.append(SnapshotInfo(path=entry, lsn=lsn))
    found.sort(key=lambda info: info.lsn)
    return found


def write_snapshot(store_dir: str | Path, lsn: int, labeler_state: dict,
                   values_by_shard: list[list]) -> SnapshotInfo:
    """Persist one checkpoint covering every WAL frame up to ``lsn``.

    ``labeler_state`` is the sharded engine's :meth:`~repro.core.sharded
    .ShardedLabeler.snapshot` document; each of its shards becomes one
    section of the data file.  ``values_by_shard`` carries, aligned with
    the shard list, the ``[key, value]`` pairs of each shard's keys.
    """
    skeleton = {key: value for key, value in labeler_state.items() if key != "shards"}

    with _publishing(store_dir, lsn) as tmp:
        crcs: list[int] = []
        with open(tmp / DATA_FILENAME, "w", encoding="utf-8") as handle:
            for shard_state, entries in zip(labeler_state["shards"], values_by_shard, strict=True):
                section = codec.dumps({"labeler": shard_state, "entries": entries})
                handle.write(section)
                handle.write("\n")
                crcs.append(codec.checksum(section))
            handle.flush()
            os.fsync(handle.fileno())
            written = os.fstat(handle.fileno()).st_size

        manifest = codec.dumps(
            {
                "schema_version": SNAPSHOT_SCHEMA_VERSION,
                "lsn": lsn,
                "labeler": skeleton,
                "section_crcs": crcs,
            }
        )
        _write_file(tmp / MANIFEST_FILENAME, manifest)
    return SnapshotInfo(
        path=_snapshot_path(store_dir, lsn), lsn=lsn, bytes_written=written + len(manifest)
    )


def read_archive(info: SnapshotInfo) -> dict[str, str]:
    """One checkpoint's files as ``{name: body}``, read back verbatim.

    The payload a primary ships to a bootstrapping replica: the sections'
    checksums travel inside the manifest, so the receiving store
    re-validates them with the ordinary loader when it opens.
    """
    return {
        entry.name: entry.read_text(encoding="utf-8")
        for entry in sorted(info.path.iterdir())
        if entry.is_file()
    }


def install_archive(store_dir: str | Path, lsn: int, files: dict[str, str]) -> None:
    """Publish a :func:`read_archive` payload as this store's checkpoint of ``lsn``.

    Every name is checked before anything is written: one that could
    reach outside the snapshot directory raises :class:`ProtocolError`.
    """
    for name in files:
        if "/" in name or "\\" in name or name.startswith("."):
            raise ProtocolError(f"refusing snapshot file with unsafe name {name!r}")
    with _publishing(store_dir, lsn) as tmp:
        for name, body in files.items():
            _write_file(tmp / name, body)


def _snapshot_path(store_dir: str | Path, lsn: int) -> Path:
    return snapshot_root(store_dir) / f"{_PREFIX}{lsn:010d}"


@contextmanager
def _publishing(store_dir: str | Path, lsn: int) -> Iterator[Path]:
    """Yield an empty temp directory; the caller writes and fsyncs each
    file in it.  On a clean exit the temp directory is fsynced, renamed
    to the checkpoint of ``lsn`` and ``snapshots/`` fsynced.  An exception
    leaves the temp directory for :func:`prune_snapshots`."""
    final = _snapshot_path(store_dir, lsn)
    final.parent.mkdir(parents=True, exist_ok=True)
    tmp = final.with_name(final.name + ".tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()
    yield tmp
    _fsync_directory(tmp)
    if final.exists():
        shutil.rmtree(final)
    os.replace(tmp, final)
    _fsync_directory(final.parent)


class SnapshotLoadError(RuntimeError):
    """A snapshot directory failed validation (corrupt or incomplete)."""


def load_snapshot(info: SnapshotInfo) -> tuple[dict, list[list]]:
    """Read and verify one checkpoint; returns ``(labeler_state, entries)``.

    ``entries`` is the concatenated ``[key, value]`` pairs in key order.
    Raises :class:`SnapshotLoadError` on any integrity problem.
    """
    try:
        manifest = codec.loads((info.path / MANIFEST_FILENAME).read_text(encoding="utf-8"))
        version = manifest["schema_version"]
        skeleton = manifest["labeler"]
        if skeleton.get("format") != "sharded":
            raise SnapshotLoadError(f"snapshot {info.path} does not hold a sharded labeler")
        if version == SNAPSHOT_SCHEMA_VERSION:
            sections = _read_sections(info.path, manifest["section_crcs"])
        elif version == 1:
            sections = _read_shard_files(info.path, manifest["shard_files"], manifest["checksums"])
        else:
            raise SnapshotLoadError(
                f"snapshot {info.path} has schema version {version!r}; this "
                f"build reads 1 and {SNAPSHOT_SCHEMA_VERSION}"
            )
        shard_states: list[dict] = []
        entries: list[list] = []
        for document in sections:
            shard_states.append(document["labeler"])
            entries.extend(document["entries"])
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as error:
        # An unreadable file, or a manifest field missing or of the wrong
        # type (the manifest has no checksum of its own), is corruption
        # like any other.
        raise SnapshotLoadError(f"malformed snapshot {info.path}: {error!r}")

    return {**skeleton, "shards": shard_states}, entries


def _read_sections(path: Path, crcs: list[int]) -> Iterator[dict]:
    """The data file's sections, each checked against its manifest CRC."""
    data = path / DATA_FILENAME
    count = 0
    with open(data, "rb") as handle:
        for line in handle:
            if count == len(crcs):
                raise SnapshotLoadError(f"{data} holds more than the {len(crcs)} listed sections")
            if not line.endswith(b"\n"):
                raise SnapshotLoadError(f"section {count} of {data} is unterminated")
            section = line[:-1].decode("utf-8")
            if codec.checksum(section) != crcs[count]:
                raise SnapshotLoadError(f"checksum mismatch in section {count} of {data}")
            count += 1
            yield codec.loads(section)
    if count != len(crcs):
        raise SnapshotLoadError(f"{data} holds {count} of {len(crcs)} listed sections")


def _read_shard_files(path: Path, names: list[str], checksums: dict) -> Iterator[dict]:
    """Schema 1: one checksummed ``shard-NNNN.json`` file per shard."""
    for name in names:
        body = (path / name).read_text(encoding="utf-8")
        if codec.checksum(body) != checksums.get(name):
            raise SnapshotLoadError(f"checksum mismatch in {path / name}")
        yield codec.loads(body)


def load_newest_valid(store_dir: str | Path) -> tuple[SnapshotInfo | None, dict | None, list[list]]:
    """The newest checkpoint that passes validation (or none at all)."""
    for info in reversed(list_snapshots(store_dir)):
        try:
            labeler_state, entries = load_snapshot(info)
        except SnapshotLoadError:
            continue
        return info, labeler_state, entries
    return None, None, []


def prune_snapshots(store_dir: str | Path, *, keep: int = 1) -> int:
    """Delete all but the ``keep`` newest snapshots, and every ``*.tmp``
    directory a crashed write left behind; returns the count removed."""
    snapshots = list_snapshots(store_dir)
    doomed = [info.path for info in snapshots[: max(0, len(snapshots) - keep)]]
    root = snapshot_root(store_dir)
    if root.exists():
        doomed += [entry for entry in root.glob(f"{_PREFIX}*.tmp") if entry.is_dir()]
    for path in doomed:
        shutil.rmtree(path, ignore_errors=True)
    return len(doomed)


def _write_file(path: Path, body: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(body)
        handle.flush()
        os.fsync(handle.fileno())
