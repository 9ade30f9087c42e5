"""The durable store's test wall: crash injection, concurrency, stateful.

Four fences:

* **Crash-injection differential** — a seeded mixed workload is recorded
  through the store; the WAL is then "killed" at every frame boundary
  (and mid-frame, for the torn-tail path), recovery is run on the
  truncated copy, and the recovered state must be *byte-identical* — key
  order, composed labels, ``items()``, per-shard physical layout — to an
  uninterrupted in-memory run of the same acknowledged prefix.  This runs
  for **every** registered shard algorithm (the exact-snapshot contract)
  plus a 10k-op flagship workload on the default algorithm (sampled
  boundaries by default; ``REPRO_STORE_EXHAUSTIVE=1``, as set by the CI
  ``store-recovery`` job, kills at every single boundary).
* **Concurrent serving** — a multi-threaded driver hammers one
  :class:`~repro.store.service.StoreService` with interleaved readers and
  writers whose commits compact inline (``compact_every``); every scan
  must be sorted and consistent, and the final durable state must equal
  the writers' merged effect — also after a reopen from disk.
* **Stateful fuzzing** — a hypothesis :class:`RuleBasedStateMachine`
  interleaves puts/deletes/batches with snapshot, compaction, clean
  reopens and torn-tail crashes, checking the model after every rule.
* **Empty-state round-trips** (regression) — ``snapshot → restore →
  insert`` works from the empty state for the sharding engine, the map,
  and the store; consistency checks and iteration paths hold immediately
  after the restore.
"""

from __future__ import annotations

import enum
import errno
import os
import random
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.applications.ordered_map import PackedMemoryMap
from repro.core.sharded import ShardedLabeler
from repro.obs import MetricsRegistry
from repro.store import codec
from repro.store.harness import (
    RecordedRun,
    ReferenceStore,
    apply_to_store,
    crash_copy,
    fingerprint,
    logical_operations,
    make_ops,
    state_digest,
)
from repro.store.factories import EXACT_SNAPSHOT_ALGORITHMS
from repro.store.service import FifoLock, StoreService
from repro.store.snapshot import (
    DATA_FILENAME,
    MANIFEST_FILENAME,
    SNAPSHOT_DIR_NAME,
    SNAPSHOT_SCHEMA_VERSION,
    list_snapshots,
)
from repro.store.store import (
    CONFIG_FILENAME,
    HORIZON_FILENAME,
    LOCK_FILENAME,
    WAL_FILENAME,
    DurableStore,
    StoreError,
)
from repro.store.wal import WALError, WALTruncateReport, WriteAheadLog
from tests.conftest import record_syscalls, synced

#: Exhaustive mode (CI store-recovery job): kill at *every* frame boundary
#: of the flagship workload instead of a deterministic sample.
EXHAUSTIVE = os.environ.get("REPRO_STORE_EXHAUSTIVE", "") not in ("", "0")

#: Every algorithm with an exact snapshot format (the layered
#: ``corollary11`` restores via the elements fallback and has its own
#: logical-contract test).
EXACT_ALGORITHMS = list(EXACT_SNAPSHOT_ALGORITHMS)


class _Level(enum.IntEnum):
    LOW = 3


class _Name(str):
    pass


class _Count(int):
    pass


class _Ratio(float):
    pass


#: ``codec.dumps`` output of every tag and leaf kind, recorded from the
#: tagging walk alone (before the plain-JSON fast path existed).
CODEC_GOLDEN = {
    "fraction": (Fraction(3, 7), '{"$frac":["3","7"]}'),
    "negative_fraction": (Fraction(-5, 2), '{"$frac":["-5","2"]}'),
    "tuple": ((1, "a", (2, 3), ()), '{"$tuple":[1,"a",{"$tuple":[2,3]},{"$tuple":[]}]}'),
    "bytes": (b"\x00\xffab", '{"$bytes":"00ff6162"}'),
    "empty_bytes": (b"", '{"$bytes":""}'),
    "int_keys": ({2: "b", 1: "a"}, '{"$dict":[[2,"b"],[1,"a"]]}'),
    "mixed_keys": (
        {(2, 3): [4], Fraction(1, 2): None, True: False},
        '{"$dict":[[{"$tuple":[2,3]},[4]],[{"$frac":["1","2"]},null],[true,false]]}',
    ),
    "dollar_keys": (
        {"$frac": ["1", "2"], "$$x": 2, "plain": 3},
        '{"$$$x":2,"$$frac":["1","2"],"plain":3}',
    ),
    "one_dollar_key": ({"$tuple": [1]}, '{"$$tuple":[1]}'),
    "bools": ([True, False, None, {"t": True}], '[true,false,null,{"t":true}]'),
    "int_subclass": ([_Level.LOW, _Count(7), {"n": _Count(8)}], '[3,7,{"n":8}]'),
    "str_subclass": ([_Name("x"), {"k": _Name("v")}], '["x",{"k":"v"}]'),
    "float_subclass": ([_Ratio(0.5)], "[0.5]"),
    "specials": (
        [float("nan"), float("inf"), float("-inf"), -0.0, 0.1, 1e300],
        "[NaN,Infinity,-Infinity,-0.0,0.1,1e+300]",
    ),
    "big_int": ([2**70, -(2**70)], "[1180591620717411303424,-1180591620717411303424]"),
    "unicode": (
        ["é☃", {"é": "\n\t\"\\"}],
        '["\\u00e9\\u2603",{"\\u00e9":"\\n\\t\\"\\\\"}]',
    ),
    "empties": ([[], {}, (), ""], '[[],{},{"$tuple":[]},""]'),
    "ordered_dict": (OrderedDict([("b", 1), ("a", (2,))]), '{"a":{"$tuple":[2]},"b":1}'),
    "nested": (
        {
            "a": [1, {"b": (Fraction(1, 3), b"x")}],
            "c": {"$d": [None, True, [[1, "x"], [2, Fraction(2, 3)]]]},
            "e": [[1, 2], [3, [4, [5, (6,)]]]],
        },
        '{"a":[1,{"b":{"$tuple":[{"$frac":["1","3"]},{"$bytes":"78"}]}}],'
        '"c":{"$$d":[null,true,[[1,"x"],[2,{"$frac":["2","3"]}]]]},'
        '"e":[[1,2],[3,[4,[5,{"$tuple":[6]}]]]]}',
    ),
    "pairs": (
        [[1, "v1"], [2, "v2"], [3, [Fraction(7, 3), "w"]]],
        '[[1,"v1"],[2,"v2"],[3,[{"$frac":["7","3"]},"w"]]]',
    ),
    "labeler_like": (
        {
            "format": "dense", "size": 2, "layout": [[0, 5], [3, 9]],
            "extra": {"rng": (3, (1, 2, 3), None), "tasks": [(1, 2)]},
        },
        '{"extra":{"rng":{"$tuple":[3,{"$tuple":[1,2,3]},null]},"tasks":[{"$tuple":[1,2]}]},'
        '"format":"dense","layout":[[0,5],[3,9]],"size":2}',
    ),
}


def _write_recorded_ops(store) -> None:
    """The seven frames of :data:`RECORDED_WAL`."""
    store.put(Fraction(1, 3), ("t", 1))
    store.put(Fraction(5, 3), {"$frac": b"\x01\x02"})
    store.put_many([(Fraction(k, 7), {"v": k, 1: [k]}) for k in range(1, 6)])
    store.put(Fraction(9, 2), float("inf"))
    store.delete(Fraction(2, 7))
    store.delete_many([Fraction(3, 7), Fraction(4, 7)])
    store.put(Fraction(1, 3), [Fraction(1, 2), None, True])


#: The log :func:`_write_recorded_ops` wrote before the plain-JSON codec
#: path, and the :func:`state_digest` of its replay (classical, 16).
RECORDED_WAL = (
    b'{"crc":720805718,"key":{"$frac":["1","3"]},"lsn":1,"op":"put","v":1,"value":{"$tuple":["t",1]}}\n'
    b'{"crc":3686161454,"key":{"$frac":["5","3"]},"lsn":2,"op":"put","v":1,"value":{"$$frac":{"$bytes":"0102"}}}\n'
    b'{"crc":1604819391,"items":[[{"$frac":["1","7"]},{"$dict":[["v",1],[1,[1]]]}],[{"$frac":["2","7"]},'
    b'{"$dict":[["v",2],[1,[2]]]}],[{"$frac":["3","7"]},{"$dict":[["v",3],[1,[3]]]}],[{"$frac":["4","7"]},'
    b'{"$dict":[["v",4],[1,[4]]]}],[{"$frac":["5","7"]},{"$dict":[["v",5],[1,[5]]]}]],"lsn":3,"op":"put_many","v":1}\n'
    b'{"crc":3515678507,"key":{"$frac":["9","2"]},"lsn":4,"op":"put","v":1,"value":Infinity}\n'
    b'{"crc":172120516,"key":{"$frac":["2","7"]},"lsn":5,"op":"del","v":1}\n'
    b'{"crc":3596778504,"keys":[{"$frac":["3","7"]},{"$frac":["4","7"]}],"lsn":6,"op":"del_many","v":1}\n'
    b'{"crc":3705690365,"key":{"$frac":["1","3"]},"lsn":7,"op":"put","v":1,"value":[{"$frac":["1","2"]},null,true]}\n'
)
RECORDED_DIGEST = "4ef47a5e787f3ebdb0cd2c25e689d675141a0f0b96abf665f00aa4aec0cbeb7c"


# ---------------------------------------------------------------------------
# Crash-injection differential: every algorithm, every frame boundary
# ---------------------------------------------------------------------------
def test_every_suite_algorithm_is_crash_tested(algorithm_name):
    """The differential's universe covers all of ALGORITHM_FACTORIES."""
    assert algorithm_name in EXACT_ALGORITHMS


class TestCrashInjectionDifferential:
    FRAMES = 110
    SNAPSHOT_EVERY = 30
    SHARD_CAPACITY = 16

    @pytest.fixture(params=EXACT_ALGORITHMS)
    def recorded(self, request, tmp_path):
        ops = make_ops(self.FRAMES, seed=97)
        return RecordedRun(
            tmp_path,
            request.param,
            ops,
            shard_capacity=self.SHARD_CAPACITY,
            snapshot_every=self.SNAPSHOT_EVERY,
        )

    def test_every_frame_boundary_recovers_exactly(self, recorded, tmp_path):
        """Kill at every boundary; recovery == the uninterrupted prefix."""
        reference = ReferenceStore(recorded.algorithm, recorded.shard_capacity)
        expected = fingerprint(reference.map)
        for k in range(recorded.frames + 1):
            if k > 0:
                reference.apply(recorded.ops[k - 1])
                expected = fingerprint(reference.map)
            recovered = recorded.recover_at(tmp_path, k)
            got = fingerprint(recovered.map)
            assert got == expected, (
                f"{recorded.algorithm}: recovery at frame {k} diverged from "
                f"the uninterrupted run"
            )
            # Snapshots must actually shorten the replay: past the first
            # checkpoint, strictly fewer frames than the full prefix.
            if k > self.SNAPSHOT_EVERY:
                assert recovered.recovery.frames_replayed < k
                assert recovered.recovery.snapshot_lsn > 0
            recovered.verify()
            recovered.close()

    def test_mid_frame_kill_truncates_torn_tail(self, recorded, tmp_path):
        """A partial frame on disk recovers to the previous boundary."""
        reference = ReferenceStore(recorded.algorithm, recorded.shard_capacity)
        sampled = {1, recorded.frames // 2, recorded.frames - 1}
        applied = 0
        for k in sorted(sampled):
            while applied < k:
                reference.apply(recorded.ops[applied])
                applied += 1
            next_frame = recorded.wal_bytes[
                recorded.boundaries[k] : recorded.boundaries[k + 1]
            ]
            torn = next_frame[: max(1, len(next_frame) // 2)]
            recovered = recorded.recover_at(tmp_path, k, extra_bytes=torn)
            assert recovered.recovery.truncated_bytes == len(torn)
            assert fingerprint(recovered.map) == fingerprint(reference.map)
            recovered.close()


class TestFlagshipWorkload:
    """The 10k-op mixed workload on the default (classical) shard profile."""

    SNAPSHOT_EVERY = 120
    SHARD_CAPACITY = 64

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        frames = 800
        ops = make_ops(frames, seed=20260730)
        while logical_operations(ops) < 10_000:
            frames += 100
            ops = make_ops(frames, seed=20260730)
        return RecordedRun(
            tmp_path_factory.mktemp("flagship"),
            "classical",
            ops,
            shard_capacity=self.SHARD_CAPACITY,
            snapshot_every=self.SNAPSHOT_EVERY,
        )

    def test_workload_is_10k_mixed_ops(self, recorded):
        assert logical_operations(recorded.ops) >= 10_000
        kinds = {op[0] for op in recorded.ops}
        assert kinds == {"put", "del", "put_many", "del_many"}

    def test_kill_points_recover_exactly(self, recorded, tmp_path):
        if EXHAUSTIVE:
            kill_points = list(range(recorded.frames + 1))
        else:
            stride = max(1, recorded.frames // 40)
            kill_points = sorted(
                set(range(0, recorded.frames + 1, stride))
                | {1, recorded.frames - 1, recorded.frames}
            )
        reference = ReferenceStore(recorded.algorithm, recorded.shard_capacity)
        applied = 0
        for k in kill_points:
            while applied < k:
                reference.apply(recorded.ops[applied])
                applied += 1
            recovered = recorded.recover_at(tmp_path, k)
            assert fingerprint(recovered.map) == fingerprint(reference.map), (
                f"flagship recovery at frame {k} diverged"
            )
            if k > self.SNAPSHOT_EVERY:
                # Snapshot + tail replay, not a full-workload replay.
                assert recovered.recovery.frames_replayed <= self.SNAPSHOT_EVERY
            recovered.close()
        # The rolling reference must land on the recorded final state.
        while applied < recorded.frames:
            reference.apply(recorded.ops[applied])
            applied += 1
        assert fingerprint(reference.map) == recorded.final_fingerprint


# ---------------------------------------------------------------------------
# Compaction: recovery after the log prefix is gone
# ---------------------------------------------------------------------------
class TestCompaction:
    def test_recovery_replays_only_the_tail_after_compaction(self, tmp_path):
        ops = make_ops(260, seed=5)
        directory = tmp_path / "compacted"
        store = DurableStore(
            directory, algorithm="classical", shard_capacity=32,
            sync_policy="never",
        )
        for index, op in enumerate(ops, start=1):
            apply_to_store(store, op)
            if index == 200:
                store.compact()
        expected = fingerprint(store.map)
        store.close()
        reopened = DurableStore(directory, sync_policy="never")
        assert fingerprint(reopened.map) == expected
        assert reopened.recovery.snapshot_lsn == 200
        assert reopened.recovery.frames_replayed == 60
        assert reopened.recovery.frames_replayed < len(ops)
        reopened.verify()
        reopened.close()

    def test_kill_points_after_compaction_recover_exactly(self, tmp_path):
        """Crash-inject inside the post-compaction tail of the WAL."""
        ops = make_ops(240, seed=6)
        directory = tmp_path / "tail"
        store = DurableStore(
            directory, algorithm="classical", shard_capacity=32,
            sync_policy="never", snapshot_keep=10**6,
        )
        compact_at = 180
        for index, op in enumerate(ops, start=1):
            apply_to_store(store, op)
            if index == compact_at:
                store.compact()
        store.close()

        raw = (directory / WAL_FILENAME).read_bytes()
        lines = raw.splitlines(keepends=True)
        assert len(lines) == len(ops) - compact_at  # prefix truly dropped

        reference = ReferenceStore("classical", 32)
        for op in ops[:compact_at]:
            reference.apply(op)
        offset = 0
        for j, line in enumerate([b""] + lines):
            offset += len(line)
            if j > 0:
                reference.apply(ops[compact_at + j - 1])
            workdir = tmp_path / f"tail-kill-{j}"
            crash_copy(
                directory,
                workdir,
                wal_bytes=raw[:offset],
                max_snapshot_lsn=compact_at + j,
            )
            recovered = DurableStore(workdir, sync_policy="never")
            assert fingerprint(recovered.map) == fingerprint(reference.map), (
                f"post-compaction recovery at tail frame {j} diverged"
            )
            assert recovered.recovery.snapshot_lsn == compact_at
            assert recovered.recovery.frames_replayed == j
            recovered.close()

    def test_a_pinned_floor_leaves_the_log_untouched(self, tmp_path):
        """A replication floor at the horizon makes the cut drop nothing:
        the compaction still checkpoints, but neither rewrites the WAL nor
        writes the horizon, and ``last_truncate_report`` is ``None``
        (regression: every such compaction rewrote, fsynced and
        re-validated the whole log).  Released, the next one cuts."""
        directory = tmp_path / "pinned"
        store = DurableStore(
            directory, algorithm="classical", shard_capacity=32,
            sync_policy="never",
        )
        wal_path = directory / WAL_FILENAME
        store.replication_floor = lambda: 0
        for round_keys in (range(50), range(50, 60)):
            for key in round_keys:
                store.put(key, f"v{key}")
            inode, frames = wal_path.stat().st_ino, wal_path.read_bytes()
            lsn = store.compact()
            assert lsn == round_keys[-1] + 1
            assert list_snapshots(directory)[-1].lsn == lsn
            assert wal_path.stat().st_ino == inode
            assert wal_path.read_bytes() == frames
            assert len(frames.splitlines()) == lsn
            assert store.durable_horizon == 0
            assert not (directory / HORIZON_FILENAME).exists()
            assert store.last_truncate_report is None

        store.replication_floor = None
        assert store.compact() == 60
        assert store.durable_horizon == 60
        assert wal_path.read_bytes() == b""
        assert store.last_truncate_report.retained_frames == 0
        expected = fingerprint(store.map)
        store.close()
        reopened = DurableStore(directory, sync_policy="never")
        assert fingerprint(reopened.map) == expected
        reopened.close()

    def test_auto_compaction_threshold(self, tmp_path):
        store = DurableStore(
            tmp_path / "auto", algorithm="classical", shard_capacity=32,
            sync_policy="never", compact_every=50,
        )
        for op in make_ops(175, seed=8):
            apply_to_store(store, op)
        assert store.wal_frames_since_snapshot < 50
        assert len(list_snapshots(store.directory)) >= 1
        expected = fingerprint(store.map)
        store.close()
        reopened = DurableStore(tmp_path / "auto", sync_policy="never")
        assert fingerprint(reopened.map) == expected
        reopened.close()


# ---------------------------------------------------------------------------
# The elements-fallback contract (layered shards restore via bulk_load)
# ---------------------------------------------------------------------------
class TestFallbackSnapshotContract:
    def test_layered_shards_recover_contents_and_order(self, tmp_path):
        """`corollary11` shards use the `elements` fallback: recovery must
        reproduce keys, items and sorted order (the logical contract),
        though not necessarily the identical physical slots."""
        ops = make_ops(90, seed=11)
        directory = tmp_path / "layered"
        store = DurableStore(
            directory, algorithm="corollary11", shard_capacity=32,
            sync_policy="never",
        )
        for index, op in enumerate(ops, start=1):
            apply_to_store(store, op)
            if index == 45:
                store.snapshot()
        expected_items = list(store.items())
        store.close()
        reopened = DurableStore(directory, sync_policy="never")
        assert list(reopened.items()) == expected_items
        assert reopened.keys() == sorted(reopened.keys())
        reopened.verify()
        reopened.close()


# ---------------------------------------------------------------------------
# WAL unit fences
# ---------------------------------------------------------------------------
class TestWriteAheadLog:
    def _frames(self, path: Path) -> list[dict]:
        wal = WriteAheadLog(path, sync_policy="never")
        report = wal.open()
        wal.close()
        return report.frames

    def test_append_and_reopen(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync_policy="never")
        wal.open()
        wal.append("put", {"key": 1, "value": "a"})
        wal.append("put_many", {"items": [[2, "b"], [3, "c"]]})
        wal.close()
        frames = self._frames(path)
        assert [frame["op"] for frame in frames] == ["put", "put_many"]
        assert [frame["lsn"] for frame in frames] == [1, 2]
        assert frames[1]["items"] == [[2, "b"], [3, "c"]]

    def test_partial_final_line_is_truncated(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync_policy="never")
        wal.open()
        for i in range(5):
            wal.append("put", {"key": i, "value": i})
        wal.close()
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"v": 1, "lsn": 6, "op": "put"')
        wal2 = WriteAheadLog(path, sync_policy="never")
        report = wal2.open()
        wal2.close()
        assert len(report.frames) == 5
        assert report.truncated_bytes > 0
        assert path.read_bytes() == intact  # physically truncated back

    def test_corrupted_crc_truncates_from_there(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync_policy="never")
        wal.open()
        for i in range(6):
            wal.append("put", {"key": i, "value": i})
        wal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        flipped = lines[3].replace(b'"key":3', b'"key":9')
        path.write_bytes(b"".join(lines[:3] + [flipped] + lines[4:]))
        report = WriteAheadLog(path, sync_policy="never").open()
        assert len(report.frames) == 3
        assert "checksum" in report.truncation_reason

    def test_lsn_gap_truncates(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync_policy="never")
        wal.open()
        for i in range(6):
            wal.append("put", {"key": i, "value": i})
        wal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:3] + lines[4:]))  # drop frame 4
        report = WriteAheadLog(path, sync_policy="never").open()
        assert len(report.frames) == 3
        assert "sequence break" in report.truncation_reason

    def test_unknown_schema_version_refuses(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        import json

        frame = {"v": 999, "lsn": 1, "op": "put", "key": 1, "value": 1}
        body = json.dumps(frame, sort_keys=True, separators=(",", ":"))
        frame["crc"] = codec.checksum(body)
        path.write_text(
            json.dumps(frame, sort_keys=True, separators=(",", ":")) + "\n"
        )
        with pytest.raises(WALError):
            WriteAheadLog(path, sync_policy="never").open()

    def test_read_frames_from_a_cached_offset_reads_only_the_tail(
        self, tmp_path, monkeypatch
    ):
        from repro.store import wal as wal_module

        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync_policy="never")
        wal.open()
        for i in range(40):
            wal.append("put", {"key": i, "value": i})
        frames, offset, epoch = wal.read_frames(0)
        assert [lsn for lsn, _ in frames] == list(range(1, 41))
        assert offset == path.stat().st_size
        for i in range(40, 43):
            wal.append("put", {"key": i, "value": i})

        read_sizes: list[int] = []

        def counting_open(*args, **kwargs):
            handle = open(*args, **kwargs)
            read = handle.read

            def counted(*read_args):
                data = read(*read_args)
                read_sizes.append(len(data))
                return data

            handle.read = counted
            return handle

        monkeypatch.setattr(wal_module, "open", counting_open, raising=False)
        tail, end, tail_epoch = wal.read_frames(40, offset=offset, epoch=epoch)
        monkeypatch.undo()
        assert sum(read_sizes) == path.stat().st_size - offset
        assert [lsn for lsn, _ in tail] == [41, 42, 43]
        assert tail == wal.read_frames(40)[0]
        assert (end, tail_epoch) == (path.stat().st_size, epoch)
        wal.close()

    def test_read_frames_with_a_stale_epoch_rescans_the_rewrite(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync_policy="never")
        wal.open()
        for i in range(10):
            wal.append("put", {"key": i, "value": i})
        _, offset, epoch = wal.read_frames(0)
        wal.truncate_through(6)
        for i in range(10, 12):
            wal.append("put", {"key": i, "value": i})
        frames, end, new_epoch = wal.read_frames(6, offset=offset, epoch=epoch)
        assert new_epoch != epoch
        assert [lsn for lsn, _ in frames] == list(range(7, 13))
        assert frames == wal.read_frames(6)[0]
        assert end == path.stat().st_size
        wal.close()

    def test_batch_frame_is_atomic_under_tearing(self, tmp_path):
        """A torn batch frame recovers to *zero* of its operations."""
        directory = tmp_path / "atomic"
        store = DurableStore(
            directory, algorithm="classical", shard_capacity=32,
            sync_policy="never",
        )
        store.put(1, "one")
        store.put_many([(10, "a"), (11, "b"), (12, "c"), (13, "d")])
        store.close()
        raw = (directory / WAL_FILENAME).read_bytes()
        lines = raw.splitlines(keepends=True)
        torn = lines[0] + lines[1][: len(lines[1]) // 2]
        (directory / WAL_FILENAME).write_bytes(torn)
        recovered = DurableStore(directory, sync_policy="never")
        assert recovered.keys() == [1]  # the batch is all-or-nothing
        recovered.close()


    def test_recorded_log_replays_and_is_rewritten_byte_identically(self, tmp_path):
        """Frames are byte-identical to the ones the tagging walk wrote, and
        a log written then still replays to the same state."""
        store = DurableStore(
            tmp_path / "new", algorithm="classical", shard_capacity=16,
            sync_policy="never",
        )
        _write_recorded_ops(store)
        store.close()
        assert (tmp_path / "new" / WAL_FILENAME).read_bytes() == RECORDED_WAL
        (tmp_path / "old").mkdir()
        (tmp_path / "old" / WAL_FILENAME).write_bytes(RECORDED_WAL)
        replayed = DurableStore(
            tmp_path / "old", algorithm="classical", shard_capacity=16,
            sync_policy="never",
        )
        assert replayed.recovery.frames_replayed == 7
        assert state_digest(replayed.map) == RECORDED_DIGEST
        replayed.close()

    def test_a_frame_is_serialized_once(self, tmp_path, monkeypatch):
        """One canonical dump per append, and the line is the ``sort_keys``
        dump of the frame with its CRC, byte for byte."""
        import json

        wal = WriteAheadLog(tmp_path / "wal.jsonl", sync_policy="never")
        wal.open()
        dumps = []
        canonical = codec.canonical
        monkeypatch.setattr(
            codec, "canonical", lambda document: dumps.append(1) or canonical(document)
        )
        payloads = [
            ("put", {"key": Fraction(1, 3), "value": "é\u2028\"x"}),
            ("put_many", {"items": [[2, {"$k": (1, b"\x00")}], [3, None]]}),
            ("del_many", {"keys": [1.5, -7, "z"]}),
        ]
        for op, payload in payloads:
            wal.append(op, payload)
        monkeypatch.undo()
        wal.close()
        assert len(dumps) == len(payloads)
        for line in (tmp_path / "wal.jsonl").read_text(encoding="utf-8").splitlines():
            frame = json.loads(line)
            assert line == json.dumps(frame, sort_keys=True, separators=(",", ":"))
            crc = frame.pop("crc")
            assert crc == codec.checksum(codec.canonical(frame))
        assert [frame["op"] for frame in self._frames(tmp_path / "wal.jsonl")] == [
            op for op, _ in payloads
        ]

    @pytest.mark.parametrize("key", ["a", "crc", "$dollar", "cr"])
    def test_payload_keys_sorting_before_crc_are_refused(self, tmp_path, key):
        wal = WriteAheadLog(tmp_path / "wal.jsonl", sync_policy="never")
        wal.open()
        with pytest.raises(WALError):
            wal.append("put", {key: 1})
        assert wal.next_lsn == 1
        wal.close()
        assert (tmp_path / "wal.jsonl").read_bytes() == b""


class TestBatchIngestGolden:
    """Bulk ingest is pinned bit for bit.

    Batches go through the slab move logs of the sharding engine, one
    directory rebuild per batch, one occupancy-bitmask flip per move, the
    per-shard batch ranking and one serialization per WAL frame.  The
    constants were recorded from the per-element implementation (a
    :class:`~repro.core.operations.Move` pair per lifted move, a directory
    rebuild per rewrite, two Fenwick walks per move, one key search per
    key, two dumps per frame), so every move log, layout and byte on disk
    must come out as it did there.
    """

    KEYS = 10_000

    #: shape -> (move-log digest, state digest, WAL sha256, sections sha256)
    GOLDEN = {
        "5 x 2000 staggered": (
            "142e65a381cbc06386f6a7d6be9c9e607f6099019c4195e13e2270220ad239ef",
            "e4cc58d6809cbaed3c6b9845c47145b93eec55640ab878957b8cf2caa9a2fda6",
            "c236faeb02951b3570ee53ce16c3cacb8afa9d8cc6ba5a2624d4fe5b2a7159e9",
            "6dfb4d3ae5a4174e5a3b775b83103aff9a3e1e210bc5516ce31958e1ab0cabe7",
        ),
        "1 x 10000 into empty": (
            "4dd74d53df1afd4cad0fc723ed1a4d577fb1b9aa31fa0a90e9e60b1bef3e7df9",
            "9fd01d781f8139191141be5b2fd7223b88edd404423f51720d0ccda4ef873bbc",
            "149e3c668859ea6f1a45f6f779b88a142f39a8ba8d25090d9edc6d3a1eedd854",
            "40505be1b9dd0399ed611f8b645fad5d9fe6baaa5de075d1c24bdedae34a62ec",
        ),
    }

    @pytest.mark.parametrize("shape", sorted(GOLDEN))
    def test_batches_match_the_recorded_digests(self, tmp_path, shape):
        import hashlib

        from repro.store.harness import move_log_digest, record_move_log

        keys = random.Random(2024).sample(range(1 << 48), self.KEYS)
        items = [(key, f"{key:012x}") for key in keys]
        size = 2_000 if shape.startswith("5") else self.KEYS
        store = DurableStore(tmp_path / "s", shard_capacity=128, sync_policy="never")
        log = record_move_log(store.labeler)
        for start in range(0, self.KEYS, size):
            store.put_many(items[start : start + size])
        store.labeler.check_consistency()
        wal_bytes = (tmp_path / "s" / WAL_FILENAME).read_bytes()
        store.compact()
        newest = list_snapshots(store.directory)[-1].path
        sections = (newest / DATA_FILENAME).read_bytes()
        observed = (
            move_log_digest(log),
            state_digest(store.map),
            hashlib.sha256(wal_bytes).hexdigest(),
            hashlib.sha256(sections).hexdigest(),
        )
        store.close()
        assert observed == self.GOLDEN[shape]


class TestCodec:
    def test_round_trips(self):
        from fractions import Fraction

        samples = [
            None,
            True,
            -17,
            3.5,
            "plain",
            "$looks-tagged",
            Fraction(22, 7),
            (1, (2, "x"), Fraction(1, 3)),
            b"\x00\xffbytes",
            {"nested": [1, {"deep": (Fraction(5, 9),)}]},
            {"$frac": "escaped-key-collision"},
            {3: "int-keyed", (1, 2): "tuple-keyed"},
        ]
        for value in samples:
            assert codec.loads(codec.dumps(value)) == value

    def test_canonical_dumps_is_stable(self):
        value = {"b": 2, "a": [1, (2, 3)]}
        assert codec.dumps(value) == codec.dumps(dict(reversed(value.items())))

    @pytest.mark.parametrize("name", sorted(CODEC_GOLDEN))
    def test_dumps_matches_the_full_walk_byte_for_byte(self, name):
        """Strings written by the tagging walk before the plain-JSON fast
        path: WAL CRCs, snapshot checksums and wire messages depend on
        every byte."""
        value, expected = CODEC_GOLDEN[name]
        assert codec.dumps(value) == expected
        assert codec.dumps(codec.loads(expected)) == expected

    def test_plain_json_is_passed_through_and_tagged_input_is_not_mutated(self):
        from fractions import Fraction

        plain = {"layout": [[0, 5], [3, 9]], "entries": [[5, "a"], [9, None]], "n": 1.5}
        assert codec.encode(plain) is plain
        assert codec.decode(plain) is plain
        tagged = {"layout": [[0, 5]], "extra": {"level": [(1, 2)]}, "key": Fraction(1, 2)}
        encoded = codec.encode(tagged)
        assert encoded["layout"] is tagged["layout"]  # untouched subtree shared
        assert tagged == {"layout": [[0, 5]], "extra": {"level": [(1, 2)]}, "key": Fraction(1, 2)}
        assert codec.decode(encoded) == tagged


# ---------------------------------------------------------------------------
# Store-level edges
# ---------------------------------------------------------------------------
class TestStoreEdges:
    def test_delete_missing_key_does_not_log(self, tmp_path):
        store = DurableStore(tmp_path / "s", sync_policy="never")
        with pytest.raises(KeyError):
            store.delete(42)
        with pytest.raises(KeyError):
            store.delete_many([42])
        assert store.last_lsn == 0
        store.close()

    def test_failed_apply_retracts_the_frame(self, tmp_path):
        """A mutation that fails in memory must not leave a poison WAL
        frame — replay would deterministically fail on it and the store
        could never be reopened."""
        store = DurableStore(tmp_path / "s", sync_policy="never")
        store.put(1, "one")
        with pytest.raises(TypeError):
            store.put("not-comparable-to-ints", "x")
        with pytest.raises(TypeError):
            store.put_many([(2, "two"), ("mixed", "y")])
        assert store.last_lsn == 1          # both frames were retracted
        store.put(2, "two")                 # the store keeps working
        expected = list(store.items())
        store.close()
        reopened = DurableStore(tmp_path / "s", sync_policy="never")
        assert list(reopened.items()) == expected
        reopened.close()

    def test_nan_key_is_refused_and_retracted(self, tmp_path):
        """A NaN key compares false against everything: it used to land at
        rank 1 and break the key order for good, across reopens too."""
        store = DurableStore(tmp_path / "s", sync_policy="never")
        for key in (1.0, 2.0, 3.0):
            store.put(key, "v")
        wal_bytes = (tmp_path / "s" / WAL_FILENAME).stat().st_size
        with pytest.raises(ValueError, match="not equal to itself"):
            store.put(float("nan"), "x")
        with pytest.raises(ValueError, match="not equal to itself"):
            store.put_many([(4.0, "v"), (float("nan"), "x")])
        assert store.last_lsn == 3           # both frames were retracted
        assert (tmp_path / "s" / WAL_FILENAME).stat().st_size == wal_bytes
        store.verify()
        assert list(store.range(2.0, 3.0)) == [(2.0, "v"), (3.0, "v")]
        store.close()
        reopened = DurableStore(tmp_path / "s", sync_policy="never")
        assert reopened.keys() == [1.0, 2.0, 3.0]
        reopened.verify()
        reopened.close()

    def test_fallback_below_compaction_horizon_refuses(self, tmp_path):
        """A corrupt newest snapshot + a compacted WAL must fail loudly,
        not silently recover acknowledged writes away."""
        store = DurableStore(
            tmp_path / "s", algorithm="classical", shard_capacity=32,
            sync_policy="never", snapshot_keep=10**6,
        )
        for i in range(10):
            store.put(i, i)
        store.compact()                     # snapshot lsn 10
        for i in range(10, 20):
            store.put(i, i)
        store.compact()                     # snapshot lsn 20, WAL empty
        store.close()
        newest = list_snapshots(tmp_path / "s")[-1]
        (newest.path / DATA_FILENAME).write_text("garbage")
        with pytest.raises(StoreError, match="compacted through lsn 20"):
            DurableStore(tmp_path / "s", sync_policy="never")

    def test_a_damaged_frame_the_checkpoint_covers_loses_no_later_write(
        self, tmp_path
    ):
        """Regression: recovery cut the log at a damaged frame the newest
        checkpoint covers and moved the next LSN past the gap, so the
        next writes landed after it and the next reopen cut them off
        ("sequence break: expected lsn 7, found lsn 11"), silently."""
        directory = tmp_path / "s"
        store = DurableStore(
            directory, algorithm="classical", shard_capacity=32,
            sync_policy="always",
        )
        for key in range(10):
            store.put(key, f"v{key}")
        store.snapshot()                    # covers lsn 1..10
        store.close()
        wal_path = directory / WAL_FILENAME
        lines = wal_path.read_bytes().splitlines(keepends=True)
        damaged = bytearray(lines[6])       # frame 7
        damaged[len(damaged) // 2] ^= 0x01
        wal_path.write_bytes(b"".join(lines[:6] + [bytes(damaged)] + lines[7:]))

        store = DurableStore(directory, sync_policy="always")
        assert store.recovery.truncation_reason is not None
        assert store.last_lsn == 10
        # Only the checkpoint holds lsn 1..10 now: the log is empty, and
        # the horizon says so (a replica behind it must bootstrap).
        assert wal_path.read_bytes() == b""
        assert store.durable_horizon == 10
        store.put(100, "a")
        store.put(101, "b")
        assert store.last_lsn == 12
        expected = list(store.items())
        store.close()

        reopened = DurableStore(directory, sync_policy="always")
        assert reopened.recovery.truncation_reason is None
        assert reopened.recovery.frames_replayed == 2
        assert list(reopened.items()) == expected
        assert reopened.get(100) == "a" and reopened.get(101) == "b"
        reopened.verify()
        reopened.close()

    def test_second_live_open_is_refused(self, tmp_path):
        """Two writers on one directory would interleave LSNs and let the
        next recovery truncate acknowledged frames — the lock makes the
        second open fail loudly instead."""
        first = DurableStore(tmp_path / "s", sync_policy="never")
        with pytest.raises(StoreError, match="locked"):
            DurableStore(tmp_path / "s", sync_policy="never")
        first.close()
        second = DurableStore(tmp_path / "s", sync_policy="never")
        second.close()

    def test_a_held_lock_is_its_own_error(self, tmp_path):
        """Only a held lock raises ``StoreLockedError``: a caller may wipe a
        directory that does not open, but never one a live store holds."""
        from repro.store.store import StoreLockedError

        first = DurableStore(tmp_path / "s", sync_policy="never")
        with pytest.raises(StoreLockedError):
            DurableStore(tmp_path / "s", sync_policy="never")
        first.close()
        (tmp_path / "s" / CONFIG_FILENAME).write_text("")
        with pytest.raises(StoreError) as refused:
            DurableStore(tmp_path / "s", sync_policy="never")
        assert not isinstance(refused.value, StoreLockedError)

    def test_cli_refuses_missing_store_directory(self, tmp_path, capsys):
        from repro.store.__main__ import main as store_cli

        for command in ("verify", "recover", "compact", "snapshot"):
            with pytest.raises(SystemExit, match="no store at"):
                store_cli([command, "--dir", str(tmp_path / "nowhere")])
            assert not (tmp_path / "nowhere").exists()
        # --create initializes explicitly, and the store is then openable.
        assert store_cli(["recover", "--dir", str(tmp_path / "fresh"),
                          "--create", "--sync", "never"]) == 0
        assert store_cli(["verify", "--dir", str(tmp_path / "fresh"),
                          "--sync", "never"]) == 0

    def test_reopen_with_other_algorithm_refuses(self, tmp_path):
        store = DurableStore(tmp_path / "s", algorithm="classical")
        store.close()
        with pytest.raises(StoreError):
            DurableStore(tmp_path / "s", algorithm="naive")

    def test_reopen_with_other_shard_capacity_refuses(self, tmp_path):
        store = DurableStore(tmp_path / "s", shard_capacity=64)
        store.close()
        with pytest.raises(StoreError):
            DurableStore(tmp_path / "s", shard_capacity=32)

    def test_corrupt_snapshot_falls_back_to_older(self, tmp_path):
        directory = tmp_path / "s"
        store = DurableStore(
            directory, algorithm="classical", shard_capacity=32,
            sync_policy="never", snapshot_keep=10**6,
        )
        ops = make_ops(80, seed=12)
        for index, op in enumerate(ops, start=1):
            apply_to_store(store, op)
            if index in (40, 80):
                store.snapshot()
        expected = fingerprint(store.map)
        store.close()
        newest = list_snapshots(directory)[-1]
        (newest.path / DATA_FILENAME).write_text("garbage")
        recovered = DurableStore(directory, sync_policy="never")
        assert recovered.recovery.snapshot_lsn == 40  # fell back
        assert fingerprint(recovered.map) == expected
        recovered.close()

    def test_durable_map_round_trip(self, tmp_path):
        """The durable clustered index: the store's map, reopened exactly."""
        with DurableStore(
            tmp_path / "m", algorithm="classical", shard_capacity=32,
            sync_policy="never",
        ) as store:
            store["alice"] = 1
            store.put_many([("bob", 2), ("carol", 3)])
            del store["alice"]
            store.compact()
            store["dave"] = 4
            expected = list(store.items())
            label = store.map.label_of("bob")
        reopened = DurableStore(tmp_path / "m", sync_policy="never")
        assert list(reopened.items()) == expected
        assert reopened.recovery.frames_replayed == 1
        assert reopened.map.label_of("bob") == label
        assert reopened.map.predecessor("carol") == "bob"
        reopened.verify()
        reopened.close()

    @pytest.mark.parametrize("policy", ["always", "batch", "never"])
    def test_new_store_fsyncs_its_directory_once(self, tmp_path, policy):
        """Creating the log under ``always`` or ``batch`` fsyncs the store
        directory, so the log's entry is durable before the first frame
        is acknowledged; ``never`` adds no syscall.  (The config before
        it is replaced atomically under every policy.)"""
        directory = tmp_path / "s"
        with record_syscalls() as events:
            store = DurableStore(directory, sync_policy=policy)
            store.put("k", 1)
        expected = [
            synced(directory / CONFIG_FILENAME),
            ("replace", directory / CONFIG_FILENAME),
            synced(directory),
        ]
        if policy != "never":
            expected.append(synced(directory))
        if policy == "always":
            expected.append(synced(directory / WAL_FILENAME))
        assert events == expected
        store.close()
        with record_syscalls() as events:
            DurableStore(directory, sync_policy=policy).close()
        assert synced(directory) not in events  # reopening creates nothing

    def test_config_is_fsynced_before_its_rename(self, tmp_path):
        """A power cut while a store is created leaves no config or a
        whole one, never an empty file under the config's name."""
        directory = tmp_path / "s"
        with record_syscalls() as events:
            DurableStore(directory, sync_policy="never").close()
        config = directory / CONFIG_FILENAME
        renamed = events.index(("replace", config))
        assert synced(config) in events[:renamed]
        assert synced(directory) in events[renamed + 1 :]
        assert sorted(path.name for path in directory.iterdir()) == sorted(
            [CONFIG_FILENAME, WAL_FILENAME, LOCK_FILENAME]
        )

    @pytest.mark.parametrize(
        "damage", [b"", b'{"schema_version": 1', b"\xff\xfe", b"[1, 2]"],
        ids=["emptied", "truncated", "not-utf8", "not-an-object"],
    )
    def test_unreadable_config_is_a_store_error(self, tmp_path, damage):
        directory = tmp_path / "s"
        DurableStore(directory, sync_policy="never").close()
        (directory / CONFIG_FILENAME).write_bytes(damage)
        with pytest.raises(StoreError, match="store config"):
            DurableStore(directory, sync_policy="never")


# ---------------------------------------------------------------------------
# Checkpoint files: one data file, its checks, its fsyncs, the old format
# ---------------------------------------------------------------------------
def _write_schema_one(directory: Path, lsn: int, labeler_state: dict,
                      values_by_shard: list[list]) -> Path:
    """A checkpoint in the schema-1 layout: a manifest plus one checksummed
    ``shard-NNNN.json`` file per shard, written as that format's writer did."""
    path = directory / SNAPSHOT_DIR_NAME / f"snapshot-{lsn:010d}"
    path.mkdir(parents=True)
    skeleton = {key: value for key, value in labeler_state.items() if key != "shards"}
    checksums: dict[str, int] = {}
    shard_files: list[str] = []
    for index, shard_state in enumerate(labeler_state["shards"]):
        name = f"shard-{index:04d}.json"
        body = codec.dumps({"labeler": shard_state, "entries": values_by_shard[index]})
        (path / name).write_text(body, encoding="utf-8")
        checksums[name] = codec.checksum(body)
        shard_files.append(name)
    manifest = {
        "schema_version": 1,
        "lsn": lsn,
        "labeler": skeleton,
        "shard_files": shard_files,
        "checksums": checksums,
    }
    (path / MANIFEST_FILENAME).write_text(codec.dumps(manifest), encoding="utf-8")
    return path


def _fsyncs_of_one_compaction(store: DurableStore, monkeypatch) -> int:
    calls: list[int] = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        calls.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    try:
        store.compact()
    finally:
        monkeypatch.undo()
    return len(calls)


class TestCheckpointFiles:
    def _store(self, directory: Path, **kwargs) -> DurableStore:
        return DurableStore(
            directory, algorithm="classical", shard_capacity=16,
            sync_policy="never", **kwargs,
        )

    def test_one_data_file_holds_one_section_per_shard(self, tmp_path):
        store = self._store(tmp_path / "s")
        for op in make_ops(80, seed=19):
            apply_to_store(store, op)
        store.compact()
        shards = store.labeler.shard_count
        store.close()
        newest = list_snapshots(tmp_path / "s")[-1].path
        assert sorted(entry.name for entry in newest.iterdir()) == [
            MANIFEST_FILENAME, DATA_FILENAME,
        ]
        manifest = codec.loads((newest / MANIFEST_FILENAME).read_text())
        assert manifest["schema_version"] == SNAPSHOT_SCHEMA_VERSION == 2
        sections = (newest / DATA_FILENAME).read_text().splitlines()
        assert shards > 2
        assert len(sections) == len(manifest["section_crcs"]) == shards
        assert [codec.checksum(line) for line in sections] == manifest["section_crcs"]

    @pytest.mark.parametrize(
        "damage",
        ["flipped_middle_byte", "missing_last_section", "manifest_one_short",
         "manifest_without_crcs"],
    )
    def test_damaged_checkpoint_falls_back_to_older(self, tmp_path, damage):
        directory = tmp_path / "s"
        store = self._store(directory, snapshot_keep=10**6)
        for index, op in enumerate(make_ops(120, seed=21), start=1):
            apply_to_store(store, op)
            if index in (60, 120):
                store.snapshot()
        expected = fingerprint(store.map)
        store.close()
        newest = list_snapshots(directory)[-1].path
        data = newest / DATA_FILENAME
        lines = data.read_bytes().splitlines(keepends=True)
        assert len(lines) >= 3
        if damage == "flipped_middle_byte":
            middle = bytearray(lines[len(lines) // 2])
            middle[len(middle) // 2] ^= 0x01
            lines[len(lines) // 2] = bytes(middle)
            data.write_bytes(b"".join(lines))
        elif damage == "missing_last_section":
            data.write_bytes(b"".join(lines[:-1]))
        else:
            manifest = codec.loads((newest / MANIFEST_FILENAME).read_text())
            if damage == "manifest_one_short":
                manifest["section_crcs"].pop()
            else:
                del manifest["section_crcs"]
            (newest / MANIFEST_FILENAME).write_text(codec.dumps(manifest))
        recovered = DurableStore(directory, sync_policy="never")
        assert recovered.recovery.snapshot_lsn == 60  # fell back
        assert fingerprint(recovered.map) == expected
        recovered.close()

    def test_schema_one_checkpoint_of_a_sharded_store_loads_exactly(self, tmp_path):
        directory = tmp_path / "s"
        store = self._store(directory)
        for op in make_ops(100, seed=23):
            apply_to_store(store, op)
        lsn = store.last_lsn
        labeler_state = store.labeler.snapshot()
        values = [store.map.entries(shard.elements()) for shard in store.labeler.shards]
        for key in range(-5, 0):
            store.put(key, "tail")
        expected = fingerprint(store.map)
        store.close()
        _write_schema_one(directory, lsn, labeler_state, values)
        assert len(values) > 2
        reopened = DurableStore(directory, sync_policy="never")
        assert reopened.recovery.snapshot_lsn == lsn
        assert reopened.recovery.frames_replayed == 5
        assert fingerprint(reopened.map) == expected
        reopened.verify()
        reopened.close()

    def test_stale_temp_checkpoint_is_pruned(self, tmp_path):
        """A crash mid-write leaves a ``*.tmp`` directory that no listing
        returns; the next compaction removes it."""
        directory = tmp_path / "s"
        store = self._store(directory)
        for op in make_ops(60, seed=29):
            apply_to_store(store, op)
        stale = directory / SNAPSHOT_DIR_NAME / "snapshot-0000000005.tmp"
        stale.mkdir(parents=True)
        (stale / DATA_FILENAME).write_text("half a checkpoint")
        store.compact()
        assert not stale.exists()
        expected = fingerprint(store.map)
        store.close()
        reopened = DurableStore(directory, sync_policy="never")
        assert fingerprint(reopened.map) == expected
        reopened.close()

    def test_checkpoint_fsyncs_do_not_grow_with_the_shard_count(self, tmp_path, monkeypatch):
        small = self._store(tmp_path / "small")
        for key in range(16):
            small.put(key, key)
        large = self._store(tmp_path / "large")
        large.put_many([(key, key) for key in range(3600)])
        assert small.labeler.shard_count == 2
        assert large.labeler.shard_count >= 500
        assert _fsyncs_of_one_compaction(large, monkeypatch) == _fsyncs_of_one_compaction(
            small, monkeypatch
        )
        small.close()
        large.close()

    def test_compaction_fsyncs_before_every_rename(self, tmp_path, monkeypatch):
        """The checkpoint is durable before the horizon moves, and the
        horizon before the log loses a frame."""
        directory = tmp_path / "s"
        store = self._store(directory)
        for op in make_ops(40, seed=37):
            apply_to_store(store, op)
        events: list[tuple] = []
        real_fsync, real_replace = os.fsync, os.replace

        def recording_fsync(fd):
            stat = os.fstat(fd)
            events.append(("fsync", (stat.st_dev, stat.st_ino)))
            real_fsync(fd)

        def recording_replace(source, target):
            events.append(("replace", Path(source).name, Path(target).name))
            real_replace(source, target)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        try:
            store.compact()
        finally:
            monkeypatch.undo()
        store.close()

        def synced(path: Path) -> tuple:
            stat = os.stat(path)
            return ("fsync", (stat.st_dev, stat.st_ino))

        newest = list_snapshots(directory)[-1].path
        assert events == [
            synced(newest / DATA_FILENAME),
            synced(newest / MANIFEST_FILENAME),
            synced(newest),  # the temp directory, before its rename
            ("replace", newest.name + ".tmp", newest.name),
            synced(directory / SNAPSHOT_DIR_NAME),
            synced(directory / HORIZON_FILENAME),
            ("replace", "horizon.tmp", HORIZON_FILENAME),
            synced(directory),
            synced(directory / WAL_FILENAME),
            ("replace", "wal.tmp", WAL_FILENAME),
            synced(directory),
        ]


# ---------------------------------------------------------------------------
# Empty-state round-trips (regression: satellite 2)
# ---------------------------------------------------------------------------
class TestEmptyStateRoundTrips:
    def test_sharded_empty_snapshot_restore_insert(self, algorithm_factory):
        engine = ShardedLabeler(algorithm_factory, shard_capacity=16)
        twin = ShardedLabeler(algorithm_factory, shard_capacity=16)
        twin.restore(engine.snapshot())
        twin.check_consistency()          # regression: used to assume >=1 key
        assert twin.shard_statistics()["shards"] >= 1.0
        assert list(twin.elements()) == []
        assert twin.labels() == {}
        twin.insert(1, "first")
        twin.check_consistency()
        assert list(twin.elements()) == ["first"]

    def test_sharded_zero_shard_snapshot_restores_to_canonical_empty(self):
        from repro.algorithms import ClassicalPMA

        engine = ShardedLabeler(lambda cap: ClassicalPMA(cap), shard_capacity=16)
        state = engine.snapshot()
        state["shards"] = []              # a degenerate (but legal) document
        twin = ShardedLabeler(lambda cap: ClassicalPMA(cap), shard_capacity=16)
        twin.restore(state)
        assert twin.shard_count == 1      # canonical empty state, not zero
        twin.check_consistency()
        twin.insert(1, "x")
        twin.check_consistency()

    def test_map_empty_round_trip_iteration_paths(self):
        source = PackedMemoryMap()
        target = PackedMemoryMap()
        target.restore_state(source.snapshot_state())
        assert list(target.items()) == []
        assert target.keys() == []
        assert list(target.range(0, 10**9)) == []
        target.check()
        target["k"] = "v"
        assert list(target.items()) == [("k", "v")]
        target.check()

    def test_store_empty_snapshot_restore_insert(self, tmp_path):
        store = DurableStore(
            tmp_path / "empty", algorithm="classical", shard_capacity=32,
            sync_policy="never",
        )
        store.snapshot()                  # checkpoint of the empty state
        store.close()
        reopened = DurableStore(tmp_path / "empty", sync_policy="never")
        assert reopened.recovery.snapshot_lsn == 0 or not reopened.keys()
        assert list(reopened.items()) == []
        reopened.verify()
        reopened.put(1, "one")
        reopened.verify()
        expected = list(reopened.items())
        reopened.close()
        again = DurableStore(tmp_path / "empty", sync_policy="never")
        assert list(again.items()) == expected
        again.close()


# ---------------------------------------------------------------------------
# Concurrency: interleaved readers / writers, compacting inline
# ---------------------------------------------------------------------------
class TestStoreService:
    WRITERS = 4
    READERS = 3
    KEYS_PER_WRITER = 120

    def test_interleaved_readers_and_writers(self, tmp_path):
        store = DurableStore(
            tmp_path / "svc", algorithm="classical", shard_capacity=64,
            sync_policy="never", compact_every=150,
        )
        service = StoreService(store)
        errors: list[BaseException] = []
        stop_readers = threading.Event()
        expected: dict = {}

        def writer(slot: int) -> None:
            try:
                rng = random.Random(1000 + slot)
                base = slot * 10**6
                written: list[int] = []
                for i in range(self.KEYS_PER_WRITER):
                    key = base + i
                    if written and rng.random() < 0.15:
                        victim = written.pop(rng.randrange(len(written)))
                        service.delete(victim)
                        expected.pop(victim, None)
                    elif rng.random() < 0.15:
                        batch = [
                            (base + 10**5 + i * 10 + j, f"w{slot}-b{i}-{j}")
                            for j in range(4)
                        ]
                        service.put_many(batch)
                        expected.update(batch)
                    else:
                        service.put(key, f"w{slot}-{i}")
                        expected[key] = f"w{slot}-{i}"
                        written.append(key)
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        def reader(slot: int) -> None:
            try:
                rng = random.Random(2000 + slot)
                while not stop_readers.is_set():
                    choice = rng.random()
                    if choice < 0.5:
                        key = rng.randrange(self.WRITERS) * 10**6 + rng.randrange(
                            self.KEYS_PER_WRITER
                        )
                        value = service.get(key)
                        assert value is None or isinstance(value, str)
                    elif choice < 0.8:
                        low = rng.randrange(self.WRITERS) * 10**6
                        scan = service.range_scan(low, low + 10**5)
                        keys = [key for key, _ in scan]
                        assert keys == sorted(keys)
                        assert len(keys) == len(set(keys))
                    else:
                        items = service.snapshot_items()
                        keys = [key for key, _ in items]
                        assert keys == sorted(keys)
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        writer_threads = [
            threading.Thread(target=writer, args=(slot,))
            for slot in range(self.WRITERS)
        ]
        reader_threads = [
            threading.Thread(target=reader, args=(slot,))
            for slot in range(self.READERS)
        ]
        for thread in writer_threads + reader_threads:
            thread.start()
        for thread in writer_threads:
            thread.join(timeout=120)
        stop_readers.set()
        for thread in reader_threads:
            thread.join(timeout=120)
        assert not errors, errors[0]
        # Writer commits compacted while the readers scanned.
        assert service.durable_horizon > 0

        # Writers own disjoint key ranges, so the merged dict is the truth.
        assert dict(service.snapshot_items()) == expected
        service.verify()
        service.close()

        reopened = DurableStore(tmp_path / "svc", sync_policy="never")
        assert dict(reopened.items()) == expected
        reopened.verify()
        reopened.close()

    def test_point_reads_race_restructures(self, tmp_path):
        """Regression: ``get``/``contains`` must hold the service lock.

        A point read that skipped the lock could overlap a singleton
        writer mid shard split/merge, with the rank directory and shard
        list transiently inconsistent; readers then observed missing keys
        and wrong values.  Every read of a stable key must return its
        exact value.
        """
        store = DurableStore(
            tmp_path / "race", algorithm="classical", shard_capacity=16,
            sync_policy="never",
        )
        service = StoreService(store)
        stable = list(range(0, 3000, 2))  # even keys: never touched again
        service.put_many([(key, key * 3) for key in stable])
        barrier = threading.Barrier(4, timeout=30)
        errors: list[BaseException] = []
        stop = threading.Event()

        def writer() -> None:
            # Churning the odd keys forces a steady stream of splits and
            # merges through the even keys' shards.
            try:
                barrier.wait()
                rng = random.Random(99)
                odd = list(range(1, 3000, 2))
                for _ in range(3):
                    rng.shuffle(odd)
                    for key in odd:
                        service.put(key, key * 3)
                    for key in odd:
                        service.delete(key)
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)
            finally:
                stop.set()

        def reader(slot: int) -> None:
            try:
                barrier.wait()
                rng = random.Random(slot)
                while not stop.is_set():
                    key = stable[rng.randrange(len(stable))]
                    assert service.contains(key)
                    value = service.get(key)
                    assert value == key * 3, f"key {key} read {value!r}"
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(slot,)) for slot in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180)
        assert not errors, errors[0]
        assert dict(service.snapshot_items()) == {
            key: key * 3 for key in stable
        }
        service.verify()
        service.close()

    def test_point_reads_serialize_against_structure_writers(self, tmp_path):
        """Regression: a point read must park behind the lock's holder.

        A ``get``/``contains`` that completed while a restructuring writer
        held the lock would read mid-split state; they must queue behind
        the writer and complete only after it releases.
        """
        store = DurableStore(tmp_path / "order", sync_policy="never")
        service = StoreService(store)
        service.put(1, "one")
        writer_in = threading.Event()
        release_writer = threading.Event()
        order: list[str] = []

        def structure_writer() -> None:
            with service._lock:
                writer_in.set()
                release_writer.wait(timeout=30)
                order.append("writer released")

        def point_reader() -> None:
            assert service.get(1) == "one"
            assert service.contains(1)
            order.append("reader returned")

        writer = threading.Thread(target=structure_writer)
        writer.start()
        assert writer_in.wait(timeout=30)
        reader = threading.Thread(target=point_reader)
        reader.start()
        reader.join(timeout=0.5)
        try:
            # The writer still holds the lock: the read must not have
            # completed.
            assert reader.is_alive(), "point read bypassed the lock"
        finally:
            release_writer.set()
            writer.join(timeout=30)
            reader.join(timeout=30)
        assert order == ["writer released", "reader returned"]
        service.close()

    def test_batch_writers_with_paged_readers(self, tmp_path):
        """Batch writers spanning many shards vs concurrent ``scan_pages``."""
        store = DurableStore(
            tmp_path / "par", algorithm="classical", shard_capacity=16,
            sync_policy="never",
        )
        service = StoreService(store)
        errors: list[BaseException] = []
        stop = threading.Event()
        expected: dict = {}

        def writer(slot: int) -> None:
            try:
                rng = random.Random(3000 + slot)
                base = slot * 10**6
                live: list[int] = []
                for i in range(25):
                    batch = [
                        (base + i * 100 + j, f"w{slot}-{i}-{j}")
                        for j in range(40)
                    ]
                    service.put_many(batch)
                    expected.update(batch)
                    live.extend(key for key, _ in batch)
                    if len(live) > 80 and rng.random() < 0.4:
                        victims = [
                            live.pop(rng.randrange(len(live)))
                            for _ in range(30)
                        ]
                        service.delete_many(victims)
                        for victim in victims:
                            expected.pop(victim)
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        def reader() -> None:
            try:
                while not stop.is_set():
                    last = None
                    for page in service.scan_pages(page_size=64):
                        keys = [key for key, _ in page]
                        # Pages resume after the previous page's last key,
                        # so the concatenated key stream must be strictly
                        # increasing even while writers run between pages.
                        assert keys == sorted(keys)
                        assert last is None or keys[0] > last
                        last = keys[-1]
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        writer_threads = [
            threading.Thread(target=writer, args=(slot,)) for slot in range(4)
        ]
        reader_threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in writer_threads + reader_threads:
            thread.start()
        for thread in writer_threads:
            thread.join(timeout=180)
        stop.set()
        for thread in reader_threads:
            thread.join(timeout=180)
        assert not errors, errors[0]
        # Writers own disjoint key ranges, so the merged dict is the truth.
        assert dict(service.snapshot_items()) == expected
        service.verify()
        service.close()

        reopened = DurableStore(tmp_path / "par", sync_policy="never")
        assert dict(reopened.items()) == expected
        reopened.verify()
        reopened.close()

    def test_batch_calls_do_not_scale_with_the_shard_count(self, tmp_path):
        """Regression: a one-item ``put_many`` costs about one ``put``.

        The service once built a lock stripe per shard of the store it
        wrapped and took every stripe for each batch, so over a reopened
        store of 1,000+ shards a one-item ``put_many`` cost 25-35 puts.
        """
        path = tmp_path / "wide"
        store = DurableStore(
            path, algorithm="classical", shard_capacity=16, sync_policy="never"
        )
        store.put_many([(key, key) for key in range(0, 32_000, 4)])
        store.close()
        service = StoreService(DurableStore(path, sync_policy="never"))
        assert service.store.labeler.shard_count >= 1000
        put_seconds: list[float] = []
        batch_seconds: list[float] = []
        for step in range(100):
            key = 320 * step
            started = time.perf_counter()
            service.put(key + 1, "put")
            put_seconds.append(time.perf_counter() - started)
            started = time.perf_counter()
            service.put_many([(key + 2, "batch")])
            batch_seconds.append(time.perf_counter() - started)
            assert service.get(key + 1) == "put"
        ratio = statistics.median(batch_seconds) / statistics.median(put_seconds)
        assert ratio < 5, f"one-item put_many costs {ratio:.1f} puts"
        service.verify()
        service.close()

    def test_latency_tracking_off_by_default(self, tmp_path):
        # Latency lives in the registry's histograms; a service over a
        # store built without a live registry times nothing.
        store = DurableStore(tmp_path / "svc", sync_policy="never")
        service = StoreService(store)
        service.put(1, "one")
        service.delete_many([1])
        assert service.registry.enabled is False
        assert service.registry.snapshot()["histograms"] == {}
        service.close()

    def test_every_mutation_is_observed_once(self, tmp_path):
        """One latency observation per mutation call: applied, applying
        nothing, or raising — no call can hide from the tail."""
        registry = MetricsRegistry()
        store = DurableStore(
            tmp_path / "svc", algorithm="classical", shard_capacity=32,
            sync_policy="never", registry=registry,
        )
        service = StoreService(store)
        service.put(1, "one")
        with pytest.raises(KeyError):
            service.delete(2)
        with pytest.raises(ValueError):
            service.put(float("nan"), "x")
        assert service.delete_many([]) == 0
        with pytest.raises(ValueError):
            service.put_many([(3, "v"), (float("nan"), "x")])
        histograms = registry.snapshot()["histograms"]
        counts = {
            name: histograms[f"service.latency.{name}"]["count"]
            for name in ("put", "delete", "put_many", "delete_many")
        }
        assert counts == {"put": 2, "delete": 1, "put_many": 1, "delete_many": 1}
        for name in ("service.lock_wait_seconds", "service.lock_hold_seconds"):
            assert histograms[name]["count"] == 5
        assert store.keys() == [1]
        service.close()


# ---------------------------------------------------------------------------
# Hypothesis: ops interleaved with snapshot / compact / recover rules
# ---------------------------------------------------------------------------
class DurableStoreMachine(RuleBasedStateMachine):
    """Random ops + random durability events, checked against a dict model."""

    def __init__(self) -> None:
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="repro-store-machine-"))
        self.model: dict = {}
        self.store: DurableStore | None = None

    @initialize()
    def open_store(self) -> None:
        self.store = DurableStore(
            self.directory / "s", algorithm="classical", shard_capacity=16,
            sync_policy="never",
        )

    @rule(key=st.integers(0, 40), value=st.integers())
    def put(self, key, value) -> None:
        self.store.put(key, value)
        self.model[key] = value

    @rule(key=st.integers(0, 40))
    def delete(self, key) -> None:
        if key in self.model:
            self.store.delete(key)
            del self.model[key]
        else:
            with pytest.raises(KeyError):
                self.store.delete(key)

    @rule(items=st.dictionaries(st.integers(0, 60), st.integers(), max_size=8))
    def put_many(self, items) -> None:
        if items:
            self.store.put_many(sorted(items.items()))
            self.model.update(items)

    @rule(data=st.data())
    def delete_many(self, data) -> None:
        if not self.model:
            return
        keys = data.draw(
            st.lists(st.sampled_from(sorted(self.model)), max_size=6, unique=True)
        )
        if keys:
            self.store.delete_many(keys)
            for key in keys:
                del self.model[key]

    @rule()
    def snapshot(self) -> None:
        self.store.snapshot()

    @rule()
    def compact(self) -> None:
        self.store.compact()

    @rule()
    def clean_recover(self) -> None:
        self.store.close()
        self.store = DurableStore(self.directory / "s", sync_policy="never")

    @rule(garbage=st.binary(min_size=1, max_size=40))
    def torn_crash_recover(self, garbage) -> None:
        self.store.close()
        with open(self.directory / "s" / WAL_FILENAME, "ab") as handle:
            handle.write(garbage)
        self.store = DurableStore(self.directory / "s", sync_policy="never")

    @invariant()
    def matches_model(self) -> None:
        if self.store is None:
            return
        assert list(self.store.items()) == sorted(self.model.items())
        self.store.verify()

    def teardown(self) -> None:
        if self.store is not None:
            self.store.close()
        shutil.rmtree(self.directory, ignore_errors=True)


TestDurableStoreMachine = DurableStoreMachine.TestCase
TestDurableStoreMachine.settings = settings(
    max_examples=10, stateful_step_count=25, deadline=None
)


# ---------------------------------------------------------------------------
# Compaction revalidates the retained WAL tail (regression)
# ---------------------------------------------------------------------------
class TestTruncateRevalidation:
    def _open_wal(self, path: Path, frames: int) -> None:
        wal = WriteAheadLog(path, sync_policy="never")
        wal.open()
        for i in range(frames):
            wal.append("put", {"key": i, "value": i})
        wal.close()

    def test_bit_flipped_retained_frame_is_not_rewritten(self, tmp_path):
        """truncate_through must route retained lines through full frame
        validation — a corrupt line must not survive into the new log,
        where it would poison every later recovery."""
        path = tmp_path / "wal.jsonl"
        self._open_wal(path, 8)
        lines = path.read_bytes().splitlines(keepends=True)
        # Flip a bit inside frame 5 (lsn 5): retained range for cut=2.
        corrupted = lines[4].replace(b'"key":4', b'"key":7')
        path.write_bytes(b"".join(lines[:4] + [corrupted] + lines[5:]))

        wal = WriteAheadLog(path, sync_policy="never")
        wal.open()  # open() itself truncates at the corruption...
        # ...so rebuild the corrupt file under an open handle, as bit rot
        # after open (the compaction-time hazard) would leave it.
        wal.close()
        path.write_bytes(b"".join(lines[:4] + [corrupted] + lines[5:]))
        wal = WriteAheadLog.__new__(WriteAheadLog)
        wal.path = path
        wal.sync_policy = "never"
        wal._file = open(path, "a", encoding="utf-8")
        wal._next_lsn = 9
        wal._listeners = []
        wal._truncate_epoch = 0

        report = wal.truncate_through(2)
        wal.close()
        assert report.suspect_reason is not None
        assert "checksum" in report.suspect_reason
        assert report.retained_frames == 2          # lsn 3 and 4 only
        assert report.suspect_frames == 4           # lsn 5..8 all untrusted
        assert report.suspect_bytes > 0
        kept = path.read_bytes().splitlines(keepends=True)
        assert kept == lines[2:4]                   # corrupt tail dropped

    def test_clean_truncate_reports_no_suspects(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        self._open_wal(path, 6)
        wal = WriteAheadLog(path, sync_policy="never")
        wal.open()
        report = wal.truncate_through(4)
        wal.close()
        assert report.suspect_reason is None
        assert report.suspect_frames == 0
        assert report.retained_frames == 2

    def test_store_compaction_escalates_on_corrupt_retained_frame(
        self, tmp_path
    ):
        """Store-level regression: a retained frame that fails revalidation
        escalates compaction to a full truncation (the snapshot covers
        everything), and the store recovers exactly — no poisoned log, no
        LSN gap between the file tail and the next live append."""
        directory = tmp_path / "s"
        store = DurableStore(
            directory, algorithm="classical", shard_capacity=32,
            sync_policy="never",
        )
        for i in range(10):
            store.put(i, f"v{i}")
        # Bit-rot frame 7 on disk while the store is live.
        wal_path = directory / WAL_FILENAME
        lines = wal_path.read_bytes().splitlines(keepends=True)
        corrupted = lines[6].replace(b'"key":6', b'"key":0')
        assert corrupted != lines[6]
        wal_path.write_bytes(b"".join(lines[:6] + [corrupted] + lines[7:]))

        store.replication_floor = lambda: 4  # wants to retain 5..10
        lsn = store.compact()
        report = store.last_truncate_report
        assert report is not None
        assert report.suspect_reason is not None
        assert report.retained_frames == 0          # escalated: full cut
        assert store.durable_horizon == lsn         # horizon at the snapshot
        assert wal_path.read_bytes() == b""

        # The next append continues the sequence with no gap...
        store.put(100, "after")
        expected = fingerprint(store.map)
        store.close()
        # ...and recovery reproduces the exact state.
        reopened = DurableStore(directory, sync_policy="never")
        assert fingerprint(reopened.map) == expected
        reopened.verify()
        reopened.close()


# ---------------------------------------------------------------------------
# One scanner: open, frame shipping, replica ingest and compaction agree
# ---------------------------------------------------------------------------
def _write_log(path: Path, payloads) -> list[bytes]:
    """Append one ``put`` frame per ``(key, value)``; returns the lines."""
    wal = WriteAheadLog(path, sync_policy="never")
    wal.open()
    for key, value in payloads:
        wal.append("put", {"key": key, "value": value})
    wal.close()
    return path.read_bytes().splitlines(keepends=True)


def _unknown_version_frame(lsn: int) -> bytes:
    body = codec.canonical({"v": 999, "lsn": lsn, "op": "put", "key": 3, "value": 3})
    return ('{"crc":%d,' % codec.checksum(body) + body[1:] + "\n").encode()


#: Damage to frame 4 of a six-frame log: the lines it leaves, and the
#: reason every reader stops there (``None``: an unknown schema version,
#: which raises instead).
DAMAGED_LOGS = {
    "bad json": (lambda lines: lines[:3] + [b"{not json\n"] + lines[4:],
                 "unparsable frame at lsn 4"),
    "not an object": (lambda lines: lines[:3] + [b"[4]\n"] + lines[4:],
                      "malformed frame at lsn 4"),
    "crc mismatch": (
        lambda lines: lines[:3] + [lines[3].replace(b'"key":3', b'"key":9')] + lines[4:],
        "checksum mismatch at lsn 4",
    ),
    "lsn gap": (lambda lines: lines[:3] + lines[4:],
                "sequence break: expected lsn 4, found lsn 5"),
    "unterminated last line": (lambda lines: lines[:3] + [lines[3][:-9]],
                               "unterminated final frame"),
    "unknown version": (
        lambda lines: lines[:3] + [_unknown_version_frame(4)] + lines[4:], None
    ),
}


class TestOneScanner:
    @pytest.mark.parametrize("damage", sorted(DAMAGED_LOGS))
    def test_open_shipping_and_ingest_stop_at_the_same_frame(self, tmp_path, damage):
        damage_lines, reason = DAMAGED_LOGS[damage]
        clean = _write_log(tmp_path / "clean.jsonl", [(i, i) for i in range(6)])
        lines = damage_lines(clean)
        path = tmp_path / "wal.jsonl"
        path.write_bytes(b"".join(lines))
        replica = WriteAheadLog(tmp_path / "replica.jsonl", sync_policy="never")
        replica.open()
        for line in lines[:3]:
            replica.append_frame_line(line.decode("utf-8"))
        if reason is None:
            with pytest.raises(WALError) as shipped:
                WriteAheadLog(path).read_frames(0)
            with pytest.raises(WALError) as ingested:
                replica.append_frame_line(lines[3].decode("utf-8"))
            with pytest.raises(WALError) as opened:
                WriteAheadLog(path, sync_policy="never").open()
            assert str(shipped.value) == str(ingested.value) == str(opened.value)
        else:
            frames, end, _ = WriteAheadLog(path).read_frames(0)
            assert [line.encode("utf-8") for _, line in frames] == clean[:3]
            assert end == len(b"".join(clean[:3]))
            with pytest.raises(WALError, match=f"^rejected shipped frame: {reason}$"):
                replica.append_frame_line(lines[3].decode("utf-8"))
            wal = WriteAheadLog(path, sync_policy="never")
            report = wal.open()
            wal.close()
            assert [frame["lsn"] for frame in report.frames] == [1, 2, 3]
            assert report.truncation_reason == reason
            assert path.read_bytes() == b"".join(clean[:3])
        assert replica.next_lsn == 4
        replica.close()
        assert (tmp_path / "replica.jsonl").read_bytes() == b"".join(clean[:3])

    def test_a_rotten_frame_in_the_dropped_prefix_costs_no_kept_frame(self, tmp_path):
        """Compaction re-validates only the frames it keeps: a frame that
        rots after open, below the cut, no longer escalates to a full cut."""
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync_policy="never")
        wal.open()
        for i in range(8):
            wal.append("put", {"key": i, "value": i})
        lines = path.read_bytes().splitlines(keepends=True)
        rotten = lines[1].replace(b'"key":1', b'"key":9')
        path.write_bytes(b"".join([lines[0], rotten] + lines[2:]))
        report = wal.truncate_through(4)
        wal.close()
        assert report == WALTruncateReport(retained_frames=4)
        assert path.read_bytes() == b"".join(lines[4:])

    def test_a_cut_that_keeps_nothing_reads_nothing(self, tmp_path, monkeypatch):
        from repro.store import wal as wal_module

        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync_policy="never")
        wal.open()
        for i in range(5):
            wal.append("put", {"key": i, "value": i})
        reads: list = []
        read_bytes = Path.read_bytes

        def counting_read_bytes(self):
            reads.append(self)
            return read_bytes(self)

        def counting_open(file, mode="r", *args, **kwargs):
            if "r" in mode:
                reads.append(file)
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
        monkeypatch.setattr(wal_module, "open", counting_open, raising=False)
        report = wal.truncate_through(5)
        monkeypatch.undo()
        wal.close()
        assert reads == []
        assert report == WALTruncateReport()
        assert path.read_bytes() == b""

    @settings(max_examples=2000 if EXHAUSTIVE else 50, deadline=None)
    @given(
        payloads=st.lists(
            st.tuples(
                st.integers(-1000, 1000),
                st.integers(-1000, 1000) | st.text("abcxyz", max_size=6),
            ),
            min_size=1,
            max_size=10,
        ),
        data=st.data(),
    )
    def test_one_flipped_byte_stops_open_and_shipping_at_its_line(self, payloads, data):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "wal.jsonl"
            lines = _write_log(path, payloads)
            raw = path.read_bytes()
            for cut in range(len(lines) + 1):
                path.write_bytes(raw)
                wal = WriteAheadLog(path, sync_policy="never")
                wal.open()
                report = wal.truncate_through(cut)
                wal.close()
                assert report == WALTruncateReport(retained_frames=len(lines) - cut)
                assert path.read_bytes() == b"".join(lines[cut:])

            index = data.draw(st.integers(0, len(raw) - 1), label="byte")
            mask = data.draw(st.integers(1, 255), label="mask")
            damaged = bytearray(raw)
            damaged[index] ^= mask
            path.write_bytes(bytes(damaged))
            kept = raw.count(b"\n", 0, index)  # the lines before the damaged one
            frames, _, _ = WriteAheadLog(path).read_frames(0)
            assert [line.encode("utf-8") for _, line in frames] == lines[:kept]
            wal = WriteAheadLog(path, sync_policy="never")
            report = wal.open()
            wal.close()
            assert [frame["lsn"] for frame in report.frames] == list(range(1, kept + 1))
            assert report.truncation_reason is not None
            assert path.read_bytes() == b"".join(lines[:kept])


# ---------------------------------------------------------------------------
# A failing automatic compaction does not fail the committed write (regression)
# ---------------------------------------------------------------------------
class TestAutomaticCompaction:
    def test_failure_is_recorded_and_the_next_frame_retries(self, tmp_path, monkeypatch):
        """``compact_every`` compacts after the frame is applied: when the
        checkpoint write fails, the write still returns (its frame is
        committed), the error is kept and counted, and the next frame
        compacts."""
        from repro.store import snapshot as snapshot_io

        registry = MetricsRegistry()
        directory = tmp_path / "s"
        store = DurableStore(
            directory, algorithm="classical", shard_capacity=32,
            sync_policy="never", compact_every=3, registry=registry,
        )
        write_snapshot = snapshot_io.write_snapshot
        full_disk = [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))]

        def fails_once(*args, **kwargs):
            if full_disk:
                raise full_disk.pop()
            return write_snapshot(*args, **kwargs)

        monkeypatch.setattr(snapshot_io, "write_snapshot", fails_once)
        for key in (1, 2, 3):
            store.put(key, f"v{key}")  # the third one's compaction fails
        error = store.last_compaction_error
        assert isinstance(error, OSError) and error.errno == errno.ENOSPC
        assert registry.snapshot()["counters"]["store.compaction_errors"] == 1
        assert store.durable_horizon == 0
        store.put(4, "v4")
        assert store.durable_horizon == 4
        assert store.last_compaction_error is None
        store.close()
        reopened = DurableStore(directory, sync_policy="never")
        assert list(reopened.items()) == [(key, f"v{key}") for key in (1, 2, 3, 4)]
        reopened.close()


# ---------------------------------------------------------------------------
# Zero-applied batches stay visible to the latency histograms (regression)
# ---------------------------------------------------------------------------
class TestZeroAppliedBatchLatency:
    def test_zero_weight_events_are_recorded(self, tmp_path):
        registry = MetricsRegistry()
        store = DurableStore(
            tmp_path / "s", algorithm="classical", shard_capacity=32,
            sync_policy="never", registry=registry,
        )
        service = StoreService(store)
        service.put(1, "one")
        assert service.put_many([]) == 0
        assert service.delete_many([]) == 0
        # One applied operation, but three calls: the no-op batches held
        # the lock and took time, so the histograms must see them.
        histograms = registry.snapshot()["histograms"]
        for command in ("put", "put_many", "delete_many"):
            assert histograms[f"service.latency.{command}"]["count"] == 1
        assert histograms["service.lock_hold_seconds"]["count"] == 3
        # The map counts moves per applied operation only.
        assert store.map.costs.operations == 1
        service.close()

    def test_only_zero_weight_events_still_summarize(self, tmp_path):
        """A run of nothing but no-op batches must not report an empty tail."""
        registry = MetricsRegistry()
        store = DurableStore(tmp_path / "s", sync_policy="never", registry=registry)
        service = StoreService(store)
        service.delete_many([])
        histogram = registry.histogram("service.latency.delete_many")
        assert histogram.snapshot()["count"] == 1
        assert histogram.percentile(0.999) > 0.0
        service.close()

    def test_cost_tracker_zero_weight_unit(self):
        from repro.core.cost import CostTracker

        tracker = CostTracker()
        tracker.record(4)
        tracker.record_batch(0, 0)   # the no-op batch
        assert tracker.events == 2
        assert tracker.operations == 1
        assert tracker.percentile(0.999) == 4.0       # unpolluted
        assert tracker.tail_fraction(4) == 1.0
        assert tracker.event_percentile(0.5) == 0     # the event view sees it
        assert tracker.event_percentile(0.999) == 4


# ---------------------------------------------------------------------------
# FifoLock fences: arrival order, hand-off, no lost wakeups, exclusivity
# ---------------------------------------------------------------------------
def _wait_for_waiters(lock: FifoLock, count: int) -> None:
    deadline = 200
    while len(lock._waiters) < count and deadline > 0:
        threading.Event().wait(0.005)
        deadline -= 1
    assert len(lock._waiters) == count


class TestFifoLockDirect:
    """Helper threads are daemons: a lock that strands a waiter fails its
    test instead of wedging the whole run."""

    def test_lock_is_granted_in_arrival_order(self):
        lock = FifoLock()
        lock.acquire()                        # an in-flight holder

        queued_has_lock = threading.Event()
        queued_released = threading.Event()

        def queued() -> None:
            lock.acquire()
            queued_has_lock.set()
            queued_released.wait(timeout=30)
            lock.release()

        queued_thread = threading.Thread(target=queued, daemon=True)
        queued_thread.start()
        _wait_for_waiters(lock, 1)

        late_acquired = threading.Event()

        def late_arrival() -> None:
            lock.acquire()
            late_acquired.set()
            lock.release()

        late_thread = threading.Thread(target=late_arrival, daemon=True)
        late_thread.start()
        _wait_for_waiters(lock, 2)
        assert not late_acquired.wait(timeout=0.2)

        lock.release()                        # the queued thread's turn
        assert queued_has_lock.wait(timeout=30)
        # Arrival order: the later arrival must NOT get in ahead of the
        # thread that queued before it.
        assert not late_acquired.is_set()
        queued_released.set()                 # then the later arrival
        assert late_acquired.wait(timeout=30)
        queued_thread.join(timeout=30)
        late_thread.join(timeout=30)
        assert not queued_thread.is_alive() and not late_thread.is_alive()

    def test_release_hands_the_lock_to_the_longest_waiter(self):
        """A holder that releases and re-acquires back to back queues
        behind the thread already waiting instead of winning it back."""
        lock = FifoLock()
        lock.acquire()
        order: list[str] = []

        def waiter() -> None:
            lock.acquire()
            order.append("waiter")
            lock.release()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        _wait_for_waiters(lock, 1)
        lock.release()
        lock.acquire()
        order.append("holder")
        lock.release()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert order == ["waiter", "holder"]

    def test_an_interrupted_waiter_leaves_the_queue(self):
        """A signal that interrupts a blocked ``acquire`` takes the waiter
        out of the queue, so the next release frees the lock instead of
        handing it to a thread that is gone."""

        class Interrupted(Exception):
            pass

        def interrupt(signum, frame):
            raise Interrupted

        lock = FifoLock()
        holder_in = threading.Event()
        release_holder = threading.Event()

        def holder() -> None:
            with lock:
                holder_in.set()
                release_holder.wait(timeout=30)

        thread = threading.Thread(target=holder, daemon=True)
        thread.start()
        assert holder_in.wait(timeout=30)
        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.1)
            with pytest.raises(Interrupted):
                lock.acquire()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert not lock._waiters
        release_holder.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert not lock._held
        with lock:
            pass

    def test_no_lost_wakeups_under_churn(self):
        """Writers keep making progress while readers churn: every
        acquisition completes — no thread is ever stranded waiting on a
        hand-off that never comes — and no two threads hold the lock.
        A short switch interval makes a lost update likely if they did."""
        lock = FifoLock()
        stop = threading.Event()
        errors: list[BaseException] = []
        writer_rounds = 60
        writers_done = []
        holders = [0]

        def reader() -> None:
            try:
                while not stop.is_set():
                    with lock:
                        holders[0] += 1
                        time.sleep(0)         # let any other holder in
                        inside = holders[0]
                        holders[0] -= 1
                    assert inside == 1        # exclusive
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        shared = [0]

        def writer() -> None:
            try:
                for _ in range(writer_rounds):
                    lock.acquire()
                    value = shared[0]
                    time.sleep(0)
                    shared[0] = value + 1     # exclusive: no torn updates
                    lock.release()
                writers_done.append(True)
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        reader_threads = [
            threading.Thread(target=reader, daemon=True) for _ in range(6)
        ]
        writer_threads = [
            threading.Thread(target=writer, daemon=True) for _ in range(3)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in reader_threads + writer_threads:
                thread.start()
            for thread in writer_threads:
                thread.join(timeout=60)
            stop.set()
            for thread in reader_threads:
                thread.join(timeout=60)
        finally:
            stop.set()
            sys.setswitchinterval(previous)
        assert not errors, errors[0]
        assert len(writers_done) == 3         # nobody stranded
        assert shared[0] == 3 * writer_rounds  # exclusivity held
        assert not lock._held and not lock._waiters


# ---------------------------------------------------------------------------
# Paginated scans: writer lands exactly at the cursor key (satellite 4)
# ---------------------------------------------------------------------------
class TestScanPagesCursor:
    def test_writer_inserting_at_the_cursor_between_pages(self, tmp_path):
        """The documented cursor contract under the nastiest interleaving:
        between two pages a writer (a) overwrites the cursor key itself and
        (b) inserts a brand-new key immediately after the cursor.  The
        scan must not re-yield the cursor key, must see the new key, and
        must never duplicate or unsort."""
        store = DurableStore(
            tmp_path / "s", algorithm="classical", shard_capacity=32,
            sync_policy="never",
        )
        service = StoreService(store)
        evens = list(range(0, 20, 2))
        service.put_many([(key, f"old-{key}") for key in evens])

        pages = service.scan_pages(page_size=5)
        first = next(pages)
        assert [key for key, _ in first] == evens[:5]
        cursor = first[-1][0]                 # key 8

        # The interleaved writer: overwrite the cursor key, insert the
        # key right behind it, and one far behind the scan front.
        service.put(cursor, "overwritten-at-cursor")
        service.put(cursor + 1, "inserted-at-cursor")     # key 9
        service.put(1, "inserted-behind-the-scan")        # skipped by contract

        rest = [pair for page in pages for pair in page]
        keys = [key for key, _ in rest]
        assert keys == [9] + evens[5:]        # 9 seen, 8 not re-yielded
        assert dict(rest)[9] == "inserted-at-cursor"
        all_keys = [key for key, _ in first] + keys
        assert len(all_keys) == len(set(all_keys))        # no duplicates
        assert all_keys == sorted(all_keys)               # ordered overall
        service.close()
