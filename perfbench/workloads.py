"""The three workloads: set-up, timed phase, answer checks and metrics.

Every workload runs in a fresh process with one load thread.  Set-up is
repeated ``SETUP_REPEATS`` times (only the last copy is kept; the others
are torn down untimed) and ``setup_s`` is the median; in the store
workloads it doubles as the bulk-ingest measurement (``put_many`` ->
``insert_batch``).  The timed
phase draws ``OPS_PER_SECOND[workload] * seconds`` ops from the seeded
stream, so the same seed always runs the same ops and the exact counts
repeat bit for bit; the rates are sized so the phase takes about
``seconds`` on the reference machine.  ``throughput_ops_s`` divides the
op count by the summed (calibrated) op latencies, so the benchmark's own
generation and checking between ops is not charged to the program.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

import common
import streams
import tracing

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 3

OPS_PER_SECOND = {
    "wire_read_mostly": 3500,
    "embedded_churn": 5000,
    "layered_adaptive": 4000,
}

#: Ops between calibration kernels (about 0.2-0.3 s of work each).
CHUNK_OPS = {
    "wire_read_mostly": 1000,
    "embedded_churn": 1000,
    "layered_adaptive": 500,
}

#: Share of each workload's time that scales with the calibration kernel
#: (``common.Recorder``).  The wire workload spends part of every op in
#: socket calls and process switches, the embedded one in WAL writes; the
#: layered one is pure interpreter work.  Over five sets of ten runs on
#: the reference machine the slope of log raw throughput on log kernel
#: time was 0.56-0.95 (wire), 0.72-1.03 (embedded) and 0.81-1.24
#: (layered), the wire's the lowest in every set.  Recomputing one set's
#: timed-phase metrics under exponents 0-1.1, the largest IQR of the four
#: was smallest at 0.6-0.7 (wire) and 1.0 (embedded, layered); embedded
#: takes 0.9, nearer its throughput slopes.
KERNEL_EXPONENT = {
    "wire_read_mostly": 0.7,
    "embedded_churn": 0.9,
    "layered_adaptive": 1.0,
}

#: Keys per put_many call of the embedded preload.
PRELOAD_CHUNK = 10_000

#: Snapshot-and-truncate cycles the embedded timed phase should span.
COMPACTIONS = 3

#: Capacity of the layered index (construction time grows fast with it).
LAYERED_CAPACITY = 1024

#: Seed of the layered index's randomized layer, the same in every run.
#: The index's construction work depends on it: building the index made
#: 15.4M-24.5M Python calls under eight seeds (20.6M under this one), and
#: ten runs that drew the seed from ``--seed`` had a 35% ``setup_s`` IQR.
#: A fixed seed makes set-up the same work in every run; ``--seed`` still
#: draws the keys and the op stream.
STRUCTURE_SEED = 1

#: The op class reported as ``read_p50_us`` in each workload.
READ_KIND = {
    "wire_read_mostly": "get",
    "embedded_churn": "get",
    "layered_adaptive": "seek",
}

MUTATIONS = ("put", "del")


class Run:
    """One run's settings, answer tally, diagnostics and tracer."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.workdir = workdir
        self.ops = OPS_PER_SECOND[workload] * seconds
        self.recorder = common.Recorder(KERNEL_EXPONENT[workload])
        self.tracer = tracing.Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.diagnostics: dict = {}
        self.layer_metrics: dict[str, float] = {}
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.workdir / f"store-{self._dirs}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def check(self, label: str, got, expected) -> None:
        self.attempted += 1
        if got != expected:
            self.fail(f"{label}: got {got!r:.200}, expected {expected!r:.200}")

    # ------------------------------------------------------------------
    def timed_phase(self, stream, handlers: dict) -> dict[str, int]:
        """Run every op ``(kind, *args)`` of ``stream`` as ``handlers[kind](*args)``."""
        recorder, tracer = self.recorder, self.tracer
        chunk = CHUNK_OPS[self.workload]
        counts: dict[str, int] = {}
        roots = {kind: tracer.name_id(f"op.{kind}") for kind in handlers} if tracer is not None else {}
        for index, (op, expected) in enumerate(stream):
            if index % chunk == 0:
                recorder.sample_kernel()
            kind = op[0]
            handler = handlers[kind]
            args = op[1:]
            counts[kind] = counts.get(kind, 0) + 1
            root = -1
            if tracer is not None:
                # The root span's bookkeeping happens outside its timed interval.
                tracer.op_id = index
                root = tracer.begin(roots[kind], 0)
            started = perf_counter_ns()
            try:
                got = handler(*args)
            except Exception as error:  # a failed op is counted, not fatal
                self.attempted += 1
                self.fail(f"op {index} {op!r:.120}: {type(error).__name__}: {error}")
                continue
            finally:
                elapsed = perf_counter_ns() - started
                if root >= 0:
                    tracer.records[root * tracing.FIELDS + tracing.START] = started
                    tracer.finish(root, elapsed)
            recorder.add(kind, elapsed)
            self.check(f"op {index} {kind}", got, expected)
        if tracer is not None:
            tracer.op_id = -1
        return counts

    # ------------------------------------------------------------------
    def end_to_end(self, costs, space_amp: float, rss_mib: float) -> dict:
        recorder = self.recorder
        reads = recorder.sorted_samples(READ_KIND[self.workload])
        writes = recorder.sorted_samples("put")
        scans = recorder.sorted_samples("range")
        ordered_costs = sorted(costs)
        self.diagnostics["samples"] = {
            kind: len(values) for kind, values in recorder.raw.items()
        }
        # Tails the end-to-end metrics leave out: over five seeds their
        # spread was wider than any bound the benchmark may set.
        self.diagnostics["write_p99_us"] = common.percentile(writes, 0.99) / 1e3
        self.diagnostics["write_p99_samples_beyond"] = len(writes) - int(0.99 * len(writes))
        self.diagnostics["moves_tail_mean"] = moves_tail_mean(ordered_costs)
        self.diagnostics["mutations_costed"] = len(costs)
        self.diagnostics["moves_quantiles"] = {
            str(q): common.percentile(ordered_costs, q) for q in (0.5, 0.9, 0.99, 0.999, 1.0)
        }
        return {
            "setup_s": statistics.median(recorder.setup_ns) / 1e9,
            "throughput_ops_s": recorder.ops / (recorder.calibrated(recorder.raw_ns) / 1e9),
            "read_p50_us": statistics.median(reads) / 1e3,
            "write_p50_us": statistics.median(writes) / 1e3,
            "scan_p50_us": statistics.median(scans) / 1e3,
            "moves_per_op": sum(costs) / len(costs),
            "space_amp": space_amp,
            "rss_peak_mib": rss_mib,
        }

    def raw_diagnostics(self) -> None:
        """Uncalibrated values and the kernel series, printed beside the metrics."""
        recorder = self.recorder
        raw: dict = {
            "setup_s": [value / 1e9 for value in recorder.setup_raw_ns],
            "timed_phase_s": recorder.raw_ns / 1e9,
            "throughput_ops_s": recorder.ops / (recorder.raw_ns / 1e9),
        }
        for kind, values in sorted(recorder.raw.items()):
            raw[f"{kind}_p50_us"] = statistics.median(values) / 1e3
        slowest = sorted(ns for values in recorder.raw.values() for ns in values)[-5:]
        raw["slowest_ops_ms"] = [ns / 1e6 for ns in slowest]
        self.diagnostics["raw"] = raw
        self.diagnostics["kernel"] = recorder.kernel_summary()
        self.diagnostics["kernel_series_ns"] = recorder.kernels
        self.diagnostics["around_kernels_ns"] = recorder.around_kernels


def moves_tail_mean(ordered_costs) -> float:
    """Mean moves of the costliest 1% of mutations (the paper's worst-case
    side, averaged so that it does not jump between seeds as a p99 did)."""
    return statistics.fmean(ordered_costs[int(0.99 * len(ordered_costs)) :])


def _collect_puts(stream, puts: list):
    """Pass ``stream`` through, keeping its PUT ops (for written-byte counts)."""
    for op, expected in stream:
        if op[0] == "put":
            puts.append(op)
        yield op, expected


def _user_bytes(codec, items) -> int:
    """Encoded bytes of the keys and values written."""
    return sum(len(codec.dumps(key)) + len(codec.dumps(value)) for key, value in items)


class WrittenBytes:
    """The bytes one store writes to its WAL and snapshots from now on.

    Wraps this store's ``compact`` (the store calls it once
    ``compact_every`` frames have accumulated), so the ops in between pay
    nothing: the WAL bytes appended are the log's growth plus what each
    compaction cut from it, and the snapshot bytes are the files of each
    new checkpoint.
    """

    def __init__(self, store) -> None:
        from repro.store import snapshot as snapshot_io

        self.store = store
        self.snapshot = 0
        self._wal_start = store.wal.tell()
        self._wal_cut = 0
        compact = store.compact

        def counted(*args, **kwargs):
            before = store.wal.tell()
            lsn = compact(*args, **kwargs)
            self._wal_cut += before - store.wal.tell()
            newest = snapshot_io.list_snapshots(store.directory)[-1]
            self.snapshot += tracing.snapshot_bytes(newest)
            return lsn

        store.compact = counted

    @property
    def wal(self) -> int:
        """WAL bytes appended so far (read while the store is open)."""
        return self.store.wal.tell() - self._wal_start + self._wal_cut


# ----------------------------------------------------------------------
# wire_read_mostly
# ----------------------------------------------------------------------
class ServerProcess:
    """``server.py`` in its own process, pinned to ``cpu``."""

    def __init__(
        self, directory: Path, cpu: int | None, report: Path, spans: Path | None = None
    ) -> None:
        self.report_path = report
        command = [
            sys.executable,
            str(ROOT / "perfbench" / "server.py"),
            "--dir", str(directory),
            "--report", str(report),
        ]
        if spans is not None:
            command += ["--spans", str(spans)]
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self.process.stdout.readline()
        if not line.strip():
            self.kill()
            raise RuntimeError("store server exited before it was ready")
        self.port = int(line)

    def stop(self) -> dict:
        self.process.stdin.close()
        code = self.process.wait(timeout=120)
        self.process.stdout.close()
        if code != 0:
            raise RuntimeError(f"store server exited with code {code}")
        with open(self.report_path, encoding="utf-8") as handle:
            return json.load(handle)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=60)
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


def wire_read_mostly(run: Run) -> dict:
    from repro.store import codec
    from repro.store.client import StoreClient

    stream = streams.WireReadMostly(run.seed, run.ops)
    cpu = common.load_cpu()
    affinity = common.pin_to(cpu)
    run.diagnostics["context"] = common.run_context(run.seed, affinity, str(run.workdir))
    # One PUT_MANY: a single bulk load leaves every shard at the same fill,
    # so the timed PUTs' moves do not hinge on which shards a staggered
    # load left near their split point (moves_per_op over eight seeds:
    # 0.7% IQR with one batch, 16% with five).
    chunks = [stream.preload]
    sent_bytes = [0]
    spans = None
    if run.tracer is not None:
        tracing.install_client(run.tracer, sent_bytes)
        spans = run.workdir.parent / "spans-wire_read_mostly-server.csv"
    live: list[ServerProcess] = []

    def setup():
        server = ServerProcess(run.fresh_dir(), cpu, run.workdir / "server.json", spans)
        live.append(server)
        client = StoreClient("127.0.0.1", server.port, timeout=120)
        for chunk in chunks:
            client.put_many(chunk)
        return server, client

    def discard(copy) -> None:
        server, client = copy
        client.close()
        server.stop()
        live.remove(server)

    try:
        repeats = 1 if run.trace else SETUP_REPEATS
        server, client = run.recorder.timed_setup(setup, repeats, discard)
        stats_before = client.stats()["shard_statistics"]
        bytes_before = sent_bytes[0]
        handlers = {
            "get": client.get,
            "put": client.put,
            "range": lambda low, limit: client.range_scan(low, None, limit=limit),
        }
        puts_written: list = []
        counts = run.timed_phase(_collect_puts(stream, puts_written), handlers)
        wire_bytes = sent_bytes[0] - bytes_before
        stats_after = client.stats()["shard_statistics"]
        client.close()
        report = server.stop()
        live.remove(server)
    finally:
        for server in live:
            server.kill()

    run.check("final key count", report["size"], len(stream.model))
    puts = counts.get("put", 0)
    costs = report["costs"][len(report["costs"]) - puts :]
    run.check("costed mutations", len(report["costs"]), len(chunks) + puts)
    timed_bytes = _user_bytes(codec, (op[1:] for op in puts_written))
    run.diagnostics["digest"] = stream.digest()
    run.diagnostics["write_amp"] = report["wal_bytes"] / (
        _user_bytes(codec, stream.preload) + timed_bytes
    )
    run.raw_diagnostics()
    metrics = run.end_to_end(costs, report["num_slots"] / report["size"], report["rss_peak_mib"])
    if run.tracer is not None:
        requests = report["requests"][len(chunks) :]
        classes = tracing.breakdown(tracing.roots(run.tracer), requests, run.recorder.factor)
        run.layer_metrics = layer_metrics(
            run,
            classes,
            wire_bytes=wire_bytes,
            mutations=puts,
            restructures=_restructures(stats_after) - _restructures(stats_before),
            user_bytes=timed_bytes,
            sharded_tail=moves_tail_mean(sorted(costs)),
        )
    return metrics


def _restructures(stats: dict) -> float:
    return sum(stats.get(kind, 0.0) for kind in ("splits", "merges", "borrows", "rewrites"))


# ----------------------------------------------------------------------
# embedded_churn
# ----------------------------------------------------------------------
def embedded_churn(run: Run) -> dict:
    from repro.store import codec
    from repro.store.service import StoreService
    from repro.store.store import DurableStore

    stream = streams.EmbeddedChurn(run.seed, run.ops)
    affinity = common.pin_to(common.load_cpu())
    run.diagnostics["context"] = common.run_context(run.seed, affinity, str(run.workdir))
    # The half cycle of margin keeps the count at COMPACTIONS for every seed
    # (the mutation count varies by a few dozen); at exactly ops/3 a run
    # compacted twice or three times depending on the seed.
    compact_every = max(1, int(0.65 * run.ops / (COMPACTIONS + 0.5)))
    store_kwargs: dict = {"compact_every": compact_every, "sync_policy": common.SYNC_POLICY}
    tracer = run.tracer
    if tracer is not None:
        tracing.install_store_stack(tracer)
        store_kwargs.update(
            algorithm="classical", shard_factory=tracing.traced_classical_factory(tracer)
        )
    # Five staggered bulk loads leave shards at mixed fill, so the churn
    # splits, merges and borrows from the start.
    chunks = [
        stream.preload[start : start + PRELOAD_CHUNK]
        for start in range(0, len(stream.preload), PRELOAD_CHUNK)
    ]

    def setup():
        directory = run.fresh_dir()
        store = DurableStore(directory, **store_kwargs)
        service = StoreService(store)
        for chunk in chunks:
            service.put_many(chunk)
        return directory, store, service

    def discard(copy) -> None:
        directory, _, service = copy
        service.close()
        shutil.rmtree(directory)

    repeats = 1 if tracer is not None else SETUP_REPEATS
    directory, store, service = run.recorder.timed_setup(setup, repeats, discard)
    first_cost = len(store.map.costs.costs)
    stats_before = store.labeler.shard_statistics()
    written = WrittenBytes(store)
    handlers = {
        "put": service.put,
        "del": service.delete,
        "get": service.get,
        "range": lambda low, limit: service.range_scan(low, None, limit=limit),
        "count": service.count_range,
    }
    puts_written: list = []
    counts = run.timed_phase(_collect_puts(stream, puts_written), handlers)
    costs = list(store.map.costs.costs[first_cost:])
    stats_after = store.labeler.shard_statistics()
    space_amp = store.labeler.num_slots / len(store)
    rss_mib = common.peak_rss_mib()
    mutations = sum(counts.get(kind, 0) for kind in MUTATIONS)
    run.check("costed mutations", len(costs), mutations)
    wal_bytes = written.wal
    service.close()

    # Reopen: snapshot load plus WAL-tail replay, timed like set-up.
    def open_again():
        if tracer is not None:
            return tracer.call("store.open", DurableStore, (directory,), store_kwargs)
        return DurableStore(directory, **store_kwargs)

    if tracer is not None:
        tracer.op_id = -2
    reopened, reopen_ns, reopen_factor = run.recorder.timed_once(open_again)
    try:
        run.check("reopened items", list(reopened.items()), [
            (key, stream.model.values[key]) for key in stream.model.keys
        ])
        frames_replayed = reopened.recovery.frames_replayed
    finally:
        reopened.close()
    if tracer is not None:
        tracer.op_id = -1
    run.diagnostics["recovery_s"] = reopen_ns * reopen_factor / 1e9
    run.diagnostics["recovery_raw_s"] = reopen_ns / 1e9
    run.diagnostics["frames_replayed"] = frames_replayed
    run.diagnostics["compact_every"] = compact_every
    user_bytes = _user_bytes(codec, (op[1:] for op in puts_written))
    run.diagnostics["write_amp"] = (wal_bytes + written.snapshot) / user_bytes
    run.diagnostics["digest"] = stream.digest()
    run.raw_diagnostics()
    metrics = run.end_to_end(costs, space_amp, rss_mib)
    if tracer is not None:
        records = tracing.roots(tracer)
        classes = tracing.breakdown(records, None, run.recorder.factor)
        reopen = next(record for record in records if record[1] == -2)
        run.layer_metrics = layer_metrics(
            run,
            classes,
            mutations=mutations,
            restructures=_restructures(stats_after) - _restructures(stats_before),
            reopen=reopen,
            reopen_factor=reopen_factor,
            frames_replayed=frames_replayed,
            user_bytes=user_bytes,
            sharded_tail=moves_tail_mean(sorted(costs)),
        )
    return metrics


# ----------------------------------------------------------------------
# layered_adaptive
# ----------------------------------------------------------------------
def layered_adaptive(run: Run) -> dict:
    from repro.applications.ordered_map import PackedMemoryMap
    from repro.core.layered import make_corollary11_labeler

    stream = streams.LayeredAdaptive(run.seed, run.ops, LAYERED_CAPACITY)
    affinity = common.pin_to(common.load_cpu())
    run.diagnostics["context"] = common.run_context(run.seed, affinity, None)
    tracer = run.tracer
    if tracer is not None:
        tracing.install_layered(tracer)

    def factory(capacity: int):
        return make_corollary11_labeler(capacity, seed=STRUCTURE_SEED)

    def setup():
        if tracer is not None:
            index_map = tracer.call("layered.build", PackedMemoryMap, (LAYERED_CAPACITY, factory))
        else:
            index_map = PackedMemoryMap(LAYERED_CAPACITY, factory)
        index_map.update_many(stream.preload)
        return index_map

    repeats = 1 if tracer is not None else SETUP_REPEATS
    index_map = run.recorder.timed_setup(setup, repeats)
    first_cost = len(index_map.costs.costs)
    deadweight_before = index_map.labeler.deadweight_moves
    handlers = {
        "put": index_map.__setitem__,
        "del": index_map.__delitem__,
        "range": lambda low, limit: list(index_map.range(low, None, limit=limit)),
        "seek": index_map.successor,
    }
    counts = run.timed_phase(stream, handlers)
    costs = list(index_map.costs.costs[first_cost:])
    mutations = sum(counts.get(kind, 0) for kind in MUTATIONS)
    run.check("costed mutations", len(costs), mutations)
    run.attempted += 1
    try:
        index_map.check()
    except AssertionError as error:
        run.fail(f"PackedMemoryMap.check: {error}")
    run.check("final items", list(index_map.items()), [
        (key, stream.model.values[key]) for key in stream.model.keys
    ])
    run.diagnostics["digest"] = stream.digest()
    run.raw_diagnostics()
    metrics = run.end_to_end(
        costs,
        index_map.labeler.num_slots / len(index_map),
        common.peak_rss_mib(),
    )
    if tracer is not None:
        records = tracing.roots(tracer)
        classes = tracing.breakdown(records, None, run.recorder.factor)
        build = next(record for record in records if record[0] == "layered.build")
        run.layer_metrics = layer_metrics(
            run,
            classes,
            mutations=mutations,
            build_s=build[2] * run.recorder.setup_factor / 1e9,
            deadweight=index_map.labeler.deadweight_moves - deadweight_before,
            layered_tail=moves_tail_mean(sorted(costs)),
        )
    return metrics


WORKLOADS = {
    "wire_read_mostly": wire_read_mostly,
    "embedded_churn": embedded_churn,
    "layered_adaptive": layered_adaptive,
}


# ----------------------------------------------------------------------
# Per-layer metrics of a traced run
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    run: Run,
    classes: dict,
    *,
    mutations: int,
    wire_bytes: int = 0,
    restructures: float = 0.0,
    reopen=None,
    reopen_factor: float = 1.0,
    frames_replayed: int = 0,
    user_bytes: int = 0,
    build_s: float = 0.0,
    deadweight: int = 0,
    sharded_tail: float = 0.0,
    layered_tail: float = 0.0,
) -> dict[str, float]:
    """Every per-layer metric; a layer the workload bypasses reads 0.

    ``classes`` come from :func:`tracing.breakdown`, calibrated by the
    timed phase's factor; the raw ``reopen`` root is calibrated here by
    ``reopen_factor``, as ``recovery_s`` is, and ``build_s`` comes
    calibrated like ``setup_s``.
    """
    names = tracing.totals(classes)
    empty = [0, 0, 0, 0]

    def count(name):
        return names.get(name, empty)[0]

    def busy(name):
        return names.get(name, empty)[1]

    def own(name):
        return names.get(name, empty)[2]

    def value(name):
        return names.get(name, empty)[3]

    def layer_per_op(kinds, layer):
        ops = sum(classes[kind]["ops"] for kind in kinds if kind in classes)
        total = sum(classes[kind]["layers"].get(layer, 0) for kind in kinds if kind in classes)
        return _ratio(total, ops) / 1e3

    timed_ops = sum(entry["ops"] for entry in classes.values())
    writes = ("put", "del")
    reopen_names = reopen[4] if reopen is not None else {}
    replay_ns = reopen_factor * sum(
        reopen_names.get(name, empty)[1]
        for name in ("map.put", "map.del", "map.update_many")
    )
    reopen_ns = reopen_factor * (reopen[2] if reopen is not None else 0)
    layered_mutations = count("layered.insert") + count("layered.delete")
    sharded_mutations = count("sharded.insert") + count("sharded.delete")
    metrics = {
        "wire.get_us": layer_per_op(("get",), "wire"),
        "wire.put_us": layer_per_op(("put",), "wire"),
        "wire.range_us": layer_per_op(("range",), "wire"),
        "wire.bytes_per_op": _ratio(wire_bytes, timed_ops),
        "service.get_self_us": layer_per_op(("get",), "service"),
        "service.write_self_us": layer_per_op(writes, "service"),
        "store.write_self_us": layer_per_op(writes, "store"),
        "store.compactions": float(count("store.compact")),
        "store.compact_ms": _ratio(busy("store.compact"), count("store.compact")) / 1e6,
        "store.write_amp": _ratio(value("wal.append") + value("snapshot.write"), user_bytes),
        "wal.append_us": _ratio(busy("wal.append"), count("wal.append")) / 1e3,
        "wal.bytes_per_op": _ratio(value("wal.append"), mutations if count("wal.append") else 0),
        "snapshot.write_ms": _ratio(busy("snapshot.write"), count("snapshot.write")) / 1e6,
        "snapshot.bytes": _ratio(value("snapshot.write"), count("snapshot.write")),
        "snapshot.load_ms": reopen_factor * reopen_names.get("snapshot.load", empty)[1] / 1e6,
        "recovery.replay_ms": replay_ns / 1e6,
        "recovery.frames_replayed": float(frames_replayed),
        "recovery.reopen_ms": reopen_ns / 1e6,
        "map.rank_search_us": _ratio(busy("map.put>probe"), count("map.put")) / 1e3,
        "map.select_probes_per_put": _ratio(count("map.put>probe"), count("map.put")),
        "map.write_self_us": _ratio(
            own("map.put") + own("map.del"), count("map.put") + count("map.del")
        ) / 1e3,
        "sharded.insert_us": _ratio(own("sharded.insert"), count("sharded.insert")) / 1e3,
        "sharded.delete_us": _ratio(own("sharded.delete"), count("sharded.delete")) / 1e3,
        "sharded.select_us": _ratio(own("sharded.select"), count("sharded.select")) / 1e3,
        "sharded.moves_per_op": _ratio(
            value("sharded.insert") + value("sharded.delete"), sharded_mutations
        ),
        "sharded.moves_tail_mean": sharded_tail,
        "sharded.restructures_per_kop": _ratio(restructures * 1000.0, mutations),
        "shard.insert_us": _ratio(busy("shard.insert"), count("shard.insert")) / 1e3,
        "shard.delete_us": _ratio(busy("shard.delete"), count("shard.delete")) / 1e3,
        "layered.build_s": build_s,
        "layered.insert_us": _ratio(busy("layered.insert"), count("layered.insert")) / 1e3,
        "layered.select_us": _ratio(busy("layered.select"), count("layered.select")) / 1e3,
        "layered.moves_per_op": _ratio(
            value("layered.insert") + value("layered.delete"), layered_mutations
        ),
        "layered.moves_tail_mean": layered_tail,
        "layered.deadweight_moves": float(deadweight),
        "trace.attributed_share_min": min(
            entry["attributed_share"] for entry in classes.values()
        ),
    }
    run.diagnostics["trace_breakdown_us"] = {
        kind: {
            "ops": entry["ops"],
            "traced_latency_us": entry["total_ns"] / entry["ops"] / 1e3,
            "attributed_share": entry["attributed_share"],
            "self_us_by_layer": {
                layer: total / entry["ops"] / 1e3
                for layer, total in sorted(entry["layers"].items())
            },
        }
        for kind, entry in sorted(classes.items())
    }
    run.diagnostics["traced_throughput_ops_s"] = timed_ops / (
        sum(entry["total_ns"] for entry in classes.values()) / 1e9
    )
    run.diagnostics["spans"] = len(run.tracer)
    return metrics
