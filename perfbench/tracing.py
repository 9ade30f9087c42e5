"""In-memory spans around the program's public calls, and per-layer sums.

Only traced runs (``--trace 1``) install these wrappers; end-to-end
metrics come from untraced runs.  A span records its name, start, end,
busy time, parent, op id and one optional count (moves, bytes).  Busy
time equals end - start, except for a generator (a range cursor), where
it is the time spent inside the generator's own resumptions.  A span's
self time is its busy time minus the busy time of its child spans.

The wrappers are installed from here, around calls the program already
exposes; the program itself is not changed.  Dunder methods and
objects built inside constructors (the WAL, the map) are wrapped on
their class, which is safe because a benchmark process runs one
workload.
"""

from __future__ import annotations

import threading
from array import array
from time import perf_counter_ns

#: Span name prefix -> layer (the layer names of perfbench/README.md).
LAYER_OF_PREFIX = {
    "op": "harness",
    "client": "wire",
    "service": "service",
    "store": "store",
    "wal": "wal",
    "snapshot": "snapshot",
    "map": "map",
    "sharded": "sharded",
    "shard": "shard",
    "layered": "layered",
}


def layer_of(name: str) -> str:
    return LAYER_OF_PREFIX[name.split(".", 1)[0]]


#: Fields of one span record in :attr:`Tracer.records`.
NAME, PARENT, OP, START, END, BUSY, VALUE = range(7)
FIELDS = 7


class Tracer:
    """Spans as fixed-width records in one flat array; a span stack per thread.

    ``enabled`` is switched off while a bulk call (a preload) runs, so its
    hundreds of thousands of nested calls leave one span, not a span each.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.records = array("q")
        self.op_id = -1
        self.enabled = True
        self._local = threading.local()

    def __len__(self) -> int:
        return len(self.records) // FIELDS

    def name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def begin(self, name_id: int, started: int) -> int:
        """Open a span under the innermost open span of this thread."""
        stack = self._stack()
        index = len(self.records) // FIELDS
        self.records.extend(
            (name_id, stack[-1] if stack else -1, self.op_id, started, started, 0, 0)
        )
        stack.append(index)
        return index

    def finish(self, index: int, busy: int | None = None) -> None:
        """Close the innermost span; ``busy`` defaults to end - start."""
        self._stack().pop()
        ended = perf_counter_ns()
        base = index * FIELDS
        records = self.records
        records[base + END] = ended
        records[base + BUSY] = ended - records[base + START] if busy is None else busy

    def call(self, name: str, fn, args=(), kwargs=None):
        """Run ``fn(*args, **kwargs)`` inside one span."""
        index = self.begin(self.name_id(name), perf_counter_ns())
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            self.finish(index)

    def wrap(self, name: str, fn, value=None, quiet: bool = False):
        """``fn`` in a span; ``value(result)`` is the span's count.

        A ``quiet`` span records no spans inside it.
        """
        tracer = self
        name_id = self.name_id(name)

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer.begin(name_id, perf_counter_ns())
            tracer.enabled = not quiet
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.enabled = True
                tracer.finish(index)
            if value is not None:
                tracer.records[index * FIELDS + VALUE] = value(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        """Wrap a function returning an iterator; the span's busy time is the
        time spent inside the iterator's own resumptions."""
        tracer = self
        name_id = self.name_id(name)

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not tracer.enabled:
                return inner
            return tracer._iterate(name_id, inner)

        traced.__wrapped__ = fn
        return traced

    def _iterate(self, name_id: int, inner):
        index = -1
        busy = 0
        try:
            while True:
                resumed = perf_counter_ns()
                if index < 0:
                    index = self.begin(name_id, resumed)
                else:
                    self._stack().append(index)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._stack().pop()
                    busy += perf_counter_ns() - resumed
                yield item
        finally:
            if index >= 0:
                base = index * FIELDS
                self.records[base + END] = perf_counter_ns()
                self.records[base + BUSY] = busy

    # ------------------------------------------------------------------
    def column(self, field: int) -> array:
        return self.records[field::FIELDS]

    def self_times(self) -> array:
        """Busy time of each span minus the busy time of its children."""
        busy = self.column(BUSY)
        own = array("q", busy)
        for index, up in enumerate(self.column(PARENT)):
            if up >= 0:
                own[up] -= busy[index]
        return own

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,parent,op,start_ns,end_ns,busy_ns,value\n")
            names, records = self.names, self.records
            for index in range(len(self)):
                base = index * FIELDS
                row = records[base : base + FIELDS]
                handle.write(f"{index},{names[row[NAME]]},{','.join(map(str, row[1:]))}\n")


def _cost(result) -> int:
    return result.cost


def install_store_stack(tracer: Tracer) -> None:
    """Wrap service, store, WAL, snapshot, map and sharded-engine calls."""
    from repro.core.sharded import ShardedLabeler
    from repro.store import snapshot as snapshot_io
    from repro.store.service import StoreService
    from repro.store.store import DurableStore
    from repro.store.wal import WriteAheadLog

    for method in ("get", "put", "delete", "range_scan", "count_range"):
        setattr(StoreService, method, tracer.wrap(f"service.{method}", getattr(StoreService, method)))
    setattr(StoreService, "put_many", tracer.wrap("service.put_many", StoreService.put_many, quiet=True))
    for method in ("get", "put", "delete", "range", "count_range", "compact"):
        setattr(DurableStore, method, tracer.wrap(f"store.{method}", getattr(DurableStore, method)))
    setattr(WriteAheadLog, "open", tracer.wrap("wal.open", WriteAheadLog.open))
    setattr(WriteAheadLog, "append", _counting_append(tracer, WriteAheadLog.append))
    setattr(snapshot_io, "write_snapshot", tracer.wrap("snapshot.write", snapshot_io.write_snapshot, snapshot_bytes))
    setattr(snapshot_io, "load_newest_valid", tracer.wrap("snapshot.load", snapshot_io.load_newest_valid))
    install_map(tracer)
    for method in ("insert", "delete"):
        setattr(ShardedLabeler, method, tracer.wrap(f"sharded.{method}", getattr(ShardedLabeler, method), _cost))
    for method in ("select", "rank_of", "insert_batch", "delete_batch"):
        setattr(ShardedLabeler, method, tracer.wrap(f"sharded.{method}", getattr(ShardedLabeler, method)))
    setattr(ShardedLabeler, "iter_from", tracer.wrap_generator("sharded.iter_from", ShardedLabeler.iter_from))


def _counting_append(tracer: Tracer, append):
    """``WriteAheadLog.append`` in a span whose count is the bytes appended."""
    name_id = tracer.name_id("wal.append")

    def traced(wal, op, payload):
        if not tracer.enabled:
            return append(wal, op, payload)
        index = tracer.begin(name_id, perf_counter_ns())
        try:
            before = wal.tell()
            lsn = append(wal, op, payload)
            tracer.records[index * FIELDS + VALUE] = wal.tell() - before
        finally:
            tracer.finish(index)
        return lsn

    return traced


def snapshot_bytes(info) -> int:
    """Bytes of the files of one snapshot checkpoint."""
    return sum(entry.stat().st_size for entry in info.path.iterdir())


def install_map(tracer: Tracer) -> None:
    """Wrap the ordered map's public calls (dunders on the class)."""
    from repro.applications.ordered_map import PackedMemoryMap

    for method, name in (
        ("__setitem__", "map.put"),
        ("__delitem__", "map.del"),
        ("get", "map.get"),
        ("count_range", "map.count_range"),
        ("successor", "map.successor"),
        ("restore_state", "map.restore"),
    ):
        setattr(PackedMemoryMap, method, tracer.wrap(name, getattr(PackedMemoryMap, method)))
    setattr(PackedMemoryMap, "update_many", tracer.wrap("map.update_many", PackedMemoryMap.update_many, quiet=True))
    # The span materializes the page inside it: every caller (the service,
    # the layered harness) lists the whole page at once anyway, and the
    # labeler cursor underneath stays lazy and traced.
    lazy_range = PackedMemoryMap.range

    def materialized_range(*args, **kwargs):
        return iter(list(lazy_range(*args, **kwargs)))

    setattr(PackedMemoryMap, "range", tracer.wrap("map.range", materialized_range))


def traced_classical_factory(tracer: Tracer):
    """Shard factory building the store's default ``ClassicalPMA`` shards,
    with each shard's insert/delete wrapped on the instance."""
    from repro.algorithms.classical import ClassicalPMA

    def factory(capacity: int):
        shard = ClassicalPMA(capacity)
        shard.insert = tracer.wrap("shard.insert", shard.insert)
        shard.delete = tracer.wrap("shard.delete", shard.delete)
        return shard

    return factory


def install_layered(tracer: Tracer) -> None:
    from repro.core.layered import LayeredLabeler

    for method in ("insert", "delete"):
        setattr(LayeredLabeler, method, tracer.wrap(f"layered.{method}", getattr(LayeredLabeler, method), _cost))
    for method in ("select", "rank_of"):
        setattr(LayeredLabeler, method, tracer.wrap(f"layered.{method}", getattr(LayeredLabeler, method)))
    setattr(LayeredLabeler, "iter_from", tracer.wrap_generator("layered.iter_from", LayeredLabeler.iter_from))
    install_map(tracer)


def install_client(tracer: Tracer, byte_counter: list[int]) -> None:
    """Wrap the client's calls, and count the bytes its socket moves."""
    from repro.store import client as client_module

    for method in ("get", "put", "range_scan"):
        setattr(
            client_module.StoreClient,
            method,
            tracer.wrap(f"client.{method}", getattr(client_module.StoreClient, method)),
        )
    send, recv = client_module.send_message, client_module.recv_message

    class Counting:
        __slots__ = ("sock",)

        def __init__(self, sock) -> None:
            self.sock = sock

        def sendall(self, data) -> None:
            byte_counter[0] += len(data)
            self.sock.sendall(data)

        def recv(self, size: int) -> bytes:
            data = self.sock.recv(size)
            byte_counter[0] += len(data)
            return data

    client_module.send_message = lambda sock, message: send(Counting(sock), message)
    client_module.recv_message = lambda sock: recv(Counting(sock))


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
#: Select probes made by a map put: the map's rank search.
PROBES = frozenset({"sharded.select", "layered.select"})


def roots(tracer: Tracer) -> list[list]:
    """One record per top-level span: ``[name, op, busy, layers, names]``.

    ``layers`` maps a layer to the self time its spans spent under this
    root; ``names`` maps each span name to ``[count, busy, self, value]``.
    Select probes whose parent is a map put are also counted under
    ``"map.put>probe"``.
    """
    own = tracer.self_times()
    names = tracer.names
    name_id, parent, ops = tracer.column(NAME), tracer.column(PARENT), tracer.column(OP)
    busy, value = tracer.column(BUSY), tracer.column(VALUE)
    root_of = array("q", [-1]) * len(parent)
    records: list[list] = []
    record_at: dict[int, list] = {}
    for index in range(len(parent)):
        name = names[name_id[index]]
        up = parent[index]
        if up < 0:
            root_of[index] = index
            record = [name, ops[index], busy[index], {}, {}]
            record_at[index] = record
            records.append(record)
        else:
            root_of[index] = root_of[up]
            record = record_at[root_of[index]]
        layer = layer_of(name)
        record[3][layer] = record[3].get(layer, 0) + own[index]
        _count(record[4], name, 1, busy[index], own[index], value[index])
        if name in PROBES and up >= 0 and names[name_id[up]] == "map.put":
            _count(record[4], "map.put>probe", 1, busy[index], own[index], 0)
    return records


def _count(table: dict, name: str, count: int, busy: float, own: float, value: int) -> None:
    entry = table.get(name)
    if entry is None:
        table[name] = [count, busy, own, value]
    else:
        entry[0] += count
        entry[1] += busy
        entry[2] += own
        entry[3] += value


def _merge(into: dict, layers: dict, names: dict, scale: float) -> None:
    for layer, own in layers.items():
        into["layers"][layer] = into["layers"].get(layer, 0) + own * scale
    for name, (count, busy, own, value) in names.items():
        _count(into["names"], name, count, busy * scale, own * scale, value)


def breakdown(records: list[list], server_records=None, scale: float = 1.0) -> dict:
    """Per op class of the timed phase: ops, traced latency, layers, names.

    ``records`` come from :func:`roots`; timed ops are the ``op.<class>``
    roots with an op id of 0 or more.  In the wire workload
    ``server_records`` holds the server's request roots in request order,
    one per ``client.*`` call of the timed phase; the wire layer's self
    time is then the client call minus the server's service call of the
    same request.  Every time is multiplied by ``scale``, the run's
    calibration factor.
    """
    classes: dict[str, dict] = {}
    pending = iter(server_records or ())
    for name, op, busy, layers, names in records:
        if op < 0 or not name.startswith("op."):
            continue
        entry = classes.setdefault(
            name[3:], {"ops": 0, "total_ns": 0, "layers": {}, "names": {}}
        )
        entry["ops"] += 1
        entry["total_ns"] += busy * scale
        layers = dict(layers)
        if server_records is not None:
            for client_name in [key for key in names if key.startswith("client.")]:
                for _ in range(names[client_name][0]):
                    request = next(pending)
                    layers["wire"] = layers.get("wire", 0) - request[2]
                    _merge(entry, request[3], request[4], scale)
        _merge(entry, layers, names, scale)
    for entry in classes.values():
        total = entry["total_ns"]
        entry["attributed_share"] = (
            (total - entry["layers"].get("harness", 0)) / total if total else 1.0
        )
    return classes


def totals(classes: dict) -> dict[str, list]:
    """Per span name, ``[count, busy, self, value]`` summed over all classes."""
    merged: dict[str, list] = {}
    for entry in classes.values():
        for name, (count, busy, own, value) in entry["names"].items():
            _count(merged, name, count, busy, own, value)
    return merged
