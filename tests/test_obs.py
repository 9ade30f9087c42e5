"""Observability subsystem: registry, histograms, spans, wire exposure.

Four layers of coverage:

* **Instrument semantics** — counters, gauges, exponential histograms
  (bucket edges, nearest-rank percentiles, plain-dict snapshots), the
  null registry, and the Prometheus exposition renderer.
* **Concurrency** — multi-threaded hammering loses no increments, and a
  snapshot taken *during* a write storm is internally consistent (each
  histogram's cumulative buckets are monotone and end at its count).
* **Property-based oracle** — a hypothesis test checks the histogram's
  percentile estimate and cumulative bucket counts against a sorted-list
  oracle for arbitrary samples.
* **Wire exposure** — a live server answers ``METRICS`` / enriched
  ``STATS`` with every expected metric family, and accounts
  connection-level errors per family (bad command, not-found, oversized
  frame).
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    NULL_TRACER,
    MetricsRegistry,
    SpanTracer,
    render_prometheus,
)


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------
class TestInstruments:
    def test_counter_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(10.0)
        gauge.inc(2.5)
        gauge.dec()
        assert gauge.value == 11.5

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("y") is registry.gauge("y")
        assert registry.histogram("z") is registry.histogram("z")

    def test_histogram_bucket_edges_are_le_bounds(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", start=1.0, factor=2.0, count=3)
        assert hist.bounds == (1.0, 2.0, 4.0)
        # A value exactly on a bound lands in that bound's bucket (le
        # semantics); just above it spills into the next.
        hist.observe(1.0)
        hist.observe(1.0000001)
        snapshot = hist.snapshot()
        assert snapshot["buckets"][0] == [1.0, 1]
        assert snapshot["buckets"][1] == [2.0, 2]
        assert snapshot["buckets"][-1] == ["+Inf", 2]

    def test_histogram_overflow_percentile_is_observed_max(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", start=1.0, factor=2.0, count=2)
        hist.observe(100.0)
        assert hist.percentile(0.99) == 100.0
        assert hist.snapshot()["max"] == 100.0

    def test_histogram_empty_percentile_is_zero(self):
        registry = MetricsRegistry()
        assert registry.histogram("h").percentile(0.5) == 0.0

    def test_histogram_rejects_bad_geometry_and_quantile(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad.start", start=0.0)
        with pytest.raises(ValueError):
            registry.histogram("bad.factor", factor=1.0)
        with pytest.raises(ValueError):
            registry.histogram("ok").percentile(0.0)

    def test_snapshot_is_plain_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        registry.gauge("g").set(3)
        registry.histogram("h").observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "b"]
        assert snapshot["counters"] == {"a": 2, "b": 1}
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_null_registry_is_inert_and_shared(self):
        assert NULL_REGISTRY.enabled is False
        instrument = NULL_REGISTRY.counter("anything")
        assert instrument is NULL_REGISTRY.histogram("other")
        instrument.inc()
        instrument.observe(1.0)
        assert instrument.value == 0
        assert NULL_REGISTRY.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_default_latency_buckets_span_microseconds_to_minutes(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency")
        start, factor, count = DEFAULT_LATENCY_BUCKETS
        assert hist.bounds[0] == start
        assert len(hist.bounds) == count
        assert hist.bounds[-1] == start * factor ** (count - 1)
        assert hist.bounds[-1] > 600  # covers ten-minute outliers


class TestExposition:
    def test_render_prometheus_families(self):
        registry = MetricsRegistry()
        registry.counter("wal.frames_appended").inc(3)
        registry.gauge("sharded.shard_count").set(2)
        hist = registry.histogram("h", start=1.0, factor=2.0, count=2)
        hist.observe(1.5)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE repro_wal_frames_appended_total counter" in text
        assert "repro_wal_frames_appended_total 3" in text
        assert "# TYPE repro_sharded_shard_count gauge" in text
        assert 'repro_h_bucket{le="2.0"} 1' in text
        assert 'repro_h_bucket{le="+Inf"} 1' in text
        assert "repro_h_count 1" in text

    def test_render_sanitizes_names(self):
        registry = MetricsRegistry()
        registry.counter("service.latency.put-many").inc()
        text = render_prometheus(registry.snapshot())
        assert "repro_service_latency_put_many_total 1" in text


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestSpans:
    def test_nesting_builds_a_tree(self):
        clock = _FakeClock()
        tracer = SpanTracer(slow_threshold_seconds=0.01, clock=clock)
        with tracer.span("service.put"):
            clock.now = 0.010
            with tracer.span("store.commit"):
                clock.now = 0.020
                with tracer.span("wal.append"):
                    clock.now = 0.090
            clock.now = 0.100
        (entry,) = tracer.slow_ops()
        root = entry["root"]
        assert root["name"] == "service.put"
        assert root["duration_seconds"] == pytest.approx(0.100)
        (commit,) = root["children"]
        assert commit["name"] == "store.commit"
        assert commit["offset_seconds"] == pytest.approx(0.010)
        (append,) = commit["children"]
        assert append["name"] == "wal.append"
        assert append["duration_seconds"] == pytest.approx(0.070)

    def test_fast_roots_are_not_retained(self):
        clock = _FakeClock()
        tracer = SpanTracer(slow_threshold_seconds=0.05, clock=clock)
        with tracer.span("fast"):
            clock.now += 0.001
        assert tracer.slow_ops() == []

    def test_ring_is_bounded_and_clearable(self):
        clock = _FakeClock()
        tracer = SpanTracer(slow_threshold_seconds=0.0, capacity=2, clock=clock)
        for index in range(5):
            with tracer.span(f"op{index}"):
                clock.now += 1.0
        names = [entry["root"]["name"] for entry in tracer.slow_ops()]
        assert names == ["op3", "op4"]
        tracer.clear()
        assert tracer.slow_ops() == []

    def test_null_tracer_span_is_reusable_noop(self):
        span = NULL_TRACER.span("x")
        with span:
            with span:
                pass
        assert NULL_TRACER.slow_ops() == []

    def test_global_enable_disable_roundtrip(self):
        assert obs.get_registry() is NULL_REGISTRY
        try:
            registry = obs.enable(slow_threshold_seconds=0.123)
            assert registry.enabled
            assert obs.enable() is registry  # idempotent
            assert obs.get_tracer().slow_threshold_seconds == 0.123
            with obs.span("anything"):
                pass
        finally:
            removed_registry, _ = obs.disable()
        assert removed_registry is registry
        assert obs.get_registry() is NULL_REGISTRY
        assert obs.get_tracer() is NULL_TRACER

    def test_resolve_prefers_injection(self):
        registry = MetricsRegistry()
        assert obs.resolve(registry) is registry
        assert obs.resolve(None) is obs.get_registry()


# ---------------------------------------------------------------------------
# Concurrency (satellite: no lost increments, consistent snapshots)
# ---------------------------------------------------------------------------
class TestConcurrency:
    THREADS = 8
    PER_THREAD = 2500

    def _hammer(self, work) -> None:
        barrier = threading.Barrier(self.THREADS)

        def run() -> None:
            barrier.wait()
            work()

        threads = [
            threading.Thread(target=run) for _ in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_counter_hammer_loses_no_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("hammered")

        def work() -> None:
            for _ in range(self.PER_THREAD):
                counter.inc()

        self._hammer(work)
        assert counter.value == self.THREADS * self.PER_THREAD

    def test_histogram_hammer_loses_no_observations(self):
        registry = MetricsRegistry()
        hist = registry.histogram("hammered", start=1.0, factor=2.0, count=8)

        def work() -> None:
            for index in range(self.PER_THREAD):
                hist.observe(float(1 + index % 300))

        self._hammer(work)
        total = self.THREADS * self.PER_THREAD
        snapshot = hist.snapshot()
        assert snapshot["count"] == total
        assert snapshot["buckets"][-1] == ["+Inf", total]

    def test_snapshot_under_write_storm_is_consistent(self):
        registry = MetricsRegistry()
        counter = registry.counter("storm")
        hist = registry.histogram("storm.h", start=1.0, factor=2.0, count=6)
        stop = threading.Event()

        def write() -> None:
            while not stop.is_set():
                counter.inc()
                hist.observe(3.0)

        writers = [threading.Thread(target=write) for _ in range(4)]
        for writer in writers:
            writer.start()
        try:
            deadline = time.monotonic() + 1.0
            last_count = 0
            while time.monotonic() < deadline:
                snapshot = registry.snapshot()
                h = snapshot["histograms"]["storm.h"]
                cumulative = [count for _, count in h["buckets"][:-1]]
                # Cumulative buckets are monotone and never exceed the
                # histogram's own count; the count never goes backwards.
                assert cumulative == sorted(cumulative)
                assert all(c <= h["count"] for c in cumulative)
                assert h["buckets"][-1][1] == h["count"]
                assert snapshot["counters"]["storm"] >= last_count
                last_count = snapshot["counters"]["storm"]
        finally:
            stop.set()
            for writer in writers:
                writer.join()
        assert counter.value == registry.snapshot()["counters"]["storm"]


# ---------------------------------------------------------------------------
# Hypothesis oracle: buckets and percentiles vs a sorted list
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    samples=st.lists(
        st.floats(min_value=1e-9, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=80,
    ),
    q=st.floats(min_value=0.001, max_value=1.0),
)
def test_histogram_matches_sorted_list_oracle(samples, q):
    registry = MetricsRegistry()
    hist = registry.histogram("oracle", start=1e-6, factor=4.0, count=16)
    for value in samples:
        hist.observe(value)

    ordered = sorted(samples)
    snapshot = hist.snapshot()

    # Cumulative count at every bound equals the oracle count of samples
    # at or below that bound.
    for bound, cumulative in snapshot["buckets"][:-1]:
        assert cumulative == sum(1 for v in ordered if v <= bound)
    assert snapshot["buckets"][-1][1] == len(ordered)
    assert snapshot["max"] == ordered[-1]

    # The percentile estimate is the upper bound of the bucket holding
    # the nearest-rank sample (or the observed max past the last bound).
    rank_value = ordered[max(1, math.ceil(q * len(ordered))) - 1]
    index = bisect_left(hist.bounds, rank_value)
    expected = (
        hist.bounds[index] if index < len(hist.bounds) else snapshot["max"]
    )
    estimate = hist.percentile(q)
    assert estimate == expected
    assert rank_value <= estimate


# ---------------------------------------------------------------------------
# Wire exposure: METRICS / enriched STATS / error families
# ---------------------------------------------------------------------------
@pytest.fixture()
def live_server(tmp_path):
    from repro.store.server import ServerThread
    from repro.store.service import StoreService
    from repro.store.store import DurableStore

    registry = MetricsRegistry()
    store = DurableStore(
        tmp_path / "store",
        algorithm="classical",
        shard_capacity=32,
        sync_policy="never",
        registry=registry,
    )
    service = StoreService(store)
    with ServerThread(service) as server:
        yield server, registry
    service.close()


class TestWireExposure:
    def _client(self, server):
        from repro.store.client import StoreClient

        return StoreClient(*server.address)

    def test_metrics_round_trip(self, live_server):
        server, registry = live_server
        with self._client(server) as client:
            for index in range(64):
                client.put(index, index * 2)
            client.get(1)
            metrics = client.metrics()
        assert metrics["enabled"] is True
        counters = metrics["metrics"]["counters"]
        assert counters["wal.frames_appended"] >= 64
        assert counters["server.requests"] >= 65
        histograms = metrics["metrics"]["histograms"]
        assert histograms["service.latency.put"]["count"] >= 64
        assert histograms["service.lock_wait_seconds"]["count"] >= 64
        assert metrics["metrics"]["gauges"]["sharded.shard_count"] >= 1
        assert "repro_wal_frames_appended_total" in metrics["exposition"]
        # The wire snapshot matches a direct read of the same registry.
        assert counters == registry.snapshot()["counters"]

    def test_stats_reports_compactor_replication_and_shards(self, live_server):
        server, _ = live_server
        with self._client(server) as client:
            client.put("k", "v")
            stats = client.stats()
        assert stats["compactor_alive"] is False
        assert stats["last_compactor_error"] is None
        assert stats["replica_count"] == 0
        assert stats["replica_acks"] == []
        assert stats["replication_floor"] is None
        assert stats["shard_statistics"]["shards"] >= 1
        # Per-command latency is served by METRICS, not STATS.
        assert "latency" not in stats

    def test_error_families_are_counted(self, live_server):
        import socket
        import struct

        from repro.store.client import StoreClientError
        from repro.store.protocol import MAX_MESSAGE_BYTES

        server, _ = live_server
        with self._client(server) as client:
            with pytest.raises(KeyError):
                client.delete("missing")
            with pytest.raises(StoreClientError):
                client._call("NOPE")
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(struct.pack(">I", MAX_MESSAGE_BYTES + 1))
            sock.settimeout(5.0)
            assert sock.recv(1) == b""
        with self._client(server) as client:
            stats = client.stats()
            counters = client.metrics()["metrics"]["counters"]
        for family in ("not_found", "bad_command", "oversized_frame"):
            assert stats["error_counts"][family] >= 1
            assert counters[f"server.errors.{family}"] >= 1

    def test_oversized_response_gets_an_error_reply(
        self, live_server, monkeypatch
    ):
        from repro.store import protocol
        from repro.store.client import StoreClientError

        server, registry = live_server
        with self._client(server) as client:
            client.put_many([(key, "v" * 16) for key in range(200)])
            monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", 4096)
            with pytest.raises(StoreClientError) as raised:
                client.range_scan()
            assert raised.value.code == "oversized_frame"
            assert client.range_scan(limit=8)[0] == (0, "v" * 16)
        counters = registry.snapshot()["counters"]
        assert counters["server.errors.oversized_frame"] == 1

    def test_read_only_rejection_is_counted(self, live_server):
        from repro.store.client import ReadOnlyError

        server, _ = live_server
        server.read_only = True
        try:
            with self._client(server) as client:
                with pytest.raises(ReadOnlyError):
                    client.put("k", "v")
                stats = client.stats()
        finally:
            server.read_only = False
        assert stats["error_counts"]["read_only"] >= 1


class TestStatsCli:
    def test_stats_command_renders_live_server(self, tmp_path, capsys):
        from repro.store import __main__ as cli
        from repro.store.server import ServerThread
        from repro.store.service import StoreService
        from repro.store.store import DurableStore

        store = DurableStore(
            tmp_path / "store",
            algorithm="classical",
            shard_capacity=32,
            sync_policy="never",
            registry=MetricsRegistry(),
        )
        service = StoreService(store)
        with ServerThread(service) as server:
            host, port = server.address
            code = cli.main(
                ["stats", "--host", host, "--port", str(port)]
            )
        service.close()
        out = capsys.readouterr().out
        assert code == 0
        assert "durability" in out
        assert "repro_" in out  # the exposition rendered
