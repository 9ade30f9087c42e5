"""Thread-safe metrics registry: counters, gauges, exponential histograms.

The registry is the process-wide measurement surface for the store stack.
Design constraints, in order:

* **Cheap on hot paths.**  Instruments are created once (get-or-create by
  dotted name) and cached by their owners; recording is one lock
  acquisition plus integer arithmetic.  Each instrument has its own lock,
  so unrelated hot instruments do not contend.
* **Bit-identical when off.**  The default registry is the shared
  :data:`NULL_REGISTRY` whose instruments are inert singletons — seed
  code paths execute the same operations in the same order whether or
  not observability is enabled (the ``obs`` perf suite proves move-log
  equality between bare and instrumented runs).
* **Plain-dict snapshots.**  :meth:`MetricsRegistry.snapshot` returns
  nothing but dicts/lists/numbers/strings so the result survives the
  wire codec unchanged, and :func:`render_prometheus` turns any such
  snapshot into Prometheus-style text exposition.

Histograms use fixed exponential buckets (``start * factor**i``), the
classical trade: percentile estimates are exact to one bucket (the
estimate is the upper bound of the bucket holding the nearest-rank
sample — the property the hypothesis oracle test asserts) at O(bucket
count) memory regardless of sample volume.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Callable, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "render_prometheus",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default histogram geometry for latency-in-seconds instruments:
#: 1 µs .. ~1100 s in doubling buckets (31 finite bounds + overflow).
DEFAULT_LATENCY_BUCKETS = (1e-6, 2.0, 31)


class Counter:
    """Monotonic counter.  ``inc`` only; never decremented."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """Point-in-time value; settable, incrementable, decrementable."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed exponential-bucket histogram with ``le`` (at-or-below) bounds.

    Bucket ``i`` (for ``i < len(bounds)``) counts observations ``v`` with
    ``bounds[i-1] < v <= bounds[i]``; the final overflow bucket counts
    everything above the last bound.  ``percentile`` returns the upper
    bound of the bucket containing the nearest-rank sample (or the exact
    observed maximum for the overflow bucket), so the estimate always
    satisfies ``lower_bound < true_value <= estimate``.
    """

    __slots__ = ("name", "_lock", "bounds", "_counts", "_sum", "_count", "_max")

    def __init__(
        self,
        name: str,
        *,
        start: float,
        factor: float,
        count: int,
    ) -> None:
        if start <= 0:
            raise ValueError("histogram bucket start must be positive")
        if factor <= 1.0:
            raise ValueError("histogram bucket factor must exceed 1")
        if count < 1:
            raise ValueError("histogram needs at least one bucket")
        self.name = name
        self._lock = threading.Lock()
        self.bounds: tuple[float, ...] = tuple(
            start * factor**i for i in range(count)
        )
        self._counts = [0] * (count + 1)  # final slot = overflow (+Inf)
        self._sum = 0.0
        self._count = 0
        self._max = 0.0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile estimate (upper bucket bound)."""
        if not 0.0 < q <= 1.0:
            raise ValueError("percentile fraction must be in (0, 1]")
        with self._lock:
            total = self._count
            if total == 0:
                return 0.0
            rank = max(1, math.ceil(q * total))
            cumulative = 0
            for index, bucket in enumerate(self._counts):
                cumulative += bucket
                if cumulative >= rank:
                    if index < len(self.bounds):
                        return self.bounds[index]
                    return self._max
            return self._max  # unreachable; counts always sum to total

    def snapshot(self) -> dict:
        """Plain-dict view: cumulative ``le`` buckets, sum, count, max."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
            observed_sum = self._sum
            observed_max = self._max
        buckets: list[list] = []
        cumulative = 0
        for bound, bucket in zip(self.bounds, counts[:-1]):
            cumulative += bucket
            buckets.append([bound, cumulative])
        buckets.append(["+Inf", total])
        return {
            "count": total,
            "sum": observed_sum,
            "max": observed_max,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Get-or-create instrument registry; every instrument has its own lock."""

    enabled = True

    def __init__(self) -> None:
        self._meta = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._meta:
                instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._meta:
                instrument = self._gauges.setdefault(name, Gauge(name))
        return instrument

    def histogram(
        self,
        name: str,
        *,
        start: float = DEFAULT_LATENCY_BUCKETS[0],
        factor: float = DEFAULT_LATENCY_BUCKETS[1],
        count: int = DEFAULT_LATENCY_BUCKETS[2],
    ) -> Histogram:
        """Get-or-create; bucket geometry is honored only on first use."""
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._meta:
                instrument = self._histograms.setdefault(
                    name,
                    Histogram(name, start=start, factor=factor, count=count),
                )
        return instrument

    def snapshot(self) -> dict:
        """Plain-dict snapshot of every instrument.

        Instrument *sets* are copied under the meta lock; each value is
        then read under its own lock, so every individual reading
        is internally consistent (a histogram's bucket counts always sum
        to its ``count``) even while writers are hammering.
        """
        with self._meta:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        return {
            "counters": {c.name: c.value for c in sorted(counters, key=lambda i: i.name)},
            "gauges": {g.name: g.value for g in sorted(gauges, key=lambda i: i.name)},
            "histograms": {
                h.name: h.snapshot()
                for h in sorted(histograms, key=lambda i: i.name)
            },
        }


class _NullInstrument:
    """Inert stand-in for every instrument kind; all writes are no-ops."""

    __slots__ = ()
    name = "null"
    value = 0
    count = 0
    sum = 0.0
    bounds: tuple[float, ...] = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def snapshot(self) -> dict:
        return {"count": 0, "sum": 0.0, "max": 0.0, "buckets": []}


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The off switch: every lookup returns the shared inert instrument.

    Components resolve their instruments through this object when
    observability is disabled, so the seed code paths stay structurally
    identical — same calls, same order — at near-zero cost and with no
    state retained anywhere.
    """

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **_kwargs) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NULL_REGISTRY = NullRegistry()


def _exposition_name(name: str) -> str:
    """Dotted instrument name -> Prometheus-legal metric name."""
    cleaned = "".join(
        ch if (ch.isascii() and (ch.isalnum() or ch == "_")) else "_"
        for ch in name
    )
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return "repro_" + cleaned


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(snapshot: dict) -> str:
    """Prometheus-style text exposition of a :meth:`snapshot` dict."""
    lines: list[str] = []
    for name, value in snapshot.get("counters", {}).items():
        metric = _exposition_name(name)
        if not metric.endswith("_total"):
            metric += "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        metric = _exposition_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")
    for name, data in snapshot.get("histograms", {}).items():
        metric = _exposition_name(name)
        lines.append(f"# TYPE {metric} histogram")
        for bound, cumulative in data.get("buckets", []):
            label = bound if isinstance(bound, str) else repr(float(bound))
            lines.append(f'{metric}_bucket{{le="{label}"}} {cumulative}')
        lines.append(f"{metric}_sum {_format_value(data.get('sum', 0.0))}")
        lines.append(f"{metric}_count {data.get('count', 0)}")
    return "\n".join(lines) + ("\n" if lines else "")
