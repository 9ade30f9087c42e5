"""Drift calibration, latency recording and the run context.

**Calibration.**  The host's speed drifts by tens of percent over
minutes.  The recorder runs a fixed pure-Python integer loop
(:func:`kernel`: 6-9 ms on the reference machine, a 2-vCPU Xeon VM; GC
off, no op in flight) before every chunk of timed ops, and scales every
timing of the timed phase by
``(KERNEL_REFERENCE_NS / median kernel time) ** exponent``.  A set-up
repetition or a reopen is scaled the same way by the median of the
``AROUND_KERNELS`` kernels run just before and just after it: the host's
speed during set-up is not its speed during the timed phase.  Scaled by
the timed phase's factor, the set-up times of ten runs spread wider than
unscaled (IQR 29% against 15% on the wire workload, 41% against 17% on
the layered one); scaled by their own kernels, 5-13% on every workload
over two sets of ten runs.  Reported timings are therefore in
"reference-machine" units; the raw wall-clock values and the kernel
series are printed beside them as diagnostics.

One factor for the whole timed phase, not one per chunk: a single kernel
is itself noisy on that machine (a 30% IQR between chunks of one
process), and scaling each chunk by its own kernel widened the
chunk-to-chunk spread of a fixed piece of program work from 13.6% to
16.5%, while the median of a run's kernels follows the drift between
runs.

The exponent is the share of a workload's time that moves with the
kernel: socket and file calls and memory stalls do not slow down with
the interpreter loop as much.  Each workload fixes its own
(``workloads.KERNEL_EXPONENT``); ``run.py --report`` prints the slope of
log raw throughput on log kernel time across its runs.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import sys
from time import perf_counter_ns

#: WAL flush policy of both store workloads.  The store directory must
#: live inside the benchmark's checkout, on the reference machine an ext4
#: virtio disk, where with ``"always"`` an in-process PUT's p99 was
#: 0.7-2 ms, set by the device, not the program.  ``"never"`` keeps every write and rename of
#: the WAL and snapshots but leaves flushing to the OS, so only the
#: snapshot files' own fsyncs (which no policy skips) reach the device.
SYNC_POLICY = "never"

#: Iterations of the calibration loop.
KERNEL_ITERS = 50_000

#: Kernels run just before and just after a set-up or a reopen; their
#: median calibrates that one timing.
AROUND_KERNELS = 10

#: The loop's time on the reference machine (median of many runs, ns).
#: Fixed once: changing it rescales every timing the benchmark reports.
KERNEL_REFERENCE_NS = 7_800_000


def kernel() -> int:
    """Time of one run of the calibration loop, in ns (GC off while it runs)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter_ns()
        x = 1
        for i in range(KERNEL_ITERS):
            x = (x * 1103515245 + i) & 0x7FFFFFFF
        elapsed = perf_counter_ns() - started
    finally:
        if enabled:
            gc.enable()
    if x < 0:  # consume the result so the loop cannot be skipped
        raise AssertionError(x)
    return elapsed


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    index = max(0, math.ceil(fraction * len(sorted_values)) - 1)
    return sorted_values[index]


def quartile_spread(values) -> dict:
    """Median, quartiles, IQR and min/max spread, both as shares of the median."""
    values = sorted(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    scale = abs(median) or 1.0
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / scale,
        "range_share": (values[-1] - values[0]) / scale,
        "min": values[0],
        "max": values[-1],
    }


class Recorder:
    """Raw per-class latencies of the timed phase, the timed phase's kernel
    series, and the set-up times with the kernels around each.

    ``exponent`` is the share of the workload's time that scales with the
    kernel (see the module docstring).
    """

    def __init__(self, exponent: float) -> None:
        self.exponent = exponent
        self.raw: dict[str, list[int]] = {}
        self.kernels: list[int] = []
        self.raw_ns = 0
        self.setup_raw_ns: list[int] = []
        self.setup_ns: list[float] = []
        self.setup_factor = 1.0
        self.around_kernels: list[list[int]] = []

    def sample_kernel(self) -> None:
        self.kernels.append(kernel())

    def add(self, kind: str, ns: int) -> None:
        self.raw.setdefault(kind, []).append(ns)
        self.raw_ns += ns

    def factor_of(self, kernels) -> float:
        """(reference ÷ median of ``kernels``) ** exponent."""
        return (KERNEL_REFERENCE_NS / statistics.median(kernels)) ** self.exponent

    @property
    def factor(self) -> float:
        """Calibration factor of the timed phase, from its kernel series."""
        return self.factor_of(self.kernels)

    @property
    def ops(self) -> int:
        return sum(len(values) for values in self.raw.values())

    def calibrated(self, ns: float) -> float:
        return ns * self.factor

    def sorted_samples(self, *kinds: str) -> list[float]:
        """Calibrated latencies (ns) of the given classes, ascending."""
        factor = self.factor
        merged = [ns * factor for kind in kinds for ns in self.raw.get(kind, ())]
        merged.sort()
        return merged

    def kernel_summary(self) -> dict:
        spread = quartile_spread(self.kernels)
        return {
            "kernel_median_ns": spread["median"],
            "kernel_iqr_share": spread["iqr_share"],
            "kernel_samples": len(self.kernels),
            "exponent": self.exponent,
            "factor": self.factor,
        }

    def timed_once(self, fn) -> tuple[object, int, float]:
        """Time ``fn()`` between ``AROUND_KERNELS`` kernels before and after.

        Returns the result, the raw time (ns) and the calibration factor
        of those kernels alone, for a timing taken outside the timed phase
        (set-up, reopen).
        """
        before = [kernel() for _ in range(AROUND_KERNELS)]
        started = perf_counter_ns()
        result = fn()
        elapsed = perf_counter_ns() - started
        around = before + [kernel() for _ in range(AROUND_KERNELS)]
        self.around_kernels.append(around)
        return result, elapsed, self.factor_of(around)

    def timed_setup(self, build, repeats: int, discard=None):
        """Time ``build()`` ``repeats`` times; returns the last copy.

        Every copy but the last is handed to ``discard`` (untimed) and
        freed before the next one is built; the last one is what the timed
        phase uses.  Each time is calibrated by its own kernels
        (:meth:`timed_once`) into :attr:`setup_ns`.
        """
        result = None
        for repeat in range(repeats):
            if result is not None and discard is not None:
                discard(result)
            result = None
            gc.collect()
            result, raw, self.setup_factor = self.timed_once(build)
            self.setup_raw_ns.append(raw)
            self.setup_ns.append(raw * self.setup_factor)
        return result


def peak_rss_mib() -> float:
    """Peak resident set size of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pin_to(cpu: int | None) -> list[int]:
    """Pin this process to one CPU when possible; returns the affinity set."""
    if cpu is not None and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return []


def load_cpu() -> int | None:
    """The one CPU every process of a run is pinned to.

    The wire workload's client and server share it too.  With one request
    in flight they never run at the same time, and on the reference
    machine a cross-CPU wakeup per request cost more than it saved: over
    four runs of 6000 GETs each, a client and server on different CPUs had
    a GET p50 of 257-304 us and a mean of 358-619 us; on one CPU, 167-235
    us and 174-246 us.
    """
    if not hasattr(os, "sched_getaffinity"):
        return None
    return min(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def filesystem_type(path: str) -> str:
    """Type of the filesystem holding ``path``, from the mount table."""
    target = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def run_context(seed: int, affinity, store_dir: str | None) -> dict:
    """The machine fingerprint printed with every result."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "cpu_model": _cpu_model(),
        "affinity": affinity,
        "store_fs": filesystem_type(store_dir) if store_dir else None,
        "seed": seed,
        "sync_policy": SYNC_POLICY,
        "kernel_reference_ns": KERNEL_REFERENCE_NS,
    }
