"""The performance subsystem: recorded traces, scenarios, and baselines.

``repro.perf`` makes the cost model a *tracked artifact* instead of an
anecdote: every number it records is an exact quantity of a seeded run
(element moves, counts, correctness flags), never a timing.  Wall-clock
time is measured by the repository benchmark (``perfbench/``) and, on a
live server, by the ``service.latency.*`` histograms of
:mod:`repro.obs`.  It has three layers:

* :mod:`repro.perf.trace` — record the physical-array operation sequence an
  embedding run produces (:class:`TracingPhysicalArray`) and replay it
  verbatim on any physical-array implementation.  Replays are what the
  differential suite compares move-for-move and what
  ``benchmarks/bench_wire_speed.py`` times: the *same* operation sequence
  is executed on the slab-backed :class:`repro.core.physical.PhysicalArray`
  and on the seed's
  :class:`repro.core.physical_reference.ReferencePhysicalArray`.
* :mod:`repro.perf.scenarios` — deterministic, seeded scenarios (singleton
  insert-heavy, sparse chain moves, batched bulk load, sharded mixed
  traffic, zipfian hammer, durable and served traffic, …).  Every
  scenario returns a flat metric dict that is bit-identical for a given
  seed.
* :mod:`repro.perf.baseline` — schema-versioned ``BENCH_<suite>.json``
  files at the repository root, plus the comparator that diffs a fresh run
  against the committed baseline (move-count regressions and false
  correctness flags fail, any other drift warns).

Refresh the committed baselines with ``python -m repro.perf generate`` and
check a working tree against them with ``python -m repro.perf compare
--quick`` (what CI's ``bench-baseline`` job runs).
"""

from repro.perf.baseline import (
    BaselineComparison,
    SCHEMA_VERSION,
    baseline_filename,
    compare_baselines,
    generate_suite,
    load_baseline,
    write_baseline,
)
from repro.perf.scenarios import CORE_SCENARIOS, SHARDED_SCENARIOS, ScenarioSpec
from repro.perf.trace import (
    PhysicalTrace,
    TracingPhysicalArray,
    record_insert_heavy_trace,
    replay_trace,
)

__all__ = [
    "BaselineComparison",
    "CORE_SCENARIOS",
    "PhysicalTrace",
    "SCHEMA_VERSION",
    "SHARDED_SCENARIOS",
    "ScenarioSpec",
    "TracingPhysicalArray",
    "baseline_filename",
    "compare_baselines",
    "generate_suite",
    "load_baseline",
    "record_insert_heavy_trace",
    "replay_trace",
    "write_baseline",
]
