"""Wire-speed experiment: the slab physical array vs the seed reference.

Replays identical recorded physical traces (insert-heavy embedding traffic
and sparse chain moves — see :mod:`repro.perf.scenarios`) on the
slab-backed :class:`repro.core.physical.PhysicalArray` and the seed's
:class:`repro.core.physical_reference.ReferencePhysicalArray`, timing each
replay here (best of 2), and checks:

* move logs are bit-identical across the two (a hard assertion at every
  size), and
* the slab rewrite wins on wall-clock — ≥ 1.5× over the reference on the
  insert-heavy scenario at real size, and the select-walk ≥ 2× on sparse
  chain moves (shape claims, demoted to notes in quick mode where constant
  factors dominate).
"""

from __future__ import annotations

import math
import time

from benchmarks.conftest import emit, expect, scaled

from repro.core.operations import MoveRecorder, move_triples
from repro.core.physical import PhysicalArray, ReferencePhysicalArray
from repro.perf.scenarios import record_chain_sparse_trace
from repro.perf.trace import record_insert_heavy_trace, replay_trace

SEED = 20260730

#: Best-of repeats per array, to damp scheduler noise.
REPEATS = 2


def _timed_replay(factory, sink_factory, trace, num_slots):
    """Best-of-:data:`REPEATS` replay time and the last replay's sink."""
    best = math.inf
    for _ in range(REPEATS):
        array = factory(num_slots)
        sink = sink_factory()
        array.move_sink = sink
        started = time.perf_counter()
        replay_trace(trace, array)
        best = min(best, time.perf_counter() - started)
        array.move_sink = None
    return best, sink


def _race(trace, num_slots) -> dict:
    """Time both arrays on ``trace`` and compare their move logs."""
    reference_seconds, moves = _timed_replay(
        ReferencePhysicalArray, list, trace, num_slots
    )
    slab_seconds, recorder = _timed_replay(
        PhysicalArray, MoveRecorder, trace, num_slots
    )
    return {
        "trace_ops": len(trace),
        "moves": recorder.total_cost,
        "moves_match": move_triples(moves) == recorder.triples(),
        "reference_seconds": reference_seconds,
        "slab_seconds": slab_seconds,
        "speedup": reference_seconds / slab_seconds,
    }


def _rows(scenario, n, metrics):
    """One table row per array."""
    return [
        {
            "scenario": scenario,
            "array": "reference",
            "n": n,
            "elapsed_s": metrics["reference_seconds"],
            "speedup_vs_ref": 1.0,
        },
        {
            "scenario": scenario,
            "array": "slab",
            "n": n,
            "elapsed_s": metrics["slab_seconds"],
            "speedup_vs_ref": metrics["speedup"],
        },
    ]


def test_wire_speed_insert_heavy(run_once):
    n = scaled(4096)
    trace, num_slots = record_insert_heavy_trace(n, SEED)
    metrics = run_once(lambda: _race(trace, num_slots))
    emit(
        "E-WIRE: physical arrays, insert-heavy trace "
        f"(trace_ops={metrics['trace_ops']}, moves={metrics['moves']})",
        _rows("insert_heavy", n, metrics),
    )
    assert metrics["moves_match"], "slab and reference move logs diverged"
    expect(
        metrics["speedup"] >= 1.5,
        f"slab speedup {metrics['speedup']:.2f}x < 1.5x on insert-heavy "
        f"(n={n})",
    )


def test_wire_speed_chain_sparse(run_once):
    n = scaled(2048)
    trace, num_slots, chains = record_chain_sparse_trace(n, SEED)
    metrics = run_once(lambda: _race(trace, num_slots))
    emit(
        "E-WIRE: chain moves across a sparse array (select-walk vs scan, "
        f"chains={chains})",
        _rows("chain_sparse", n, metrics),
    )
    assert metrics["moves_match"], "slab and reference move logs diverged"
    expect(
        metrics["speedup"] >= 2.0,
        f"select-walk speedup {metrics['speedup']:.2f}x < 2x on the sparse "
        f"chain scenario (n={n})",
    )
