"""Wire-speed experiment: the slab physical array vs the seed reference.

Replays identical recorded physical traces (insert-heavy embedding traffic
and sparse chain moves — see :mod:`repro.perf.scenarios`) on the
slab-backed :class:`repro.core.physical.PhysicalArray` and the seed's
:class:`repro.core.physical_reference.ReferencePhysicalArray`, then checks
the claims the committed ``BENCH_core.json`` baseline records:

* move logs are bit-identical across the two (a hard assertion at every
  size), and
* the slab rewrite wins on wall-clock — ≥ 1.5× over the reference on the
  insert-heavy scenario at real size, and the select-walk ≥ 2× on sparse
  chain moves (shape claims, demoted to notes in quick mode where constant
  factors dominate).
"""

from __future__ import annotations

from benchmarks.conftest import emit, expect, scaled

from repro.perf.scenarios import run_chain_sparse, run_insert_heavy


def backend_rows(scenario, n, metrics):
    """One table row per backend present in a scenario's metrics."""
    return [
        {
            "scenario": scenario,
            "backend": "reference",
            "n": n,
            "elapsed_s": metrics["reference_elapsed_seconds"],
            "speedup_vs_ref": 1.0,
        },
        {
            "scenario": scenario,
            "backend": "slab",
            "n": n,
            "elapsed_s": metrics["elapsed_seconds"],
            "speedup_vs_ref": metrics["speedup"],
        },
    ]


def test_wire_speed_insert_heavy(run_once):
    n = scaled(4096)
    metrics = run_once(lambda: run_insert_heavy(n, seed=20260730))
    emit(
        "E-WIRE: physical-array backends, insert-heavy trace "
        f"(trace_ops={metrics['trace_ops']}, moves={metrics['moves']})",
        backend_rows("insert_heavy", n, metrics),
    )
    assert metrics["moves_match"], "slab and reference move logs diverged"
    assert metrics["moves"] == metrics["reference_moves"]
    expect(
        metrics["speedup"] >= 1.5,
        f"slab speedup {metrics['speedup']:.2f}x < 1.5x on insert-heavy "
        f"(n={n})",
    )


def test_wire_speed_chain_sparse(run_once):
    n = scaled(2048)
    metrics = run_once(lambda: run_chain_sparse(n, seed=20260730))
    emit(
        "E-WIRE: chain moves across a sparse array (select-walk vs scan, "
        f"chains={metrics['operations']})",
        backend_rows("chain_sparse", n, metrics),
    )
    assert metrics["moves_match"], "slab and reference move logs diverged"
    expect(
        metrics["speedup"] >= 2.0,
        f"select-walk speedup {metrics['speedup']:.2f}x < 2x on the sparse "
        f"chain scenario (n={n})",
    )


if __name__ == "__main__":  # pragma: no cover - manual run helper
    print(run_insert_heavy(scaled(4096), seed=20260730))
    print(run_chain_sparse(scaled(2048), seed=20260730))
