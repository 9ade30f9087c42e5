"""E-TRIPLE — Theorem 3 / Corollary 11: all three guarantees at once.

The layered structure ``adaptive ⊳ (randomized ⊳ deamortized)`` must
simultaneously (a) match the adaptive PMA on hammer-insert workloads,
(b) stay within the expected-cost bound on uniform random inputs, and
(c) never show the Θ(n) worst-case spikes of the unprotected algorithms.
A second table times the structure's construction: the outer R-shell's
Θ(n) tokens are bulk-loaded into the inner embedding, one placement each.
"""

from __future__ import annotations

import time

from benchmarks.conftest import emit, expect, measure, scaled
from repro.algorithms import AdaptivePMA, ClassicalPMA, NaiveLabeler
from repro.core import Embedding, make_corollary11_labeler
from repro.core.layered import corollary11_worst_case_bound
from repro.workloads import HammerWorkload, RandomWorkload


def test_corollary11_three_guarantees(run_once):
    n = scaled(1024)

    def experiment():
        rows = []
        for workload_factory in (
            lambda: HammerWorkload(n, seed=5),
            lambda: RandomWorkload(n, n, seed=5),
        ):
            rows.append(measure("adaptive PMA (X alone)", AdaptivePMA(n), workload_factory()))
            rows.append(measure("classical PMA", ClassicalPMA(n), workload_factory()))
            rows.append(measure("naive", NaiveLabeler(n), workload_factory()))
            rows.append(
                measure(
                    "X ⊳ (Y ⊳ Z)  [Corollary 11]",
                    make_corollary11_labeler(n, seed=5),
                    workload_factory(),
                )
            )
        return rows

    rows = run_once(experiment)
    emit(
        "E-TRIPLE (Corollary 11): adaptive ⊳ (randomized ⊳ deamortized), n = %d" % n,
        rows,
        note="Expected shape: on hammer the layered structure tracks the "
        "adaptive PMA; on uniform-random it stays polylog (far below naive); "
        "its worst_case column never approaches n on either workload.",
    )
    hammer = [r for r in rows if r["workload"] == "hammer-insert"]
    random_rows = [r for r in rows if r["workload"] == "uniform-random"]
    layered_hammer = next(r for r in hammer if "Corollary" in r["structure"])
    classical_hammer = next(r for r in hammer if r["structure"] == "classical PMA")
    layered_random = next(r for r in random_rows if "Corollary" in r["structure"])
    naive_random = next(r for r in random_rows if r["structure"] == "naive")
    expect(
        layered_hammer["amortized"] < 1.5 * classical_hammer["amortized"],
        "the layered structure should track the adaptive PMA on hammer",
    )
    expect(
        layered_random["amortized"] < naive_random["amortized"] / 4,
        "the layered structure should stay polylog on uniform random",
    )
    # The worst case is checked against the structure's own Θ(log² n)
    # envelope (the old n/2 recalibration was both loose for large n and
    # wrong at n = 1024, where a legitimate 600-move rebuild spike sits
    # above 512); the envelope itself must stay o(n) at the benchmark size.
    bound = corollary11_worst_case_bound(n)
    expect(bound < n, "the Θ(log² n) envelope must sit below n at the benchmark size")
    expect(
        layered_hammer["worst_case"] < bound,
        "hammer worst case must respect the envelope",
    )
    expect(
        layered_random["worst_case"] < bound,
        "random worst case must respect the envelope",
    )


def test_corollary11_construction_is_linear(run_once, monkeypatch):
    n = scaled(1024)
    inserts = []
    insert = Embedding._insert

    def counting(self, rank, element):
        inserts.append(rank)
        return insert(self, rank, element)

    monkeypatch.setattr(Embedding, "_insert", counting)

    def experiment():
        rows = []
        for capacity in (n // 4, n // 2, n):
            started = time.perf_counter()
            labeler = make_corollary11_labeler(capacity, seed=5)
            elapsed = time.perf_counter() - started
            physical = labeler.physical
            rows.append(
                {
                    "capacity": capacity,
                    "tokens": physical.f_slot_count + physical.buffer_count,
                    "initialization_cost": labeler.shell.initialization_cost,
                    "inner_inserts": len(inserts),
                    "build_ms": round(elapsed * 1e3, 2),
                }
            )
            inserts.clear()
        return rows

    rows = run_once(experiment)
    emit(
        "Corollary 11 construction: the inner embedding bulk-loads the outer tokens",
        rows,
        note="Expected shape: initialization_cost equals tokens (one placement "
        "per token) and no inner insert runs, at every size; build_ms is "
        "printed only.",
    )
    for row in rows:
        # Size-independent, so these stay fatal in quick mode.
        assert row["initialization_cost"] == row["tokens"], row
        assert row["inner_inserts"] == 0, row
