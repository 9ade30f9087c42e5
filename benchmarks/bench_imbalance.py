"""E-IMB — Lemmas 6 and 7: rebuild spans stay o(n), the buffer never fills.

Runs the embedding with a deliberately slow fast-algorithm (the naive
labeler) so that almost every operation takes the slow path, and reports how
long rebuilds run and how full the R-shell buffer ever gets.
"""

from __future__ import annotations

from fractions import Fraction

from benchmarks.conftest import emit, expect, scaled
from repro.algorithms import ClassicalPMA, NaiveLabeler
from repro.core import Embedding


def test_rebuild_spans_and_buffer_occupancy(run_once):
    n = scaled(1024)

    def experiment():
        embedding = Embedding(
            n,
            fast_factory=lambda cap, slots: NaiveLabeler(cap, slots),
            reliable_factory=lambda cap, slots: ClassicalPMA(cap, slots),
            reliable_expected_cost=16,
        )
        key = Fraction(0)
        for _ in range(n):
            embedding.insert(1, key)
            key -= 1
        buffer_slots = embedding.physical.buffer_count
        return [
            {
                "metric": "slow-path operations",
                "value": embedding.slow_operations,
                "bound": f"≤ {n} (all operations)",
            },
            {
                "metric": "rebuilds completed",
                "value": embedding.emulator.rebuilds_completed,
                "bound": "—",
            },
            {
                "metric": "max rebuild span (operations)",
                "value": embedding.emulator.max_rebuild_span,
                "bound": f"o(n) — Lemma 6 (n = {n})",
            },
            {
                "metric": "peak buffered elements",
                "value": embedding.max_buffered_elements,
                "bound": f"≪ εn = {buffer_slots} buffer slots — Lemma 7",
            },
            {
                "metric": "dummy buffer slots remaining (min ≥ 1)",
                "value": embedding.physical.dummy_buffer_count,
                "bound": "> 0 — the halting condition never fires",
            },
        ]

    rows = run_once(experiment)
    emit(
        "E-IMB (Lemmas 6–7): rebuild spans and buffer occupancy under sustained slow path",
        rows,
        note="Expected shape: rebuild spans stay well below n and the peak "
        "buffer occupancy stays well below the εn available buffer slots.",
    )
    metrics = {row["metric"]: row["value"] for row in rows}
    expect(
        metrics["max rebuild span (operations)"] < n / 2,
        "Lemma 6: rebuild spans stay o(n)",
    )
    expect(
        metrics["peak buffered elements"]
        < metrics["dummy buffer slots remaining (min ≥ 1)"] + n // 4,
        "Lemma 7: the buffer never comes close to filling",
    )
