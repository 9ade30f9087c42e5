"""E-IIF — Lemma 4: the R-shell's input is independent of R's random bits."""

from __future__ import annotations

from benchmarks.conftest import emit, scaled
from repro.algorithms import NaiveLabeler, RandomizedPMA
from repro.analysis import run_workload
from repro.core import Embedding
from repro.workloads import RandomWorkload
from tests.conftest import record_shell_input


def test_shell_input_identical_across_reliable_seeds(run_once):
    # Lemma 4 is a determinism claim, valid at any size — its assertions
    # below stay hard even in quick mode.
    n = scaled(512)
    seeds = [1, 2, 3, 5, 8, 13]

    def experiment():
        traces = {}
        costs = {}
        for seed in seeds:
            embedding = Embedding(
                n,
                fast_factory=lambda cap, slots: NaiveLabeler(cap, slots),
                reliable_factory=lambda cap, slots: RandomizedPMA(cap, slots, seed=seed),
                reliable_expected_cost=12,
            )
            trace = record_shell_input(embedding)
            run = run_workload(embedding, RandomWorkload(n, n, delete_fraction=0.2, seed=77))
            traces[seed] = tuple(trace)
            costs[seed] = run.amortized_cost
        return traces, costs

    traces, costs = run_once(experiment)
    reference = traces[seeds[0]]
    rows = [
        {
            "R seed": seed,
            "shell operations": len(traces[seed]),
            "trace identical to seed 1": traces[seed] == reference,
            "embedding amortized cost": costs[seed],
        }
        for seed in seeds
    ]
    emit(
        "E-IIF (Lemma 4): R-shell input sequence across R random seeds, n = %d" % n,
        rows,
        note="Expected shape: the shell receives the exact same operation "
        "sequence for every seed (the costs may differ — that is R's own "
        "randomness at work), so R's randomness never feeds back into R's input.",
    )
    assert len(reference) > 0
    assert all(row["trace identical to seed 1"] for row in rows)
