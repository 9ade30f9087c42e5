"""Lemma 4: the R-shell's input is independent of the R-shell's random bits.

The tests record the exact operation sequence the embedding hands to the
R-shell (:func:`tests.conftest.record_shell_input`).  Running the same
original input against embeddings whose reliable algorithm uses *different
random seeds* must produce the very same shell input sequence — the
randomness of R cannot leak back into what R is asked to do.  Changing the *fast* algorithm's behaviour, by contrast, is
allowed to change the trace.
"""

from __future__ import annotations

from fractions import Fraction

from repro.algorithms import AdaptivePMA, NaiveLabeler, RandomizedPMA
from repro.core import Embedding

from tests.conftest import ReferenceDriver, record_shell_input


def build(seed: int, capacity: int = 192, expected_cost: int = 10) -> Embedding:
    return Embedding(
        capacity,
        fast_factory=lambda cap, slots: NaiveLabeler(cap, slots),
        reliable_factory=lambda cap, slots: RandomizedPMA(cap, slots, seed=seed),
        reliable_expected_cost=expected_cost,
    )


def drive(embedding: Embedding, operations: int = 192) -> list[tuple[str, int]]:
    trace = record_shell_input(embedding)
    driver = ReferenceDriver(embedding, seed=123)
    for _ in range(operations):
        driver.random_operation(delete_probability=0.2)
    return trace


class TestLemma4:
    def test_shell_input_identical_across_r_seeds(self):
        traces = [drive(build(seed)) for seed in (1, 2, 3, 99)]
        assert traces[0], "the workload must exercise the slow path"
        for trace in traces[1:]:
            assert trace == traces[0]

    def test_shell_input_depends_on_the_fast_algorithm(self):
        """Sanity check: the trace is not a constant — it reflects F's choices."""
        naive_trace = drive(build(1))
        adaptive = Embedding(
            192,
            fast_factory=lambda cap, slots: AdaptivePMA(cap, slots),
            reliable_factory=lambda cap, slots: RandomizedPMA(cap, slots, seed=1),
            reliable_expected_cost=10,
        )
        adaptive_trace = drive(adaptive)
        assert naive_trace != adaptive_trace

    def test_contents_identical_across_r_seeds(self):
        """The user-visible element order never depends on R's random bits."""
        first, second = build(7), build(11)
        driver_a = ReferenceDriver(first, seed=5)
        driver_b = ReferenceDriver(second, seed=5)
        for _ in range(150):
            driver_a.random_operation(delete_probability=0.25)
            driver_b.random_operation(delete_probability=0.25)
        assert first.elements() == second.elements()
