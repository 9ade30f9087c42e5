"""Tests for the embedding ``F ⊳ R`` (Section 3, Theorem 2) and its lemmas."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    AdaptivePMA,
    ClassicalPMA,
    DeamortizedPMA,
    NaiveLabeler,
    RandomizedPMA,
)
from repro.algorithms.predictions import ExactPredictor
from repro.core import Embedding, make_corollary12_labeler
from repro.core.exceptions import CapacityError, InvariantViolation, LabelerError
from repro.core.layered import LayeredLabeler
from repro.core.physical import BUFFER, F_SLOT, R_EMPTY

from tests.conftest import COMPOSITE_FACTORIES, ReferenceDriver


def adaptive_classical(capacity: int, **kwargs) -> Embedding:
    return Embedding(
        capacity,
        fast_factory=lambda cap, slots: AdaptivePMA(cap, slots),
        reliable_factory=lambda cap, slots: ClassicalPMA(cap, slots),
        **kwargs,
    )


def naive_classical(capacity: int, **kwargs) -> Embedding:
    kwargs.setdefault("reliable_expected_cost", 32)
    return Embedding(
        capacity,
        fast_factory=lambda cap, slots: NaiveLabeler(cap, slots),
        reliable_factory=lambda cap, slots: ClassicalPMA(cap, slots),
        **kwargs,
    )


class TestConstruction:
    def test_slot_budget_matches_paper(self):
        """Array of (1+3ε)n slots: (1+ε)n F-slots, εn buffers, εn R-empty."""
        embedding = adaptive_classical(200, epsilon=0.25)
        kinds = embedding.physical.kinds()
        f_slots = sum(1 for kind in kinds if kind == F_SLOT)
        buffers = sum(1 for kind in kinds if kind == BUFFER)
        empty = sum(1 for kind in kinds if kind == R_EMPTY)
        assert f_slots == embedding.emulator.simulated.num_slots
        assert f_slots >= int(1.25 * 200)
        assert buffers >= int(0.25 * 200)
        assert empty >= int(0.25 * 200)
        assert f_slots + buffers + empty == embedding.num_slots

    def test_prescribed_num_slots(self):
        embedding = adaptive_classical(100, num_slots=160)
        assert embedding.num_slots == 160

    def test_too_little_slack_rejected(self):
        with pytest.raises(ValueError):
            adaptive_classical(100, num_slots=103)

    def test_capacity_enforced(self):
        embedding = adaptive_classical(4)
        for index in range(4):
            embedding.insert(index + 1, Fraction(index))
        with pytest.raises(CapacityError):
            embedding.insert(1, Fraction(-1))

    def test_default_expected_cost_is_log_squared(self):
        embedding = adaptive_classical(1024)
        assert embedding.e_r == pytest.approx(math.log2(1024) ** 2, rel=0.2)


class TestFastAndSlowPaths:
    def test_cheap_operations_take_fast_path(self):
        embedding = adaptive_classical(64)
        for index in range(20):
            embedding.insert(index + 1, Fraction(index))
        assert embedding.fast_operations == 20
        assert embedding.slow_operations == 0
        assert embedding.buffered_elements == 0

    def test_expensive_operations_are_buffered(self):
        embedding = naive_classical(256, reliable_expected_cost=8)
        driver = ReferenceDriver(embedding, seed=1)
        for _ in range(256):
            driver.insert(1)  # front insertions are Θ(n) for the naive F
        assert embedding.slow_operations > 0
        assert embedding.emulator.rebuilds_started > 0
        driver.check()
        embedding.check_consistency()

    def test_worst_case_cost_bounded_by_shell(self):
        """Theorem 2, worst-case cost: the embedding's spikes are O(W_R).

        The classical PMA on its own suffers Θ(n) rebalance spikes; embedded
        into a worst-case-bounded R (the deamortized PMA) those spikes are
        buffered and the embedding's worst operation stays far below them.
        """
        from repro.analysis import run_workload
        from repro.workloads import RandomWorkload

        capacity = 1024
        alone = run_workload(
            ClassicalPMA(capacity), RandomWorkload(capacity, capacity, seed=2)
        )
        embedding = Embedding(
            capacity,
            fast_factory=lambda cap, slots: ClassicalPMA(cap, slots),
            reliable_factory=lambda cap, slots: DeamortizedPMA(cap, slots),
        )
        embedded = run_workload(embedding, RandomWorkload(capacity, capacity, seed=2))
        assert embedded.worst_case_cost < alone.worst_case_cost / 2
        assert embedded.amortized_cost < 3 * alone.amortized_cost

    def test_amortized_cost_bounded_by_shell(self):
        """Theorem 2, general cost: amortized cost is O(E_R) even when F is bad."""
        capacity = 512
        embedding = naive_classical(capacity, reliable_expected_cost=16)
        driver = ReferenceDriver(embedding, seed=3)
        total = sum(driver.insert(1) for _ in range(capacity))
        naive_amortized = capacity / 2  # what F alone would pay per operation
        assert total / capacity < naive_amortized / 4

    def test_good_case_follows_fast_algorithm(self):
        """Theorem 2, good-case cost: when F is cheap the embedding is cheap."""
        capacity = 512
        embedding = adaptive_classical(capacity)
        driver = ReferenceDriver(embedding, seed=4)
        for _ in range(capacity):
            driver.insert(len(driver.reference) + 1)
        assert embedding.fast_operations > 0.9 * capacity
        driver.check()


class TestInvariants:
    @pytest.mark.parametrize("name", sorted(COMPOSITE_FACTORIES))
    def test_mixed_workload_consistency(self, name):
        driver = ReferenceDriver(COMPOSITE_FACTORIES[name](96), seed=7)
        for step in range(400):
            driver.random_operation(delete_probability=0.3)
            if step % 100 == 0:
                driver.check()
                driver.labeler.check_consistency()
        driver.check()
        driver.labeler.check_consistency()

    @pytest.mark.parametrize("name", sorted(COMPOSITE_FACTORIES))
    def test_mixed_workload_consistency_with_key_reuse(self, name):
        """Every delete puts its key straight back at the rank it left."""
        driver = ReferenceDriver(COMPOSITE_FACTORIES[name](96), seed=7, reuse=True)
        for step in range(400):
            driver.random_operation(delete_probability=0.5)
            if step % 100 == 0:
                driver.check()
                driver.labeler.check_consistency()
        driver.check()
        driver.labeler.check_consistency()

    def test_lemma5_deadweight_bounded_per_element(self):
        """Lemma 5: every element suffers O(1) deadweight moves."""
        embedding = naive_classical(384, reliable_expected_cost=12)
        driver = ReferenceDriver(embedding, seed=5)
        for _ in range(384):
            driver.insert(driver.rng.randint(1, len(driver.reference) + 1))
        per_element = embedding.physical.deadweight_by_element
        assert max(per_element.values(), default=0) <= 8

    def test_lemma6_rebuild_spans_are_sublinear(self):
        """Lemma 6: each rebuild completes within o(n) operations."""
        capacity = 384
        embedding = naive_classical(capacity, reliable_expected_cost=12)
        driver = ReferenceDriver(embedding, seed=6)
        for _ in range(capacity):
            driver.insert(1)
        emulator = embedding.emulator
        assert emulator.rebuilds_completed > 0, "the workload must have triggered rebuilds"
        assert emulator.max_rebuild_span < capacity / 2

    def test_lemma7_buffer_never_exhausted(self):
        """Lemma 7: buffered elements stay o(n) and never exhaust the buffer."""
        capacity = 384
        embedding = naive_classical(capacity, reliable_expected_cost=12)
        driver = ReferenceDriver(embedding, seed=7)
        for _ in range(capacity):
            driver.insert(1)
        assert embedding.max_buffered_elements < capacity // 4
        assert embedding.physical.dummy_buffer_count > 0

    def test_deletions_with_ghosts(self):
        embedding = naive_classical(128, reliable_expected_cost=8)
        driver = ReferenceDriver(embedding, seed=8)
        for _ in range(128):
            driver.insert(1)
        for _ in range(64):
            driver.delete(driver.rng.randint(1, len(driver.reference)))
        driver.check()
        embedding.check_consistency()

    def test_settled_emulator_must_equal_f(self):
        """With no rebuild pending, ``Ẽ_F`` equals the simulated copy of F,
        which lets a slow operation start a rebuild without a divergence
        test: an F that moved one element on its own is refused."""
        embedding = naive_classical(32)
        embedding.bulk_load([Fraction(index) for index in range(8)])
        embedding.check_consistency()
        simulated = embedding.emulator.simulated
        slots = simulated.slots()
        index = next(
            i for i in range(len(slots) - 1) if slots[i] is not None and slots[i + 1] is None
        )
        simulated._move(index, index + 1)
        assert not embedding.emulator.has_pending_rebuild
        with pytest.raises(InvariantViolation, match="no rebuild is pending"):
            embedding.check_consistency()

    @pytest.mark.parametrize("seed", range(10))
    def test_reused_keys_are_not_their_ghosts(self, seed):
        """A key deleted on the slow path leaves a ghost; putting the same
        key straight back makes a new element, not the ghost again."""
        embedding = naive_classical(48, reliable_expected_cost=4)
        driver = ReferenceDriver(embedding, seed=seed, reuse=True)
        for _ in range(36):
            driver.insert(driver.rng.randint(1, len(driver.reference) + 1))
        ghosts_seen = 0
        for step in range(300):
            driver.delete(driver.rng.randint(1, len(driver.reference)))
            ghosts_seen += bool(embedding.emulator.ghosts)
            if step % 50 == 0:
                embedding.check_consistency()
        assert ghosts_seen
        embedding.check_consistency()
        driver.check()

    def test_render_views_shapes(self):
        embedding = adaptive_classical(32)
        driver = ReferenceDriver(embedding, seed=9)
        for _ in range(20):
            driver.random_operation(delete_probability=0.2)
        views = embedding.render_views()
        assert len(views["embedding"]) == embedding.num_slots
        assert len(views["f_emulator"]) == embedding.emulator.simulated.num_slots
        assert len(views["r_shell"]) == embedding.num_slots


#: name -> factory(capacity) for every embedding the bulk-load tests cover:
#: the suite's composite embeddings, Corollary 12 and a layered structure
#: over classical layers.
BULK_LOAD_FACTORIES = {
    **{
        name: factory
        for name, factory in COMPOSITE_FACTORIES.items()
        if not name.startswith("sharded")
    },
    "corollary12": lambda capacity: make_corollary12_labeler(
        capacity, ExactPredictor(range(capacity)), seed=3
    ),
    "layered(classical)": lambda capacity: LayeredLabeler(
        capacity,
        adaptive_factory=lambda cap, slots: ClassicalPMA(cap, slots),
        expected_factory=lambda cap, slots: ClassicalPMA(cap, slots),
        worst_case_factory=lambda cap, slots: ClassicalPMA(cap, slots),
    ),
}


def embedding_layers(embedding: Embedding) -> list[Embedding]:
    """The embedding and every embedding nested as its R-shell."""
    layers = [embedding]
    while isinstance(layers[-1].shell.reliable, Embedding):
        layers.append(layers[-1].shell.reliable)
    return layers


class TestBulkLoad:
    CAPACITY = 64

    @pytest.mark.parametrize("count", [0, 1, CAPACITY // 2, CAPACITY])
    @pytest.mark.parametrize("name", sorted(BULK_LOAD_FACTORIES))
    def test_loads_settled_and_stays_consistent(self, name, count):
        embedding = BULK_LOAD_FACTORIES[name](self.CAPACITY)
        keys = [Fraction(index) for index in range(count)]
        assert embedding.bulk_load(keys) == count
        assert embedding.elements() == keys
        embedding.check_consistency()
        for layer in embedding_layers(embedding):
            assert not layer.emulator.has_pending_rebuild
            assert layer.buffered_elements == 0
            assert layer.fast_operations == layer.slow_operations == 0
            assert layer.emulator.rebuilds_started == 0
            assert layer.deadweight_moves == 0
        driver = ReferenceDriver(embedding, seed=count)
        driver.reference = list(keys)
        for _ in range(150):
            driver.random_operation(delete_probability=0.4)
        driver.check()
        embedding.check_consistency()

    @pytest.mark.parametrize("name", sorted(BULK_LOAD_FACTORIES))
    def test_raises_before_placing_anything(self, name):
        embedding = BULK_LOAD_FACTORIES[name](self.CAPACITY)
        with pytest.raises(CapacityError):
            embedding.bulk_load([Fraction(index) for index in range(self.CAPACITY + 1)])
        assert len(embedding) == 0
        assert embedding.physical.element_count == 0
        assert len(embedding.emulator.simulated) == 0
        embedding.insert(1, Fraction(1))
        before = list(embedding.physical.slots())
        with pytest.raises(LabelerError):
            embedding.bulk_load([Fraction(2)])
        assert list(embedding.physical.slots()) == before
        assert len(embedding.emulator.simulated) == 1
        embedding.check_consistency()

    def test_emptied_embedding_loads_again(self):
        """The last deletion leaves no ghost and no pending rebuild (its
        rebuild work moves no element), so an emptied embedding loads."""
        embedding = naive_classical(64, reliable_expected_cost=4)
        driver = ReferenceDriver(embedding, seed=2)
        for _ in range(40):
            driver.insert(1)
        while driver.reference:
            driver.delete(driver.rng.randint(1, len(driver.reference)))
        assert embedding.slow_operations > 0
        keys = [Fraction(index) for index in range(30)]
        assert embedding.bulk_load(keys) == 30
        assert embedding.elements() == keys
        assert not embedding.emulator.has_pending_rebuild
        assert not embedding.emulator.ghosts
        embedding.check_consistency()


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_property_embedding_matches_reference(data):
    """Random operation sequences keep the embedding equal to the model."""
    capacity = data.draw(st.integers(min_value=8, max_value=48), label="capacity")
    expected_cost = data.draw(st.integers(min_value=2, max_value=30), label="E_R")
    embedding = Embedding(
        capacity,
        fast_factory=lambda cap, slots: NaiveLabeler(cap, slots),
        reliable_factory=lambda cap, slots: RandomizedPMA(cap, slots, seed=5),
        reliable_expected_cost=expected_cost,
    )
    driver = ReferenceDriver(embedding)
    length = data.draw(st.integers(min_value=1, max_value=80), label="length")
    for index in range(length):
        size = len(driver.reference)
        do_delete = size > 0 and (
            size >= capacity or data.draw(st.booleans(), label=f"delete-{index}")
        )
        if do_delete:
            driver.delete(data.draw(st.integers(1, size), label=f"rank-{index}"))
        else:
            driver.insert(data.draw(st.integers(1, size + 1), label=f"rank-{index}"))
    driver.check()
    embedding.check_consistency()
