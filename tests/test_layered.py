"""Tests for the layered composition X ⊳ (Y ⊳ Z) (Theorem 3, Corollaries 11–12)."""

from __future__ import annotations

import pytest

from repro.analysis import run_workload
from repro.algorithms import AdaptivePMA, ClassicalPMA, NaiveLabeler
from repro.core import Embedding, make_corollary11_labeler, make_corollary12_labeler
from repro.core.exceptions import InvariantViolation
from repro.core.layered import (
    LayeredLabeler,
    corollary11_worst_case_bound,
    embedding_factory,
)
from repro.core.physical import PhysicalArray, ReferencePhysicalArray
from repro.workloads import HammerWorkload, PredictedWorkload, RandomWorkload

from tests.conftest import ReferenceDriver


class TestStructure:
    def test_inner_embedding_is_the_shell(self):
        labeler = make_corollary11_labeler(64, seed=1)
        inner = labeler.inner_embedding
        assert isinstance(inner, Embedding)
        assert inner.num_slots == labeler.num_slots

    def test_embedding_factory_respects_prescribed_size(self):
        factory = embedding_factory(
            lambda cap, slots: NaiveLabeler(cap, slots),
            lambda cap, slots: ClassicalPMA(cap, slots),
        )
        built = factory(100, 180)
        assert built.capacity == 100
        assert built.num_slots == 180


class TestCorollary11:
    def test_consistency_on_mixed_workload(self):
        driver = ReferenceDriver(make_corollary11_labeler(96, seed=2), seed=3)
        for step in range(400):
            driver.random_operation(delete_probability=0.25)
            if step % 200 == 0:
                driver.check()
        driver.check()
        driver.labeler.check_consistency()

    def test_check_covers_the_inner_embedding_on_every_op(self):
        """The layered check runs the inner embedding's own check, which
        orders its R-shell tokens by slot: a buffered token is numbered
        after every token but sits among them.  The run reaches outer and
        inner slow operations, and the check holds after every op."""
        labeler = make_corollary11_labeler(96, seed=2)
        driver = ReferenceDriver(labeler, seed=3)
        for _ in range(1_000):
            driver.random_operation()
            labeler.check_consistency()
        assert labeler.inner_embedding.slow_operations > 0
        driver.check()

    def test_check_rejects_a_broken_inner_emulator(self):
        """A live token whose key no longer maps to its name, in the inner
        embedding's emulator, fails the layered check."""
        labeler = make_corollary11_labeler(96, seed=2)
        labeler.check_consistency()
        emulator = labeler.inner_embedding.emulator
        del emulator._name_of[emulator._key_of[0]]
        with pytest.raises(InvariantViolation, match="dead name 0"):
            labeler.check_consistency()

    def test_all_three_guarantees_hold_simultaneously(self):
        """Corollary 11: adaptive on hammer, bounded expected cost on random,
        bounded worst case everywhere — all from one structure."""
        n = 512
        layered_hammer = run_workload(
            make_corollary11_labeler(n, seed=4), HammerWorkload(n, seed=1)
        )
        classical_hammer = run_workload(ClassicalPMA(n), HammerWorkload(n, seed=1))
        layered_random = run_workload(
            make_corollary11_labeler(n, seed=4), RandomWorkload(n, n, seed=1)
        )
        naive_random = run_workload(NaiveLabeler(n), RandomWorkload(n, n, seed=1))

        # Adaptive bound: not worse than the non-adaptive classical PMA.
        assert layered_hammer.amortized_cost < 1.5 * classical_hammer.amortized_cost
        # Expected-cost bound: far cheaper than the naive baseline.
        assert layered_random.amortized_cost < naive_random.amortized_cost / 4
        # Worst-case bound: no Θ(n) spike on either workload.
        assert layered_hammer.worst_case_cost < corollary11_worst_case_bound(n)
        assert layered_random.worst_case_cost < corollary11_worst_case_bound(n)

    def test_worst_case_envelope_regression(self):
        """Regression for the bench_corollary11 bound repair.

        The envelope is the structure's own constants (6·E_Z + 2·E_Y with a
        4/3 margin), so it must (a) hold empirically across seeds at a size
        small enough to run quickly, and (b) grow polylogarithmically — by
        n = 1024 (the benchmark size) it must already sit below n, and the
        bound-to-n ratio must shrink as n doubles.
        """
        n = 256
        bound = corollary11_worst_case_bound(n)
        for seed in (1, 5, 9):
            hammer = run_workload(
                make_corollary11_labeler(n, seed=seed), HammerWorkload(n, seed=seed)
            )
            assert hammer.worst_case_cost < bound
        # Θ(log² n) shape: the envelope falls away from n as n grows.
        ratios = [
            corollary11_worst_case_bound(size) / size
            for size in (1024, 4096, 16384, 65536)
        ]
        assert corollary11_worst_case_bound(1024) < 1024
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[-1] < 0.05

    def test_deadweight_counts_only_live_elements_under_churn(self):
        """Bounded memory: at a steady key count, each layer's per-element
        deadweight map holds live elements only, so it cannot grow with
        the number of operations.  Appends paired with uniform deletes
        keep the outer layer on its slow path, so the inner layer (which
        starts evenly laid out) takes slow-path work and deadweight too."""
        labeler = make_corollary11_labeler(128, seed=7)
        driver = ReferenceDriver(labeler, seed=3)
        for _ in range(96):
            driver.insert(driver.rng.randint(1, len(driver.reference) + 1))
        for _ in range(2000):
            driver.insert(len(driver.reference) + 1)
            driver.delete(driver.rng.randint(1, len(driver.reference)))
        for layer in (labeler, labeler.inner_embedding):
            assert layer.deadweight_moves > 0
            live = set(layer.physical.elements())
            assert set(layer.physical.deadweight_by_element) <= live

    def test_emulator_containers_stay_bounded_under_churn(self):
        """Bounded memory: once each layer has completed more rebuilds than
        it has slots, no container of its emulator holds more entries
        than there are slots."""
        labeler = make_corollary11_labeler(48, seed=7)
        layers = (labeler, labeler.inner_embedding)
        driver = ReferenceDriver(labeler, seed=3)
        for _ in range(36):
            driver.insert(driver.rng.randint(1, len(driver.reference) + 1))
        for _ in range(10_000):
            if all(
                layer.emulator.rebuilds_completed > layer.num_slots
                for layer in layers
            ):
                break
            driver.insert(len(driver.reference) + 1)
            driver.delete(driver.rng.randint(1, len(driver.reference)))
        for layer in layers:
            assert layer.emulator.rebuilds_completed > layer.num_slots
            for name, value in vars(layer.emulator).items():
                if isinstance(value, (list, tuple, dict, set, frozenset)):
                    assert len(value) <= layer.num_slots, name


def _counting_inserts(monkeypatch) -> list:
    """Count every ``Embedding._insert`` call from now on."""
    calls = []
    insert = Embedding._insert

    def counting(self, rank, element):
        calls.append(rank)
        return insert(self, rank, element)

    monkeypatch.setattr(Embedding, "_insert", counting)
    return calls


def _layer_states(labeler: LayeredLabeler) -> list:
    return [
        (list(layer.physical.slots()), list(layer.physical.kinds()))
        for layer in (labeler, labeler.inner_embedding)
    ]


class TestLinearConstruction:
    """The inner embedding is bulk-loaded with the outer R-shell's tokens."""

    def test_build_makes_no_insert_and_one_placement_per_token(self, monkeypatch):
        calls = _counting_inserts(monkeypatch)
        labeler = make_corollary11_labeler(256, seed=7)
        assert calls == []
        tokens = labeler.physical.f_slot_count + labeler.physical.buffer_count
        assert len(labeler.inner_embedding) == tokens
        assert labeler.shell.initialization_cost == tokens
        inner = labeler.inner_embedding
        assert not inner.emulator.has_pending_rebuild
        assert inner.buffered_elements == 0
        assert inner.emulator.rebuilds_started == 0
        labeler.check_consistency()
        inner.check_consistency()

    def test_slab_and_reference_agree_after_construction(self):
        for capacity in (48, 256):
            slab = make_corollary11_labeler(capacity, seed=5)
            oracle = make_corollary11_labeler(
                capacity, seed=5, physical_factory=ReferencePhysicalArray
            )
            assert isinstance(slab.inner_embedding.physical, PhysicalArray)
            assert isinstance(oracle.inner_embedding.physical, ReferencePhysicalArray)
            assert _layer_states(slab) == _layer_states(oracle)

    def test_slab_and_reference_agree_after_elements_restore(self):
        source = make_corollary11_labeler(96, seed=5)
        driver = ReferenceDriver(source, seed=4)
        for _ in range(150):
            driver.random_operation(delete_probability=0.3)
        state = source.snapshot()
        assert state["format"] == "elements"
        slab = make_corollary11_labeler(96, seed=5)
        oracle = make_corollary11_labeler(
            96, seed=5, physical_factory=ReferencePhysicalArray
        )
        slab.restore(state)
        oracle.restore(state)
        assert slab.elements() == oracle.elements() == driver.reference
        assert _layer_states(slab) == _layer_states(oracle)
        oracle.check_consistency()
        # The restored twins keep moving in lockstep.
        for rank in (1, len(driver.reference) + 1, 40):
            key = driver.key_for(rank)
            driver.reference.insert(rank - 1, key)
            assert list(slab.insert(rank, key).moves) == list(
                oracle.insert(rank, key).moves
            )
        assert _layer_states(slab) == _layer_states(oracle)


class TestCorollary12:
    def test_prediction_quality_drives_cost(self):
        n = 384
        good = PredictedWorkload(n, eta=1, seed=5)
        bad = PredictedWorkload(n, eta=n // 2, seed=5)
        good_run = run_workload(
            make_corollary12_labeler(n, good.predictor, seed=6), good
        )
        bad_run = run_workload(
            make_corollary12_labeler(n, bad.predictor, seed=6), bad
        )
        assert good_run.amortized_cost <= bad_run.amortized_cost
        # Even with terrible predictions the worst case stays far from Θ(n).
        assert bad_run.worst_case_cost < n / 2

    def test_consistency(self):
        n = 128
        workload = PredictedWorkload(n, eta=4, seed=7)
        labeler = make_corollary12_labeler(n, workload.predictor, seed=8)
        result = run_workload(labeler, workload, validate_every=64)
        labeler.check_consistency()
        assert result.tracker.operations == n


class TestCustomComposition:
    def test_three_custom_factories(self):
        labeler = LayeredLabeler(
            64,
            adaptive_factory=lambda cap, slots: AdaptivePMA(cap, slots),
            expected_factory=lambda cap, slots: ClassicalPMA(cap, slots),
            worst_case_factory=lambda cap, slots: ClassicalPMA(cap, slots),
        )
        driver = ReferenceDriver(labeler, seed=9)
        for _ in range(200):
            driver.random_operation()
        driver.check()
        labeler.check_consistency()
