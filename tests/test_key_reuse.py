"""Key reuse: a key deleted and put straight back, through every layer.

Section 3 of the paper treats elements as distinct, and it keeps an
element deleted on the slow path in the F-emulator's array ``Ẽ_F`` as a
*ghost* until a rebuild catches up.  A key put back while its ghost still
lives is a new element with an equal key, and the emulator must not take
it for the ghost.  Each probe below churns a structure by deleting a live
key (half the time one of the newest) and, most of the time, putting the
same key straight back, with the structure's own checks run along the way.

Tier-1 runs a few seeds per probe; ``REPRO_STORE_EXHAUSTIVE=1`` (the CI
``store-recovery`` job) runs 100.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.algorithms import AdaptivePMA, ClassicalPMA
from repro.applications.ordered_map import PackedMemoryMap
from repro.core.embedding import Embedding
from repro.core.layered import make_corollary11_labeler
from repro.store import DurableStore
from repro.store.factories import SHARD_FACTORIES

EXHAUSTIVE = os.environ.get("REPRO_STORE_EXHAUSTIVE", "") not in ("", "0")
SEEDS = range(100) if EXHAUSTIVE else range(10)

#: Chance that a deleted key is put straight back.
REUSE = 0.7
#: "Newest" keys: a delete picks one of these half the time.
NEWEST = 8


def reuse_churn(put, delete, model: dict, rng: random.Random, ops: int, *, check, every: int):
    """Run ``ops`` delete-and-reuse steps through ``put(key, value)`` and
    ``delete(key)``, keeping the dict ``model`` in step.

    Each step deletes a live key, half the time one of the ``NEWEST``
    most recently put.  With probability ``REUSE`` it then puts the same
    key straight back; otherwise it puts the first integer above the
    largest live key.  ``check()`` runs every ``every`` steps.
    """
    order = list(model)  # keys in the order they were put
    for step in range(1, ops + 1):
        if rng.random() < 0.5:
            key = rng.choice(order[-NEWEST:])
        else:
            key = rng.choice(order)
        delete(key)
        del model[key]
        order.remove(key)
        if rng.random() >= REUSE:
            key = max(model) + 1
        put(key, step)
        model[key] = step
        order.append(key)
        if step % every == 0:
            check()


def preloaded(index: PackedMemoryMap, count: int) -> dict:
    model = {key: -key for key in range(count)}
    index.update_many(model.items())
    return model


def churned_map(index: PackedMemoryMap, keys: int, seed: int, ops: int, every: int) -> None:
    model = preloaded(index, keys)
    reuse_churn(
        index.__setitem__, index.__delitem__, model, random.Random(seed), ops,
        check=index.check, every=every,
    )
    index.labeler.check_consistency()
    assert list(index.items()) == sorted(model.items())


@pytest.mark.parametrize("seed", SEEDS)
def test_corollary11_map_survives_key_reuse(seed):
    """A bounded Corollary 11 map of capacity 256, 192 keys, 1,500 steps."""
    index = PackedMemoryMap(256, lambda capacity: make_corollary11_labeler(capacity, seed=seed))
    churned_map(index, 192, seed, 1_500, every=50)


@pytest.mark.parametrize("seed", SEEDS)
def test_default_map_survives_key_reuse(seed):
    """The default map (Corollary 11 shards of 128), 500 keys, 3,000 steps."""
    churned_map(PackedMemoryMap(), 500, seed, 3_000, every=100)


@pytest.mark.parametrize("algorithm", sorted(SHARD_FACTORIES))
def test_every_shard_algorithm_takes_reused_keys(algorithm):
    """Maps over shards of 32 of every registered algorithm, 300 keys."""
    index = PackedMemoryMap(None, SHARD_FACTORIES[algorithm], shard_capacity=32)
    churned_map(index, 300, 1, 1_500, every=100)


@pytest.mark.parametrize("seed", SEEDS)
def test_corollary11_store_survives_key_reuse_and_reopen(seed, tmp_path):
    """A Corollary 11 store under the same churn verifies, reopens and
    verifies again, holding exactly the model's items."""
    directory = tmp_path / "store"
    with DurableStore(directory, algorithm="corollary11", sync_policy="never") as store:
        model = {key: -key for key in range(500)}
        store.put_many(model.items())
        reuse_churn(
            store.put, store.delete, model, random.Random(seed), 1_500,
            check=store.verify, every=250,
        )
        store.verify()
    with DurableStore(directory, sync_policy="never") as store:
        store.verify()
        assert list(store.items()) == sorted(model.items())


@pytest.mark.parametrize("seed", SEEDS)
def test_adaptive_in_classical_map_survives_reused_keys(seed):
    """``PackedMemoryMap(48)`` over ``adaptive ⊳ classical`` at E_R = 4,
    putting and deleting 60 int keys: every key is used again and again."""

    def factory(capacity):
        return Embedding(
            capacity,
            lambda cap, slots: AdaptivePMA(cap, slots),
            lambda cap, slots: ClassicalPMA(cap, slots),
            reliable_expected_cost=4,
        )

    index = PackedMemoryMap(48, factory)
    model: dict = {}
    rng = random.Random(seed)
    for step in range(1, 3_001):
        key = rng.randrange(60)
        if key in model:
            del index[key]
            del model[key]
        elif len(model) < 48:
            index[key] = step
            model[key] = step
        if step % 100 == 0:
            index.check()
    index.labeler.check_consistency()
    assert list(index.items()) == sorted(model.items())


def test_name_tables_stay_bounded_under_reuse():
    """No structure grows per operation at a steady key count: over 20,000
    delete-and-reuse steps on a Corollary 11 map, each layer's emulator
    holds no more names than its live elements, its ghosts and its pending
    plan's names, checked every 1,000 steps."""
    index = PackedMemoryMap(256, lambda capacity: make_corollary11_labeler(capacity, seed=1))
    model = preloaded(index, 192)
    layers = (index.labeler, index.labeler.inner_embedding)

    def bounded():
        for layer in layers:
            emulator = layer.emulator
            held = len(emulator.plan_targets)
            assert emulator.names_in_use <= len(layer) + len(emulator.ghosts) + held

    reuse_churn(
        index.__setitem__, index.__delitem__, model, random.Random(1), 20_000,
        check=bounded, every=1_000,
    )
