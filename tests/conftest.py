"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from repro.algorithms import AdaptivePMA, ClassicalPMA, NaiveLabeler
from repro.core import Embedding, ShardedLabeler
from repro.core.layered import make_corollary11_labeler
from repro.core.operations import MoveRecorder
from repro.core.validation import check_labeler
from repro.store.factories import EXACT_SNAPSHOT_ALGORITHMS, SHARD_FACTORIES

#: name -> factory(capacity) for every standalone algorithm — one registry
#: with the durable store (same names, same seeds), so the crash-recovery
#: differential and the algorithm suites always cover the same universe.
ALGORITHM_FACTORIES = {
    name: SHARD_FACTORIES[name] for name in EXACT_SNAPSHOT_ALGORITHMS
}

#: name -> factory(capacity) for the composite structures of the paper.
COMPOSITE_FACTORIES = {
    "embedding(adaptive<|classical)": lambda capacity: Embedding(
        capacity,
        fast_factory=lambda cap, slots: AdaptivePMA(cap, slots),
        reliable_factory=lambda cap, slots: ClassicalPMA(cap, slots),
    ),
    "embedding(naive<|classical)": lambda capacity: Embedding(
        capacity,
        fast_factory=lambda cap, slots: NaiveLabeler(cap, slots),
        reliable_factory=lambda cap, slots: ClassicalPMA(cap, slots),
        reliable_expected_cost=32,
    ),
    "corollary11": lambda capacity: make_corollary11_labeler(capacity, seed=7),
    # The sharding engine is unbounded; ``capacity`` only sizes its shards
    # so that runs at the suite's usual sizes cross shard boundaries.
    "sharded(classical)": lambda capacity: ShardedLabeler(
        lambda cap: ClassicalPMA(cap), shard_capacity=max(16, capacity // 8)
    ),
}


@pytest.fixture(params=sorted(ALGORITHM_FACTORIES))
def algorithm_name(request):
    return request.param


@pytest.fixture
def algorithm_factory(algorithm_name):
    return ALGORITHM_FACTORIES[algorithm_name]


class ReferenceDriver:
    """Drives a labeler and a plain sorted-list reference model in lockstep.

    Keys are exact rationals chosen between the rank neighbours, so the
    reference model is a ground truth for both contents and order regardless
    of how adversarial the rank sequence is.  In *reuse* mode every delete
    puts the key it deleted straight back at the rank it left, so equal
    keys enter the structure again and again.
    """

    def __init__(self, labeler, seed: int = 0, *, reuse: bool = False):
        self.labeler = labeler
        self.reference: list[Fraction] = []
        self.rng = random.Random(seed)
        self.costs: list[int] = []
        self.reuse = reuse

    def key_for(self, rank: int) -> Fraction:
        lower = self.reference[rank - 2] if rank >= 2 else None
        upper = self.reference[rank - 1] if rank - 1 < len(self.reference) else None
        if lower is None and upper is None:
            return Fraction(0)
        if lower is None:
            return upper - 1
        if upper is None:
            return lower + 1
        return (lower + upper) / 2

    def insert(self, rank: int, key: Fraction | None = None) -> int:
        if key is None:
            key = self.key_for(rank)
        result = self.labeler.insert(rank, key)
        self.reference.insert(rank - 1, key)
        self.costs.append(result.cost)
        return result.cost

    def delete(self, rank: int) -> int:
        """Delete the element of ``rank`` (and, in reuse mode, put its key
        back); returns the delete's cost."""
        result = self.labeler.delete(rank)
        key = self.reference.pop(rank - 1)
        self.costs.append(result.cost)
        if self.reuse:
            self.insert(rank, key)
        return result.cost

    def random_operation(self, delete_probability: float = 0.3) -> int:
        size = len(self.reference)
        full = size >= self.labeler.capacity
        if size and (full or self.rng.random() < delete_probability):
            return self.delete(self.rng.randint(1, size))
        return self.insert(self.rng.randint(1, size + 1))

    def check(self) -> None:
        check_labeler(self.labeler, expected=self.reference)
        assert list(self.labeler.elements()) == self.reference


@pytest.fixture
def reference_driver_factory():
    return ReferenceDriver


def recorder(*triples) -> MoveRecorder:
    """A move log of ``(element, source, destination)`` triples."""
    moves = MoveRecorder()
    for element, source, destination in triples:
        moves.record(element, source, destination)
    return moves


def record_shell_input(embedding: Embedding) -> list[tuple[str, int]]:
    """Record the operations ``embedding`` hands its R-shell from now on.

    Wraps the shell's ``delete_token`` / ``insert_token`` (the slow path's
    only calls into the shell) so that each call appends a ``(kind,
    token_rank)`` pair to the returned list — the input sequence Lemma 4 is
    about.
    """
    trace: list[tuple[str, int]] = []
    shell = embedding.shell
    for kind in ("delete", "insert"):
        method = getattr(shell, f"{kind}_token")

        def recorded(token_rank: int, kind=kind, method=method):
            trace.append((kind, token_rank))
            return method(token_rank)

        setattr(shell, f"{kind}_token", recorded)
    return trace


@contextmanager
def record_syscalls():
    """Record every ``os.fsync`` and ``os.replace``, in order, while open.

    An fsync is ``("fsync", (st_dev, st_ino))`` of the synced file or
    directory (compare with :func:`synced`); a rename is ``("replace",
    target)``.  Calls from every thread are recorded.
    """
    events: list[tuple] = []
    real_fsync, real_replace = os.fsync, os.replace

    def recording_fsync(fd):
        stat = os.fstat(fd)
        events.append(("fsync", (stat.st_dev, stat.st_ino)))
        real_fsync(fd)

    def recording_replace(source, target):
        events.append(("replace", Path(target)))
        real_replace(source, target)

    os.fsync, os.replace = recording_fsync, recording_replace
    try:
        yield events
    finally:
        os.fsync, os.replace = real_fsync, real_replace


def synced(path) -> tuple:
    """The :func:`record_syscalls` event of an fsync of ``path``."""
    stat = os.stat(path)
    return ("fsync", (stat.st_dev, stat.st_ino))
