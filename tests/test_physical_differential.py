"""Differential trace tests: the slab PhysicalArray vs ReferencePhysicalArray.

The contract fenced here is stronger than final-state equality: replaying a
recorded workload trace on the slab :class:`PhysicalArray` must produce the
**same move log** as the reference — the same ``(element, source,
destination)`` sequence — plus identical slot kinds, contents, deadweight
accounting, and index answers.
Traces cover every physical primitive: embedding fast-path puts/moves,
chain moves with deadweight (both directions, both the short-scan and the
Fenwick-guided long path), slot relabels, and R-shell replays.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.operations import MoveRecorder, move_triples
from repro.core.physical import (
    BUFFER,
    F_SLOT,
    R_EMPTY,
    PhysicalArray,
    ReferencePhysicalArray,
)
from repro.perf.scenarios import record_chain_sparse_trace
from repro.perf.trace import record_insert_heavy_trace, replay_trace

CANDIDATES = {"slab": PhysicalArray}


def replay_on_all(trace, num_slots):
    """Replay a trace on the reference and every candidate array."""
    reference = ReferencePhysicalArray(num_slots)
    reference_sink: list = []
    reference.move_sink = reference_sink
    replay_trace(trace, reference)
    reference.move_sink = None

    candidates = {}
    for name, cls in CANDIDATES.items():
        array = cls(num_slots)
        recorder = MoveRecorder()
        array.move_sink = recorder
        replay_trace(trace, array)
        array.move_sink = None
        candidates[name] = (array, recorder)
    return reference, reference_sink, candidates


def assert_equivalent(reference, reference_sink, candidates, *, ordered=True):
    if ordered:
        # Only workload traces keep elements physically sorted; the raw
        # primitive fuzz deliberately does not.
        reference.check_consistency()
    ranks = list(range(1, reference.element_count + 1))
    for name, (array, recorder) in candidates.items():
        # Move-log equality: element, source, destination — order included.
        assert move_triples(reference_sink) == recorder.triples(), name
        assert sum(move.cost for move in reference_sink) == recorder.total_cost, name
        # Full physical state.
        assert list(reference.kinds()) == list(array.kinds()), name
        assert list(reference.slots()) == list(array.slots()), name
        assert reference.elements() == array.elements(), name
        # Cost accounting.
        assert reference.total_deadweight_moves == array.total_deadweight_moves, name
        assert reference.deadweight_by_element == array.deadweight_by_element, name
        # Index answers.
        assert reference.element_count == array.element_count, name
        assert reference.f_slot_count == array.f_slot_count, name
        assert reference.buffer_count == array.buffer_count, name
        assert reference.dummy_buffer_count == array.dummy_buffer_count, name
        for rank in ranks:
            assert reference.element_at_rank(rank) == array.element_at_rank(rank), name
        if ordered:
            array.check_consistency()


@pytest.mark.parametrize("seed", [1, 7, 20260730])
def test_embedding_insert_trace_is_move_identical(seed):
    trace, num_slots = record_insert_heavy_trace(192, seed)
    assert_equivalent(*replay_on_all(trace, num_slots))


@pytest.mark.parametrize("seed", [3, 11])
def test_embedding_churn_trace_is_move_identical(seed):
    # Deletions plus a tight reliable budget force slow-path buffering,
    # ghosts, rebuild incorporations and R-shell activity — the trace
    # exercises apply_shell_moves and take_element alongside the chain
    # machinery.
    trace, num_slots = record_insert_heavy_trace(
        256, seed, delete_fraction=0.35, reliable_expected_cost=4
    )
    ops = {op for op, _ in trace}
    assert "take" in ops and "chain" in ops
    assert_equivalent(*replay_on_all(trace, num_slots))


def test_shell_replay_trace_is_move_identical():
    # A tiny reliable budget forces nearly every operation onto the slow
    # path, maximizing shell traffic (token deletes + inserts).
    trace, num_slots = record_insert_heavy_trace(
        96, 5, reliable_expected_cost=1
    )
    assert any(op == "shell" for op, _ in trace)
    assert_equivalent(*replay_on_all(trace, num_slots))


@pytest.mark.parametrize("seed", [2, 13])
def test_sparse_chain_trace_is_move_identical(seed):
    trace, num_slots, _rounds = record_chain_sparse_trace(256, seed)
    assert sum(1 for op, _ in trace if op == "chain") >= 8
    assert_equivalent(*replay_on_all(trace, num_slots))


def test_random_primitive_soup_is_move_identical():
    # Raw primitive fuzz (no embedding): random puts/takes/moves over a
    # mixed-kind array, applied to both implementations in lockstep.
    rng = random.Random(99)
    num_slots = 512
    spec = [
        F_SLOT if rng.random() < 0.5 else (BUFFER if rng.random() < 0.5 else R_EMPTY)
        for _ in range(num_slots)
    ]
    trace = [("init", (tuple(enumerate(spec)),))]
    scratch = ReferencePhysicalArray(num_slots)
    scratch.initialize_kinds(enumerate(spec))
    occupied: list[int] = []
    fresh = 0
    for _ in range(3000):
        roll = rng.random()
        if roll < 0.5 or not occupied:
            candidates = [
                p
                for p in range(num_slots)
                if scratch.kind(p) != R_EMPTY and scratch.element(p) is None
            ]
            if not candidates:
                continue
            position = rng.choice(candidates)
            scratch.put_element(position, fresh)
            trace.append(("put", (position, fresh, False)))
            occupied.append(position)
            fresh += 1
        elif roll < 0.8:
            index = rng.randrange(len(occupied))
            src = occupied[index]
            candidates = [
                p
                for p in range(num_slots)
                if scratch.kind(p) != R_EMPTY and scratch.element(p) is None
            ]
            if not candidates:
                continue
            dst = rng.choice(candidates)
            scratch.move_element(src, dst)
            trace.append(("move", (src, dst, False)))
            occupied[index] = dst
        else:
            index = rng.randrange(len(occupied))
            position = occupied.pop(index)
            scratch.take_element(position)
            trace.append(("take", (position,)))
    assert_equivalent(*replay_on_all(trace, num_slots), ordered=False)


class TestSparseChainPositions:
    """Regression: ``chain_positions`` must not pay ``O(hi - lo)`` on
    sparse arrays (the seed's scan dominated chain-move cost there)."""

    NUM_SLOTS = 400_000
    TOKENS = 16

    def _build(self, cls):
        array = cls(self.NUM_SLOTS)
        step = self.NUM_SLOTS // self.TOKENS
        kinds = [
            (i * step, F_SLOT if i % 2 == 0 else BUFFER)
            for i in range(self.TOKENS)
        ]
        array.initialize_kinds(kinds)
        return array

    def test_select_walk_matches_scan(self):
        slab = self._build(PhysicalArray)
        reference = self._build(ReferencePhysicalArray)
        full = slab.chain_positions(0, self.NUM_SLOTS - 1)
        assert full == reference.chain_positions(0, self.NUM_SLOTS - 1)
        assert len(full) == self.TOKENS
        # Partial and empty spans, boundaries inclusive.
        step = self.NUM_SLOTS // self.TOKENS
        assert slab.chain_positions(1, step - 1) == []
        assert slab.chain_positions(step, step) == [step]
        assert slab.chain_positions(step + 1, 3 * step) == [2 * step, 3 * step]

    def test_select_walk_beats_scan_on_sparse_array(self):
        slab = self._build(PhysicalArray)
        reference = self._build(ReferencePhysicalArray)
        lo, hi = 0, self.NUM_SLOTS - 1

        def best_of(callable_, repeats=3):
            times = []
            for _ in range(repeats):
                started = time.perf_counter()
                callable_()
                times.append(time.perf_counter() - started)
            return min(times)

        slab_time = best_of(lambda: slab.chain_positions(lo, hi))
        reference_time = best_of(lambda: reference.chain_positions(lo, hi))
        # 16 tokens over 400k slots: the select-walk does a few hundred slab
        # reads where the scan does 400k — orders of magnitude apart, so a
        # 5x margin keeps the assertion far from timing noise.
        assert slab_time * 5 < reference_time, (
            f"select-walk {slab_time:.6f}s vs scan {reference_time:.6f}s"
        )


@pytest.mark.parametrize("leftward", [True, False])
def test_degenerate_chain_fallback_relabel_is_identical(leftward):
    # A chain holding more elements than buffer slots (count - 1 > buffer
    # count) is unreachable from embedding chains but legal through the
    # public chain_move API, and drives the relabel's fallback branch where
    # the moved element lands inside the all-F interval.  Regression: the
    # slab relabel used to consult the pre-move element positions, so a
    # buffer slot that *received* an element during the compaction was
    # never flipped to F_SLOT and kinds() silently diverged.
    m = 96
    kinds = [F_SLOT] * m
    if leftward:
        kinds[1] = kinds[2] = BUFFER
        puts, chain = (92, 93, 94, 95), (95, 0)
    else:
        kinds[93] = kinds[94] = BUFFER
        puts, chain = (0, 1, 2, 3), (0, 93)
    trace = [("init", (tuple(enumerate(kinds)),))]
    trace.extend(("put", (position, position, False)) for position in puts)
    trace.append(("chain", chain))
    assert_equivalent(*replay_on_all(trace, m))
