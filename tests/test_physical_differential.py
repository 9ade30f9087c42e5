"""Differential trace tests: the slab PhysicalArray vs ReferencePhysicalArray.

The contract fenced here is stronger than final-state equality: replaying a
recorded workload trace on the slab :class:`PhysicalArray` must produce the
**same move log** as the reference — the same ``(element, source,
destination)`` sequence — plus identical slot kinds, contents, deadweight
accounting, and index answers.
Traces cover every physical primitive: embedding fast-path puts/moves,
chain moves with deadweight (both directions, over spans within one machine
word and spans of the whole array), slot relabels, and R-shell replays.
The index answers compared cover every lane query: element, F-slot and
token ranks and positions, window counts, and the nearest dummy buffer.
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


def replay_in_lockstep(trace, num_slots):
    """:func:`replay_on_all`, one op at a time: after every op each
    candidate's F coordinates must equal the reference's."""
    reference = ReferencePhysicalArray(num_slots)
    reference_sink: list = []
    reference.move_sink = reference_sink
    candidates = {
        name: (cls(num_slots), MoveRecorder()) for name, cls in CANDIDATES.items()
    }
    for array, recorder in candidates.values():
        array.move_sink = recorder
    for index, op in enumerate(trace):
        replay_trace([op], reference)
        for name, (array, _recorder) in candidates.items():
            replay_trace([op], array)
            assert_same_f_coordinates(reference, array, (name, index, op[0]))
    reference.move_sink = None
    for array, _recorder in candidates.values():
        array.move_sink = None
    return reference, reference_sink, candidates


def assert_same_f_coordinates(reference, array, where):
    """``f_position`` of every F-index, and ``f_index_of`` of its slot."""
    assert reference.f_slot_count == array.f_slot_count, where
    for f_index in range(reference.f_slot_count):
        position = reference.f_position(f_index)
        assert array.f_position(f_index) == position, (where, f_index)
        assert array.f_index_of(position) == f_index, (where, position)


def assert_equivalent(reference, reference_sink, candidates, *, ordered=True):
    if ordered:
        # Only workload traces keep elements physically sorted; the raw
        # primitive fuzz deliberately does not.
        reference.check_consistency()
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
        assert_same_answers(reference, array, name)
        if ordered:
            array.check_consistency()


def assert_same_answers(reference, array, name):
    """Every index answer of ``array`` equals the reference's."""
    num_slots = reference.num_slots
    assert reference.element_count == array.element_count, name
    assert reference.f_slot_count == array.f_slot_count, name
    assert reference.buffer_count == array.buffer_count, name
    assert reference.dummy_buffer_count == array.dummy_buffer_count, name
    assert reference.buffered_element_count == array.buffered_element_count, name
    count = reference.element_count
    for rank in range(1, count + 1):
        assert reference.element_at_rank(rank) == array.element_at_rank(rank), name
        assert reference.position_of_rank(rank) == array.position_of_rank(rank), name
    for rank in {1, count // 2 + 1, count, count + 1}:
        assert list(reference.iter_elements_from(rank)) == list(
            array.iter_elements_from(rank)
        ), (name, rank)
    assert_same_f_coordinates(reference, array, name)
    for position in range(num_slots):
        if reference.kind(position) != R_EMPTY:
            assert reference.token_rank(position) == array.token_rank(position), (
                name,
                position,
            )
    rng = random.Random(num_slots)
    sampled = sorted(
        {0, num_slots - 1, *rng.sample(range(num_slots), min(num_slots, 24))}
    )
    for position in sampled:
        assert reference.nearest_dummy_buffer(position) == array.nearest_dummy_buffer(
            position
        ), (name, position)
        for end in sampled:
            window = (position, end + 1)
            assert reference.real_between(*window) == array.real_between(*window), (
                name,
                window,
            )
            assert reference.nonempty_between(*window) == array.nonempty_between(
                *window
            ), (name, window)
            assert reference.next_element(*window) == array.next_element(
                *window
            ), (name, window)


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
    assert_equivalent(*replay_in_lockstep(trace, num_slots))


@pytest.mark.parametrize("seed", [2, 13])
def test_sparse_chain_trace_is_move_identical(seed):
    trace, num_slots, _rounds = record_chain_sparse_trace(256, seed)
    assert sum(1 for op, _ in trace if op == "chain") >= 8
    assert_equivalent(*replay_on_all(trace, num_slots))


def primitive_soup_trace(num_slots, seed, steps):
    """Random puts/takes/moves over a mixed-kind array (no embedding)."""
    rng = random.Random(seed)
    spec = [
        F_SLOT if rng.random() < 0.5 else (BUFFER if rng.random() < 0.5 else R_EMPTY)
        for _ in range(num_slots)
    ]
    trace = [("init", (tuple(enumerate(spec)),))]
    scratch = ReferencePhysicalArray(num_slots)
    scratch.initialize_kinds(enumerate(spec))
    occupied: list[int] = []
    fresh = 0
    for _ in range(steps):
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
    return trace


def test_random_primitive_soup_is_move_identical():
    # Raw primitive fuzz (no embedding): random puts/takes/moves over a
    # mixed-kind array, applied to both implementations in lockstep.
    trace = primitive_soup_trace(512, 99, 3000)
    assert_equivalent(*replay_in_lockstep(trace, 512), ordered=False)


@pytest.mark.parametrize("num_slots", [63, 64, 65, 129])
def test_random_primitive_soup_at_word_boundaries(num_slots):
    # Lane masks one bit short of, at, and past a 64-bit word, and past two.
    trace = primitive_soup_trace(num_slots, num_slots, 400)
    assert_equivalent(*replay_in_lockstep(trace, num_slots), ordered=False)


def chain_targets(array, source):
    """The F-indices a chain move from ``source`` may target: no F-slot
    between the two holds an element."""
    f_positions = [array.f_position(f_index) for f_index in range(array.f_slot_count)]
    blocked = [p for p in f_positions if p != source and array.element(p) is not None]
    left = max((p for p in blocked if p < source), default=-1)
    right = min((p for p in blocked if p > source), default=array.num_slots)
    return [i for i, p in enumerate(f_positions) if left < p < right and p != source]


def chain_and_relabel_trace(num_slots, seed, steps):
    """Chain moves of a pivot past buffered riders, each followed by a
    direct ``set_kind`` of an element-free slot to a random kind."""
    rng = random.Random(seed)
    kinds = [rng.choice((F_SLOT, F_SLOT, BUFFER, R_EMPTY)) for _ in range(num_slots)]
    trace = [("init", (tuple(enumerate(kinds)),))]
    scratch = ReferencePhysicalArray(num_slots)
    scratch.initialize_kinds(enumerate(kinds))
    pivot = kinds.index(F_SLOT)
    riders = rng.sample([p for p, kind in enumerate(kinds) if kind == BUFFER], 3)
    # Elements are their first positions, so chain moves keep them sorted.
    for position in sorted([pivot, *riders]):
        scratch.put_element(position, position)
        trace.append(("put", (position, position, False)))
    for _ in range(steps):
        source = scratch.position_of(pivot)
        targets = chain_targets(scratch, source)
        if targets:
            target = rng.choice(targets)
            scratch.chain_move(source, target)
            trace.append(("chain", (source, target)))
        position = rng.choice(
            [p for p in range(num_slots) if scratch.element(p) is None]
        )
        kind = rng.choice((F_SLOT, BUFFER, R_EMPTY))
        scratch.set_kind(position, kind)
        trace.append(("kind", (position, kind)))
    return trace


@pytest.mark.parametrize("seed", [4, 17])
def test_set_kind_between_chain_moves_is_identical(seed):
    # A direct relabel inserts or removes one F-slot, shifting every later
    # F-index; the chain moves after it must target the shifted slots.
    trace = chain_and_relabel_trace(96, seed, 150)
    assert sum(1 for op, _ in trace if op == "chain") >= 100
    reference, reference_sink, candidates = replay_in_lockstep(trace, 96)
    assert reference.total_deadweight_moves > 0
    assert_equivalent(reference, reference_sink, candidates)


@pytest.mark.parametrize("rightward", [True, False])
def test_chain_move_across_the_whole_array_is_identical(rightward):
    # The span runs from slot 0 to slot m - 1: the pivot crosses every
    # token, carrying two buffered riders as deadweight.
    m = 300
    kinds = [R_EMPTY] * m
    for position in (0, 2, 4, 150, m - 5, m - 3, m - 1):
        kinds[position] = F_SLOT
    for position in (1, 3, 60, 120, 200, m - 4, m - 2):
        kinds[position] = BUFFER
    pivot, target = (0, 6) if rightward else (m - 1, 0)
    trace = [("init", (tuple(enumerate(kinds)),))]
    trace.extend(("put", (position, position, False)) for position in (pivot, 60, 200))
    trace.append(("chain", (pivot, target)))
    reference, reference_sink, candidates = replay_on_all(trace, m)
    # The three elements pack against the target's end in order, so the
    # pivot lands farthest from the target.
    assert reference.position_of(pivot) == (m - 3 if rightward else 2)
    assert reference.total_deadweight_moves == 2
    assert_equivalent(reference, reference_sink, candidates)


class TestSparseChainMove:
    """Regression: a chain move across a sparse array must not pay
    ``O(hi - lo)`` Python steps (the seed's span scan dominated chain-move
    cost there)."""

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
        array.put_element(0, "pivot")
        array.put_element(step, "rider")
        return array

    def _last_f_index(self):
        return self.TOKENS // 2 - 1

    def test_chain_move_matches_reference(self):
        slab = self._build(PhysicalArray)
        reference = self._build(ReferencePhysicalArray)
        recorder, sink = MoveRecorder(), []
        slab.move_sink, reference.move_sink = recorder, sink
        # Across the array and back: rightward, then leftward.
        for target in (self._last_f_index(), 0):
            source = reference.position_of("pivot")
            assert slab.chain_move(source, target) == reference.chain_move(
                source, target
            )
        assert recorder.triples() == move_triples(sink)
        assert list(slab.kinds()) == list(reference.kinds())
        assert list(slab.slots()) == list(reference.slots())

    def test_chain_move_beats_scan_on_sparse_array(self):
        def best_of(cls, repeats=3):
            times = []
            for _ in range(repeats):
                array = self._build(cls)
                started = time.perf_counter()
                array.chain_move(0, self._last_f_index())
                times.append(time.perf_counter() - started)
            return min(times)

        slab_time = best_of(PhysicalArray)
        reference_time = best_of(ReferencePhysicalArray)
        # 16 tokens over 400k slots: the slab does a few dozen operations on
        # 50 KB ints where the reference steps through 350k slots in Python
        # — orders of magnitude apart, so a 5x margin keeps the assertion
        # far from timing noise.
        assert slab_time * 5 < reference_time, (
            f"lane windows {slab_time:.6f}s vs scan {reference_time:.6f}s"
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
