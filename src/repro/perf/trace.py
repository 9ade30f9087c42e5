"""Physical-array operation traces: record once, replay anywhere.

A *trace* is the sequence of top-level mutating calls an embedding (or a
synthetic driver) issued against its physical array: slot-kind
initialization, puts/takes/moves, chain moves, and R-shell replays.  Traces
are recorded by :class:`TracingPhysicalArray` — a :class:`PhysicalArray`
whose public mutators log themselves before delegating — and replayed with
:func:`replay_trace` on **any** physical-array implementation, which is what
makes them the common currency of

* the differential suite (replay on slab and reference, assert move-log
  equality), and
* ``benchmarks/bench_wire_speed.py`` (replay on both, compare wall-clock
  for identical work).

Only top-level calls are recorded: a ``chain_move`` performs internal
``move_element`` calls, but re-entrant recording is suppressed so a replay
re-derives them — exercising the *implementation* under test rather than a
flattened move list.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Hashable

from repro.core.operations import Move
from repro.core.physical import PhysicalArray

#: One trace entry: an opcode plus its (hashable, picklable) arguments.
TraceOp = tuple[str, tuple]
#: A recorded run: the op list plus the array geometry it applies to.
PhysicalTrace = list[TraceOp]


class TracingPhysicalArray(PhysicalArray):
    """A :class:`PhysicalArray` that records its top-level mutating calls."""

    def __init__(self, num_slots: int, trace: PhysicalTrace | None = None) -> None:
        super().__init__(num_slots)
        #: The recorded op list (shared with the caller when provided).
        self.trace: PhysicalTrace = trace if trace is not None else []
        self._trace_depth = 0

    def _note(self, op: str, args: tuple) -> None:
        if self._trace_depth == 0:
            self.trace.append((op, args))

    # -- traced mutators -------------------------------------------------
    def initialize_kinds(self, positions_and_kinds) -> None:
        positions_and_kinds = tuple(positions_and_kinds)
        self._note("init", (positions_and_kinds,))
        self._trace_depth += 1
        try:
            super().initialize_kinds(positions_and_kinds)
        finally:
            self._trace_depth -= 1

    def set_kind(self, position: int, kind: int) -> None:
        self._note("kind", (position, kind))
        super().set_kind(position, kind)

    def put_element(self, position: int, element: Hashable, *, deadweight: bool = False) -> None:
        self._note("put", (position, element, deadweight))
        super().put_element(position, element, deadweight=deadweight)

    def take_element(self, position: int) -> Hashable:
        self._note("take", (position,))
        return super().take_element(position)

    def move_element(self, src: int, dst: int, *, deadweight: bool = False) -> None:
        self._note("move", (src, dst, deadweight))
        super().move_element(src, dst, deadweight=deadweight)

    def chain_move(self, source: int, target_f_index: int) -> int:
        self._note("chain", (source, target_f_index))
        self._trace_depth += 1
        try:
            return super().chain_move(source, target_f_index)
        finally:
            self._trace_depth -= 1

    def apply_shell_moves(self, moves) -> int:
        triples = tuple(
            (move.element, move.source, move.destination) for move in moves
        )
        self._note("shell", (triples,))
        self._trace_depth += 1
        try:
            return super().apply_shell_moves(
                Move(element, source, destination)
                for element, source, destination in triples
            )
        finally:
            self._trace_depth -= 1


def replay_trace(trace: PhysicalTrace, array) -> None:
    """Apply a recorded trace to ``array`` (any physical-array implementation).

    The caller owns ``array.move_sink`` — set it before replaying to collect
    the move log the replay produces.
    """
    put = array.put_element
    take = array.take_element
    move = array.move_element
    chain = array.chain_move
    set_kind = array.set_kind
    shell = array.apply_shell_moves
    for op, args in trace:
        if op == "put":
            put(args[0], args[1], deadweight=args[2])
        elif op == "move":
            move(args[0], args[1], deadweight=args[2])
        elif op == "chain":
            chain(args[0], args[1])
        elif op == "take":
            take(args[0])
        elif op == "shell":
            shell(
                Move(element, source, destination)
                for element, source, destination in args[0]
            )
        elif op == "kind":
            set_kind(args[0], args[1])
        elif op == "init":
            array.initialize_kinds(args[0])
        else:
            raise ValueError(f"unknown trace opcode {op!r}")


def _midpoint_key(reference: list, rank: int) -> Fraction:
    """An exact key strictly between the rank neighbours (driver helper)."""
    lower = reference[rank - 2] if rank >= 2 else None
    upper = reference[rank - 1] if rank - 1 < len(reference) else None
    if lower is None and upper is None:
        return Fraction(0)
    if lower is None:
        return upper - 1
    if upper is None:
        return lower + 1
    return (lower + upper) / 2


def record_insert_heavy_trace(
    n: int,
    seed: int,
    *,
    delete_fraction: float = 0.0,
    fast_factory: Callable | None = None,
    reliable_factory: Callable | None = None,
    **embedding_kwargs,
) -> tuple[PhysicalTrace, int]:
    """Record the physical trace of a seeded embedding run.

    Drives an :class:`repro.core.embedding.Embedding` (adaptive fast side,
    classical reliable side by default) through ``n`` operations at uniformly
    random ranks — insert-only unless ``delete_fraction`` is set — and
    returns ``(trace, num_slots)``.  Everything is derived from ``seed``, so
    the trace (and therefore every move count downstream) is reproducible
    across processes.
    """
    from repro.algorithms import AdaptivePMA, ClassicalPMA
    from repro.core.embedding import Embedding

    if fast_factory is None:
        fast_factory = lambda cap, slots: AdaptivePMA(cap, slots)
    if reliable_factory is None:
        reliable_factory = lambda cap, slots: ClassicalPMA(cap, slots)
    trace: PhysicalTrace = []
    embedding = Embedding(
        n,
        fast_factory=fast_factory,
        reliable_factory=reliable_factory,
        physical_factory=lambda num_slots: TracingPhysicalArray(num_slots, trace),
        **embedding_kwargs,
    )
    rng = random.Random(seed)
    reference: list[Fraction] = []
    for _ in range(n):
        size = len(reference)
        if size and delete_fraction and rng.random() < delete_fraction:
            rank = rng.randint(1, size)
            embedding.delete(rank)
            reference.pop(rank - 1)
            continue
        rank = rng.randint(1, size + 1)
        key = _midpoint_key(reference, rank)
        embedding.insert(rank, key)
        reference.insert(rank - 1, key)
    return trace, embedding.num_slots
