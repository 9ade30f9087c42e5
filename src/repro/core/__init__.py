"""Core list-labeling framework and the layered embedding.

This subpackage contains the problem framework (operations, cost model,
validation helpers) shared by every algorithm in :mod:`repro.algorithms`,
and the paper's primary contribution: the embedding ``F ⊳ R`` of a fast
list-labeling algorithm into a reliable one (:mod:`repro.core.embedding`)
together with its repeated composition ``X ⊳ (Y ⊳ Z)``
(:mod:`repro.core.layered`).
"""

from repro.core.exceptions import (
    BatchError,
    CapacityError,
    InvariantViolation,
    LabelerError,
    RankError,
)
from repro.core.operations import (
    COUNT_RANGE,
    DELETE,
    INSERT,
    LOOKUP,
    RANGE,
    READ_KINDS,
    SELECT,
    BatchResult,
    Move,
    MoveRecorder,
    Operation,
    OperationResult,
    move_triples,
)
from repro.core.interface import Cursor, ListLabeler
from repro.core.physical import PhysicalArray, ReferencePhysicalArray
from repro.core.cost import CostTracker, WindowStatistics
from repro.core.embedding import Embedding
from repro.core.layered import (
    LayeredLabeler,
    make_corollary11_labeler,
    make_corollary12_labeler,
)
from repro.core.interleaved import InterleavedComposition
from repro.core.sharded import ShardedLabeler

__all__ = [
    "BatchError",
    "BatchResult",
    "COUNT_RANGE",
    "CapacityError",
    "CostTracker",
    "Cursor",
    "DELETE",
    "Embedding",
    "INSERT",
    "LOOKUP",
    "RANGE",
    "READ_KINDS",
    "SELECT",
    "InterleavedComposition",
    "InvariantViolation",
    "LabelerError",
    "LayeredLabeler",
    "ListLabeler",
    "Move",
    "MoveRecorder",
    "Operation",
    "OperationResult",
    "PhysicalArray",
    "RankError",
    "ReferencePhysicalArray",
    "ShardedLabeler",
    "WindowStatistics",
    "make_corollary11_labeler",
    "make_corollary12_labeler",
    "move_triples",
]
