"""Slot-kind constants and the packed-state encoding, shared by both
physical-array implementations.

Two implementations of the embedding's shared array ``A`` coexist —
:class:`repro.core.physical.PhysicalArray` (the slab array every embedding
builds) and :class:`repro.core.physical_reference.ReferencePhysicalArray`
(the seed oracle).  The differential suite verifies them move-for-move
against each other, which only works if both agree on the *encoding* of slot
state: the kind values of Figure 1 and the four index lanes (F-slot /
non-empty / element-present / dummy-buffer) that each maintains, as packed
Fenwick lanes or as independent Fenwick trees.

This module is dependency-free on purpose: the reference array must not
import the slab module (it re-exports the reference, and a two-way import
would be order-dependent), and the slab array must not re-derive the
encoding independently and drift.
"""

from __future__ import annotations

#: Slot kinds (Figure 1 colour coding).
R_EMPTY = 0
F_SLOT = 1
BUFFER = 2

KIND_NAMES = {R_EMPTY: "r-empty", F_SLOT: "f-slot", BUFFER: "buffer"}

# ---------------------------------------------------------------------------
# Packed slot state: one bit per index lane.
# ---------------------------------------------------------------------------
LANE_F = 0         # kind == F_SLOT
LANE_NONEMPTY = 1  # kind != R_EMPTY
LANE_REAL = 2      # element present
LANE_DUMMY = 3     # kind == BUFFER and no element

NUM_LANES = 4

BIT_F = 1 << LANE_F
BIT_NONEMPTY = 1 << LANE_NONEMPTY
BIT_REAL = 1 << LANE_REAL
BIT_DUMMY = 1 << LANE_DUMMY


def mask_for(kind: int, has_element: bool) -> int:
    """The packed state bits of a slot of ``kind`` (mirrors the seed's four
    ``_refresh_indexes`` predicates exactly, including the degenerate
    element-in-R-empty-slot state that only ``check_consistency``
    rejects)."""
    if kind == F_SLOT:
        mask = BIT_F | BIT_NONEMPTY
    elif kind == BUFFER:
        mask = BIT_NONEMPTY
    else:
        mask = 0
    if has_element:
        mask |= BIT_REAL
    elif kind == BUFFER:
        mask |= BIT_DUMMY
    return mask


#: ``KIND_MASKS[kind][has_element]`` — precomputed state bits.
KIND_MASKS = [
    (mask_for(kind, False), mask_for(kind, True))
    for kind in (R_EMPTY, F_SLOT, BUFFER)
]

#: ``MASK_KIND[mask]`` — slot kind recovered from the packed state.
MASK_KIND = [
    F_SLOT if mask & BIT_F else (BUFFER if mask & BIT_NONEMPTY else R_EMPTY)
    for mask in range(16)
]

__all__ = [
    "R_EMPTY",
    "F_SLOT",
    "BUFFER",
    "KIND_NAMES",
    "LANE_F",
    "LANE_NONEMPTY",
    "LANE_REAL",
    "LANE_DUMMY",
    "NUM_LANES",
    "BIT_F",
    "BIT_NONEMPTY",
    "BIT_REAL",
    "BIT_DUMMY",
    "mask_for",
    "KIND_MASKS",
    "MASK_KIND",
]
