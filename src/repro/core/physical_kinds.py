"""Slot-kind constants shared by both physical-array implementations.

Two implementations of the embedding's shared array ``A`` coexist —
:class:`repro.core.physical.PhysicalArray` (the slab array every embedding
builds) and :class:`repro.core.physical_reference.ReferencePhysicalArray`
(the seed oracle).  The differential suite verifies them move-for-move
against each other, which only works if both agree on the kind values of
Figure 1.

This module is dependency-free on purpose: the reference array must not
import the slab module (it re-exports the reference, and a two-way import
would be order-dependent).
"""

from __future__ import annotations

#: Slot kinds (Figure 1 colour coding).
R_EMPTY = 0
F_SLOT = 1
BUFFER = 2

KIND_NAMES = {R_EMPTY: "r-empty", F_SLOT: "f-slot", BUFFER: "buffer"}

__all__ = ["R_EMPTY", "F_SLOT", "BUFFER", "KIND_NAMES"]
