"""Occupancy bitmasks: one Python int whose bit ``i`` stands for slot ``i``.

Dense arrays (:class:`repro.algorithms.base.DenseArrayLabeler`) keep their
occupancy as one such int, and the embedding's physical array
(:class:`repro.core.physical.PhysicalArray`) keeps one per slot-state lane.
A count is a masked ``bit_count()``; :func:`select_bit` finds the ``k``-th
set bit by halving the mask along power-of-two widths down to one byte,
which a 256-entry table answers.
"""

from __future__ import annotations

import math
from typing import Iterator

#: ``_BYTE_SELECT[byte][j]`` is the position of the ``(j + 1)``-th set bit
#: of ``byte``.
_BYTE_SELECT = tuple(
    tuple(bit for bit in range(8) if byte >> bit & 1) for byte in range(256)
)

#: ``_LOW_MASKS[j]`` has the low ``2 ** j`` bits set.  Built up to the
#: widest mask selected so far, so it costs about two bits per slot of the
#: largest array in the process.
_LOW_MASKS: list[int] = []


def select_bit(mask: int, k: int) -> int:
    """Position of the ``k``-th (1-based) set bit of ``mask``.

    Raises :class:`IndexError` when ``mask`` has fewer than ``k`` set bits.
    A non-integral ``k`` selects the ``ceil(k)``-th bit, the first whose
    prefix count reaches ``k``.
    """
    total = mask.bit_count()
    if not 1 <= k <= total:
        raise IndexError(f"select({k}) out of range (total={total})")
    k = math.ceil(k)
    base = 0
    # The smallest power-of-two width 2 ** level holding the mask.
    level = (mask.bit_length() - 1).bit_length()
    if level > len(_LOW_MASKS):
        _LOW_MASKS.extend((1 << (1 << j)) - 1 for j in range(len(_LOW_MASKS), level))
    while level > 3:
        level -= 1
        low = mask & _LOW_MASKS[level]
        count = low.bit_count()
        if k > count:
            k -= count
            mask >>= 1 << level
            base += 1 << level
        else:
            mask = low
    return base + _BYTE_SELECT[mask][k - 1]


def count_bits(mask: int, lo: int, hi: int) -> int:
    """Number of set bits of ``mask`` at positions in ``[lo, hi)``."""
    if hi <= lo:
        return 0
    return (mask >> lo & ((1 << (hi - lo)) - 1)).bit_count()


def lowest_bits(mask: int, count: int) -> int:
    """The lowest ``count`` set bits of ``mask``, as a mask
    (``0 <= count <= mask.bit_count()``)."""
    if count == 0:
        return 0
    return mask & ((2 << select_bit(mask, count)) - 1)


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def iter_bits_reversed(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, highest first."""
    while mask:
        top = mask.bit_length() - 1
        yield top
        mask ^= 1 << top
