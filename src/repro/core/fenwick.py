"""A Fenwick (binary indexed) tree over a weighted count vector.

:class:`FenwickTree` keeps a fixed-size vector of non-negative counts and
answers, in ``O(log size)`` each:

* ``count(lo, hi)`` / ``prefix(end)`` — the units in ``[lo, hi)`` /
  ``[0, end)``;
* ``select(k)`` — the position holding the ``k``-th unit (1-based).

It has two users.  The shard directory of
:class:`repro.core.sharded.ShardedLabeler` keeps one position per shard
holding that shard's element count (:meth:`FenwickTree.add`), so a global
rank routes to its shard in ``O(log K)``, and rebuilds it in ``O(K)``
through :meth:`FenwickTree.from_values`.  The reference physical array
(:mod:`repro.core.physical_reference`, the differential oracle of the slab
array) keeps four 0/1 trees through :meth:`FenwickTree.set`.  Occupancy
elsewhere is a Python int bitmask (:mod:`repro.core.bitmask`): one per
dense labeler, one per slot-state lane of the slab physical array.
"""

from __future__ import annotations


class FenwickTree:
    """Fenwick tree over a fixed-size vector of non-negative counts.

    The common use is as a 0/1 occupancy vector (:meth:`set`); the weighted
    :meth:`add` API generalizes it to arbitrary non-negative counts.  The
    total is kept beside the tree, so :attr:`total` is ``O(1)`` and
    :meth:`select` walks the tree once.
    """

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError("size must be non-negative")
        self._size = size
        self._tree = [0] * (size + 1)
        self._values = [0] * size
        self._total = 0
        # Highest power of two <= size, used by the select binary lift.
        self._top_bit = 1
        while self._top_bit * 2 <= size:
            self._top_bit *= 2

    @classmethod
    def from_values(cls, values: "list[int]") -> "FenwickTree":
        """Build a tree over ``values`` in ``O(size)`` (vs ``O(size log size)``
        via repeated :meth:`add`) — the shard directory rebuilds through
        this once per structural change or batch."""
        tree = cls(len(values))
        if values and min(values) < 0:
            raise ValueError("counts must be non-negative")
        tree._values = list(values)
        tree._total = sum(values)
        table = tree._tree
        table[1:] = values
        size = tree._size
        for i in range(1, size + 1):
            parent = i + (i & (-i))
            if parent <= size:
                table[parent] += table[i]
        return tree

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self._size

    def value(self, index: int) -> int:
        """Current count at ``index`` (0 or 1 under the occupancy API)."""
        return self._values[index]

    def set(self, index: int, value: int) -> None:
        """Set position ``index`` to ``value`` (0 or 1)."""
        if value not in (0, 1):
            raise ValueError("occupancy values must be 0 or 1")
        self._apply_delta(index, value - self._values[index])

    def add(self, index: int, delta: int) -> None:
        """Add ``delta`` to the count at ``index`` (weighted API).

        The resulting count must stay non-negative; ``select``/``prefix``
        then operate over units rather than occupied slots.
        """
        if self._values[index] + delta < 0:
            raise ValueError(
                f"count at {index} would become negative "
                f"({self._values[index]} + {delta})"
            )
        self._apply_delta(index, delta)

    def _apply_delta(self, index: int, delta: int) -> None:
        if delta == 0:
            return
        if not 0 <= index < self._size:
            raise IndexError(f"index {index} out of range (size {self._size})")
        self._values[index] += delta
        self._total += delta
        tree = self._tree
        i = index + 1
        while i <= self._size:
            tree[i] += delta
            i += i & (-i)

    # ------------------------------------------------------------------
    def prefix(self, end: int) -> int:
        """Number of occupied slots in ``[0, end)``."""
        total = 0
        tree = self._tree
        i = end
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total

    def count(self, lo: int, hi: int) -> int:
        """Number of occupied slots in ``[lo, hi)``."""
        if hi <= lo:
            return 0
        return self.prefix(hi) - self.prefix(lo)

    @property
    def total(self) -> int:
        """Total number of units (= occupied slots under the 0/1 API)."""
        return self._total

    # ------------------------------------------------------------------
    def select(self, k: int) -> int:
        """Position of the ``k``-th (1-based) occupied slot.

        Under the weighted API this is the position whose count contains the
        ``k``-th unit, i.e. the smallest ``p`` with ``prefix(p + 1) >= k`` —
        exactly the rank→shard lookup the shard directory needs.

        Raises :class:`IndexError` when fewer than ``k`` units are stored.
        """
        if k < 1 or k > self._total:
            raise IndexError(f"select({k}) out of range (total={self._total})")
        position = 0
        remaining = k
        bit = self._top_bit
        tree = self._tree
        while bit:
            nxt = position + bit
            if nxt <= self._size and tree[nxt] < remaining:
                position = nxt
                remaining -= tree[nxt]
            bit >>= 1
        return position  # 0-based index of the k-th occupied slot
