"""Fenwick (binary indexed) trees: a weighted count tree and a packed
multi-lane occupancy tree.

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
array) keeps four 0/1 trees through :meth:`FenwickTree.set`.  Dense
labelers keep their occupancy as one int bitmask
(:mod:`repro.algorithms.base`).

:class:`PackedFenwick` holds the slab physical array's four occupancy
lanes over one per-slot bitmask, with one combined index walk per update.
"""

from __future__ import annotations

from array import array


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


class PackedFenwick:
    """Several 0/1 Fenwick trees over one packed per-slot bitmask.

    The embedding's physical array maintains four occupancy views of the
    same slot vector (F-slots, non-empty slots, stored elements, dummy
    buffers).  Refreshing them as four independent :class:`FenwickTree`\\ s
    costs four tree walks per mutation; this structure stores the per-slot
    state as one bitmask in an ``array('B')`` slab and keeps one ``array('q')``
    Fenwick table per bit ("lane"), so a state change performs a *single*
    index walk that applies the deltas of every changed lane at once.

    Lanes are addressed by index; per-lane totals are maintained
    incrementally so :meth:`total` is ``O(1)``.
    """

    __slots__ = ("_size", "_lanes", "_masks", "_trees", "_totals", "_top_bit")

    def __init__(self, size: int, lanes: int) -> None:
        if size < 0:
            raise ValueError("size must be non-negative")
        if not 1 <= lanes <= 8:
            raise ValueError("lanes must lie in [1, 8] (one bit per lane)")
        self._size = size
        self._lanes = lanes
        self._masks = array("B", bytes(size))
        self._trees = [array("q", bytes(8 * (size + 1))) for _ in range(lanes)]
        self._totals = [0] * lanes
        self._top_bit = 1
        while self._top_bit * 2 <= size:
            self._top_bit *= 2

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self._size

    @property
    def lanes(self) -> int:
        return self._lanes

    def mask(self, position: int) -> int:
        """Current packed state bits of ``position``."""
        return self._masks[position]

    def masks(self) -> array:
        """The raw per-slot bitmask slab (read-only use)."""
        return self._masks

    def set_mask(self, position: int, mask: int) -> None:
        """Set the packed state of ``position``, updating every changed lane
        with one combined tree walk.

        The one- and two-lane cases (the steady-state mutations: an element
        placed, taken, or moved) are unrolled into allocation-free walks;
        only kind relabels touching three or more lanes take the generic
        loop.
        """
        masks = self._masks
        old = masks[position]
        changed = old ^ mask
        if not changed:
            return
        if mask >> self._lanes:
            raise ValueError(f"mask {mask:#x} has bits beyond lane {self._lanes - 1}")
        masks[position] = mask
        totals = self._totals
        trees = self._trees
        size = self._size
        index = position + 1

        bit1 = changed & (-changed)
        rest = changed - bit1
        lane1 = bit1.bit_length() - 1
        delta1 = 1 if mask & bit1 else -1
        totals[lane1] += delta1
        tree1 = trees[lane1]
        if not rest:
            while index <= size:
                tree1[index] += delta1
                index += index & (-index)
            return

        bit2 = rest & (-rest)
        rest -= bit2
        lane2 = bit2.bit_length() - 1
        delta2 = 1 if mask & bit2 else -1
        totals[lane2] += delta2
        tree2 = trees[lane2]
        if not rest:
            while index <= size:
                tree1[index] += delta1
                tree2[index] += delta2
                index += index & (-index)
            return

        updates = [(tree1, delta1), (tree2, delta2)]
        while rest:
            bit = rest & (-rest)
            rest -= bit
            lane = bit.bit_length() - 1
            delta = 1 if mask & bit else -1
            totals[lane] += delta
            updates.append((trees[lane], delta))
        while index <= size:
            for tree, delta in updates:
                tree[index] += delta
            index += index & (-index)

    # ------------------------------------------------------------------
    def prefix(self, lane: int, end: int) -> int:
        """Number of slots with the lane bit set in ``[0, end)``."""
        total = 0
        tree = self._trees[lane]
        index = end
        while index > 0:
            total += tree[index]
            index -= index & (-index)
        return total

    def count(self, lane: int, lo: int, hi: int) -> int:
        """Number of slots with the lane bit set in ``[lo, hi)``."""
        if hi <= lo:
            return 0
        return self.prefix(lane, hi) - self.prefix(lane, lo)

    def prefix3(self, lane_a: int, lane_b: int, lane_c: int, end: int) -> tuple[int, int, int]:
        """Three lane prefixes of ``[0, end)`` in a single combined walk.

        The walk indexes are lane-independent, so reading three trees in
        one traversal costs one walk instead of three — the chain-move hot
        path queries the F / non-empty / element lanes at both span
        boundaries on every call.
        """
        tree_a = self._trees[lane_a]
        tree_b = self._trees[lane_b]
        tree_c = self._trees[lane_c]
        a = b = c = 0
        index = end
        while index > 0:
            a += tree_a[index]
            b += tree_b[index]
            c += tree_c[index]
            index -= index & (-index)
        return a, b, c

    def total(self, lane: int) -> int:
        """Number of slots with the lane bit set (``O(1)``)."""
        return self._totals[lane]

    def select(self, lane: int, k: int) -> int:
        """Position of the ``k``-th (1-based) slot with the lane bit set."""
        if k < 1 or k > self._totals[lane]:
            raise IndexError(
                f"select({k}) out of range (lane {lane} total={self._totals[lane]})"
            )
        position = 0
        remaining = k
        bit = self._top_bit
        size = self._size
        tree = self._trees[lane]
        while bit:
            nxt = position + bit
            if nxt <= size and tree[nxt] < remaining:
                position = nxt
                remaining -= tree[nxt]
            bit >>= 1
        return position

    def select_range(self, lane: int, lo: int, hi: int) -> list[int]:
        """Positions with the lane bit set in ``[lo, hi]``, increasing.

        A select-walk: ``O(k log m)`` for ``k`` hits, independent of the
        span ``hi - lo`` — this is what makes sparse chain scans cheap.
        """
        first = self.prefix(lane, lo)
        last = self.prefix(lane, hi + 1)
        return [self.select(lane, k) for k in range(first + 1, last + 1)]

    def rank_of(self, lane: int, position: int) -> int:
        """1-based rank of ``position`` among the lane's set slots."""
        if not self._masks[position] & (1 << lane):
            raise ValueError(f"slot {position} does not have lane {lane} set")
        return self.prefix(lane, position) + 1
