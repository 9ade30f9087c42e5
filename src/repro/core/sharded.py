"""Sharded list labeling: unbounded capacity from fixed-capacity shards.

Every algorithm in :mod:`repro.algorithms` is a fixed-capacity structure —
``insert`` fails once ``capacity`` elements are stored.  The
:class:`ShardedLabeler` removes that ceiling by composing many fixed-size
instances ("shards") behind a rank directory:

* **Directory** — a weighted :class:`repro.core.fenwick.FenwickTree` with
  one position per shard holding that shard's element count.  A global rank
  routes to its shard with ``select(rank)`` and localizes with
  ``rank - prefix(shard)``, both ``O(log K)`` for ``K`` shards.
* **Shards** — any registered algorithm, built through a
  ``factory(capacity)`` callable (the ``ALGORITHM_FACTORIES`` signature used
  throughout the test-suite), each with the same fixed ``shard_capacity``.
* **Split** — a shard reaching the density ceiling (``split_density ×
  shard_capacity``) is rewritten into two half-full shards, growing the
  directory; total capacity therefore grows with the data and no insert is
  ever refused.
* **Merge** — a shard underflowing ``merge_density × shard_capacity`` is
  combined with an adjacent neighbour (re-split evenly when the union would
  itself exceed the ceiling), so sparse regions do not accumulate
  near-empty shards.
* **Fence keys** — the first element of every shard, kept in shard order
  and updated wherever the element→shard index is.  A key search
  (:meth:`ShardedLabeler.count_below`) bisects them to pick one shard, the
  B-tree descent, instead of binary-searching global ranks.

**Labels.**  Globally, an element's label is composed as
``(shard_index << shift) | local_label`` where ``shift`` covers the widest
shard's slot count; shard order follows rank order, so composed labels are
monotone across shard boundaries (:meth:`ShardedLabeler.labels`).  The flat
:meth:`slots` view is the concatenation of the shard arrays, which keeps
:func:`repro.core.validation.check_labeler` applicable unchanged.  A
structural rewrite moves only the elements of the affected shards — elements
of later shards change shard *index* (the label's high bits), not physical
position, which is exactly the economy the directory buys.

**Batches.**  ``insert_batch`` / ``delete_batch`` override the hooks of
:class:`repro.core.interface.ListLabeler`: a pre-batch-rank batch is
partitioned through the directory into per-shard sub-batches (the pre-batch
semantics make the sub-batches independent), each executed as the shard's
own merged rebalance; a sub-batch that would overflow its shard is instead
interleaved with the shard's contents and rewritten into evenly-loaded
fresh shards in one pass.

**One thread.**  The engine holds no lock and starts no thread; a caller
that shares it across threads serializes its calls (the store service
does, under one FIFO lock).  Batches run their per-shard sub-batches
inline: every overflowing sub-batch's rewrite first, descending, then the
plain sub-batches — the order the move logs and layouts are pinned to.

The cost model stays the paper's: every physical element move — including
the rewrites performed by splits and merges — is reported through the
returned :class:`~repro.core.operations.OperationResult` moves, and the
restructuring traffic is additionally counted per kind
(:meth:`ShardedLabeler.restructure_counts`: events and moves, integers
only, so nothing grows per operation);
:func:`repro.analysis.runner.run_workload` attributes the difference over
a run to its :class:`~repro.core.cost.CostTracker`.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from repro import obs
from repro.core.exceptions import BatchError, LabelerError
from repro.core.fenwick import FenwickTree
from repro.core.interface import ListLabeler
from repro.core.operations import Move, Operation, OperationResult

#: Factory signature of the shard building blocks: ``factory(capacity)``.
ShardFactory = Callable[[int], ListLabeler]


class ShardedLabeler(ListLabeler):
    """A list labeler of effectively unbounded capacity.

    Parameters
    ----------
    shard_factory:
        Builds one shard from its capacity; any registered algorithm
        factory works (``lambda cap: ClassicalPMA(cap)``, …).
    shard_capacity:
        Fixed capacity of every shard (``≥ 8``).
    split_density:
        A shard whose size reaches ``split_density × shard_capacity`` is
        split before it can refuse an insertion.
    merge_density:
        A shard whose size falls below ``merge_density × shard_capacity``
        is merged with a neighbour.  Must leave ``merge`` strictly below
        half the split threshold so a merge never immediately re-splits
        back below the floor.
    """

    def __init__(
        self,
        shard_factory: ShardFactory,
        *,
        shard_capacity: int = 64,
        split_density: float = 0.75,
        merge_density: float = 0.15,
        registry=None,
    ) -> None:
        if shard_capacity < 8:
            raise ValueError("shard_capacity must be at least 8")
        if not 0.0 < split_density <= 1.0:
            raise ValueError("split_density must lie in (0, 1]")
        if merge_density < 0.0:
            raise ValueError("merge_density must be non-negative")
        self._shard_capacity = shard_capacity
        self._split_threshold = max(
            4, min(int(split_density * shard_capacity), shard_capacity - 1)
        )
        self._merge_floor = max(1, int(merge_density * shard_capacity))
        self._fill_target = self._split_threshold // 2
        # Every rewrite produces chunks of at least fill_target // 2
        # elements; the merge floor must not exceed that or freshly
        # rebuilt shards would immediately count as underflowing.
        if self._merge_floor > self._fill_target // 2:
            raise ValueError(
                f"merge floor ({self._merge_floor}) must stay at or below a "
                f"quarter of the split threshold ({self._split_threshold})"
            )
        self._shard_factory = shard_factory
        first = shard_factory(shard_capacity)
        super().__init__(first.capacity, first.num_slots)
        self._shards: list[ListLabeler] = [first]
        #: Element → owning shard (the routing reverse index).  Shard
        #: *objects*, not indices: a split/merge shifts the indices of every
        #: later shard, but never which object owns an untouched element, so
        #: maintenance stays proportional to the rewritten region.  The
        #: object → index step goes through :attr:`_shard_pos`, rebuilt with
        #: the directory on every structural change (``O(K)``, already paid
        #: there).
        self._elem_shard: dict[Hashable, ListLabeler] = {}
        #: Fence keys: the first element of each shard, in shard order
        #: (``None`` for an empty shard; between operations only the empty
        #: engine has one).
        #: :meth:`count_below` bisects them to find the one shard a key
        #: falls in; they change only where the reverse index does.
        self._fences: list = [None]
        self._rebuild_directory()

        #: Structural-change counters: a *split* halves one overfull
        #: shard, a *merge* combines an underfull pair, a *borrow*
        #: re-splits a pair whose union would overflow (nothing is
        #: merged), and a *rewrite* absorbs an overflowing sub-batch into
        #: evenly-loaded fresh shards.
        self.splits = 0
        self.merges = 0
        self.borrows = 0
        self.rewrites = 0
        self.restructure_moves = 0
        #: Element moves per restructure kind, counted since construction
        #: or the last :meth:`restore` (snapshots carry only the total).
        self._kind_moves = dict.fromkeys(self._RESTRUCTURE_COUNTERS, 0)
        self.set_registry(registry)

    # ------------------------------------------------------------------
    # Geometry and directory
    # ------------------------------------------------------------------
    @property
    def shard_capacity(self) -> int:
        return self._shard_capacity

    @property
    def split_threshold(self) -> int:
        return self._split_threshold

    @property
    def merge_floor(self) -> int:
        return self._merge_floor

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> Sequence[ListLabeler]:
        """Read-only view of the shard list (rank order)."""
        return tuple(self._shards)

    def shard_sizes(self) -> list[int]:
        return [len(shard) for shard in self._shards]

    def shard_statistics(self) -> dict[str, float]:
        """Aggregate per-shard statistics for reports and the runner."""
        sizes = self.shard_sizes()
        return {
            "shards": float(len(sizes)),
            "splits": float(self.splits),
            "merges": float(self.merges),
            "borrows": float(self.borrows),
            "rewrites": float(self.rewrites),
            "restructure_moves": float(self.restructure_moves),
            "max_shard_size": float(max(sizes, default=0)),
            "min_shard_size": float(min(sizes, default=0)),
        }

    def set_registry(self, registry) -> None:
        """Bind observability instruments to ``registry``.

        Restructure counters mirror the lifetime attributes
        (:attr:`splits` …) into a shared :class:`~repro.obs.MetricsRegistry`
        where they can be read over the wire; the shard-count gauge and the
        per-shard density histogram are refreshed on every restructure.
        Called by :class:`~repro.store.store.DurableStore` to adopt its
        labeler into the store's registry after construction.
        """
        reg = obs.resolve(registry)
        self._obs_enabled = reg.enabled
        self._obs_restructures = {
            kind: reg.counter(f"sharded.{name}")
            for kind, name in self._RESTRUCTURE_COUNTERS.items()
        }
        self._obs_restructure_moves = reg.counter("sharded.restructure_moves")
        self._obs_shards = reg.gauge("sharded.shard_count")
        # Density lives in (0, 1]; doubling buckets from 1/128 give 8
        # meaningful bands ending exactly at a full shard.
        self._obs_density = reg.histogram(
            "sharded.shard_density", start=1.0 / 128.0, factor=2.0, count=8
        )
        if self._obs_enabled:
            self._obs_shards.set(len(self._shards))

    def _rebuild_directory(self) -> None:
        """Rebuild the rank directory and the aggregate geometry.

        Called after every structural change; ``O(K)`` via the bulk Fenwick
        constructor, amortized to ``O(K / shard_capacity)`` per operation by
        the ``Θ(shard_capacity)`` operations between changes.  Shard slot
        counts only change here too, so the global slot offsets are cached
        as a prefix-sum list and every per-operation lookup stays ``O(1)``.
        """
        sizes: list[int] = []
        offsets: list[int] = []
        capacity = 0
        num_slots = 0
        for shard in self._shards:
            sizes.append(len(shard))
            offsets.append(num_slots)
            capacity += shard.capacity
            num_slots += shard.num_slots
        self._directory = FenwickTree.from_values(sizes)
        self._slot_offsets = offsets
        self._capacity = capacity
        self._num_slots = num_slots
        self._shard_pos = {
            id(shard): index for index, shard in enumerate(self._shards)
        }

    def _slot_offset(self, index: int) -> int:
        """First global slot of shard ``index`` in the concatenated view."""
        return self._slot_offsets[index]

    def _locate(self, rank: int) -> tuple[int, int]:
        """Shard index and local rank of the stored element at ``rank``."""
        index = self._directory.select(rank)
        return index, rank - self._directory.prefix(index)

    @staticmethod
    def _first_of(shard: ListLabeler) -> Hashable | None:
        """A shard's fence key: its first element (``None`` when empty)."""
        return shard.select(1) if len(shard) else None

    def _locate_insert(self, rank: int) -> tuple[int, int]:
        """Shard index and local insertion rank for global rank ``rank``."""
        if self._size == 0 or rank > self._size:
            index = len(self._shards) - 1
            return index, rank - self._directory.prefix(index)
        return self._locate(rank)

    # ------------------------------------------------------------------
    # Structural changes (split / merge)
    # ------------------------------------------------------------------
    def _rewrite_region(
        self,
        lo: int,
        hi: int,
        chunks: Sequence[Sequence[Hashable]],
        fresh: frozenset | set = frozenset(),
    ) -> list[Move]:
        """Replace shards ``[lo, hi)`` by fresh shards holding ``chunks``.

        ``chunks`` lists the new shards' contents in global rank order and
        must cover exactly the elements of the replaced shards plus the
        (new) elements in ``fresh``.  Returns one move per element of the
        region: a relocation for survivors, a placement for fresh ones.
        """
        old_positions: dict[Hashable, int] = {}
        for j in range(lo, hi):
            offset = self._slot_offset(j)
            shard = self._shards[j]
            for element in shard.elements():
                old_positions[element] = offset + shard.slot_of(element)
        replacements: list[ListLabeler] = []
        fences: list = []
        for chunk in chunks:
            shard = self._shard_factory(self._shard_capacity)
            shard.bulk_load(chunk)
            replacements.append(shard)
            fences.append(chunk[0])
        if not replacements and hi - lo >= len(self._shards):
            # Rewriting the whole structure away: the canonical empty
            # state is one fresh shard (the constructor's), never zero
            # shards — every rank-routing path assumes at least one.
            replacements = [self._shard_factory(self._shard_capacity)]
            fences = [None]
        self._shards[lo:hi] = replacements
        self._fences[lo:hi] = fences
        self._rebuild_directory()
        moves: list[Move] = []
        elem_shard = self._elem_shard
        for position, shard in enumerate(replacements, start=lo):
            offset = self._slot_offset(position)
            for element in shard.elements():
                source = None if element in fresh else old_positions[element]
                moves.append(Move(element, source, offset + shard.slot_of(element)))
                elem_shard[element] = shard
        return moves

    #: Restructure kind → counter attribute.  Distinct kinds because they
    #: answer different tuning questions: splits/merges track the density
    #: policy, borrows flag a floor/ceiling gap too narrow to merge into,
    #: and rewrites are batch-absorption traffic, not organic growth.
    _RESTRUCTURE_COUNTERS = {
        "split": "splits",
        "merge": "merges",
        "borrow": "borrows",
        "rewrite": "rewrites",
    }

    #: Restructures between full shard-density sweeps (see
    #: :meth:`_record_restructure`).
    _DENSITY_SWEEP_STRIDE = 32

    def restructure_counts(self) -> dict[str, tuple[int, int]]:
        """``(events, moves)`` per restructure kind.

        Lifetime integers: a caller attributes a window of work by the
        difference of two readings, as the workload runner does per run.
        """
        return {
            kind: (getattr(self, counter), self._kind_moves[kind])
            for kind, counter in self._RESTRUCTURE_COUNTERS.items()
        }

    def _record_restructure(self, kind: str, moves: Sequence[Move]) -> None:
        moved = sum(1 for move in moves if move.cost > 0)
        self.restructure_moves += moved
        self._kind_moves[kind] += moved
        counter = self._RESTRUCTURE_COUNTERS[kind]
        setattr(self, counter, getattr(self, counter) + 1)
        self._obs_restructures[kind].inc()
        if moved:
            self._obs_restructure_moves.inc(moved)
        if self._obs_enabled:
            self._obs_shards.set(len(self._shards))
            # A full density sweep is O(K) with a locked observe per
            # shard; amortize it to one sweep per stride restructures so
            # a restructure-heavy ingest never pays a K-proportional
            # instrumentation tax on every split.
            restructures = self.splits + self.merges + self.borrows + self.rewrites
            if restructures % self._DENSITY_SWEEP_STRIDE == 1:
                capacity = float(self._shard_capacity)
                for shard in self._shards:
                    self._obs_density.observe(len(shard) / capacity)

    def _even_chunks(self, contents: Sequence[Hashable]) -> list[list[Hashable]]:
        """Partition ``contents`` into evenly-loaded shard-sized chunks.

        Empty contents partition into *no* chunks: a drained region is
        spliced out of the shard list, never rebuilt as an empty shard
        (which would sit below the merge floor and corrupt the density
        invariant the moment it survived a rebalance).
        """
        total = len(contents)
        if total == 0:
            return []
        count = max(1, math.ceil(total / self._fill_target))
        base, extra = divmod(total, count)
        chunks: list[list[Hashable]] = []
        start = 0
        for j in range(count):
            size = base + (1 if j < extra else 0)
            chunks.append(list(contents[start : start + size]))
            start += size
        return chunks

    def _split_shard(self, index: int) -> list[Move]:
        """Split shard ``index`` into two half-full shards."""
        elements = self._shards[index].elements()
        half = len(elements) // 2
        moves = self._rewrite_region(
            index, index + 1, [elements[:half], elements[half:]]
        )
        self._record_restructure("split", moves)
        return moves

    def _merge_step(self, index: int) -> list[Move]:
        """Merge shard ``index`` with its smaller adjacent neighbour.

        When the union would exceed the split threshold the combined
        contents are instead re-split evenly (a borrow), which still lifts
        the underflowing shard back above the floor.
        """
        if index > 0 and (
            index + 1 >= len(self._shards)
            or len(self._shards[index - 1]) <= len(self._shards[index + 1])
        ):
            lo, hi = index - 1, index + 1
        else:
            lo, hi = index, index + 2
        combined = self._shards[lo].elements() + self._shards[lo + 1].elements()
        if len(combined) > self._split_threshold:
            # Borrow: the union would overflow, so the pair is re-split
            # evenly instead — nothing is merged, and the event is
            # recorded under its own kind.
            half = len(combined) // 2
            chunks: list[list[Hashable]] = [combined[:half], combined[half:]]
            kind = "borrow"
        else:
            # A fully drained pair contributes no chunks and is spliced
            # out (see _even_chunks) instead of rebuilt as an empty shard.
            chunks = [combined] if combined else []
            kind = "merge"
        moves = self._rewrite_region(lo, hi, chunks)
        self._record_restructure(kind, moves)
        return moves

    def _rebalance_underflows(self) -> list[Move]:
        """Merge every underflowing shard, cascading until the policy holds."""
        moves: list[Move] = []
        index = 0
        while index < len(self._shards):
            if (
                len(self._shards) > 1
                and len(self._shards[index]) < self._merge_floor
            ):
                moves.extend(self._merge_step(index))
                index = max(index - 1, 0)
            else:
                index += 1
        return moves

    # ------------------------------------------------------------------
    # Singleton operations
    # ------------------------------------------------------------------
    def _lift_moves(self, moves: Iterable[Move], offset: int) -> list[Move]:
        """Translate shard-local move coordinates into the global view."""
        return [
            Move(
                move.element,
                None if move.source is None else move.source + offset,
                None if move.destination is None else move.destination + offset,
            )
            for move in moves
        ]

    def _insert(self, rank: int, element: Hashable) -> OperationResult:
        result = OperationResult(Operation.insert(rank))
        index, local = self._locate_insert(rank)
        shard = self._shards[index]
        if len(shard) >= self._split_threshold or shard.is_full:
            result.extend(self._split_shard(index))
            index, local = self._locate_insert(rank)
            shard = self._shards[index]
        inner = shard.insert(local, element)
        self._elem_shard[element] = shard
        if local == 1:
            self._fences[index] = element
        self._directory.add(index, 1)
        result.extend(self._lift_moves(inner.moves, self._slot_offset(index)))
        return result

    def _delete(self, rank: int) -> OperationResult:
        result = OperationResult(Operation.delete(rank))
        index, local = self._locate(rank)
        shard = self._shards[index]
        del self._elem_shard[shard.select(local)]
        inner = shard.delete(local)
        if local == 1:
            self._fences[index] = self._first_of(shard)
        self._directory.add(index, -1)
        result.extend(self._lift_moves(inner.moves, self._slot_offset(index)))
        if len(self._shards) > 1 and len(shard) < self._merge_floor:
            result.extend(self._rebalance_underflows())
        return result

    # ------------------------------------------------------------------
    # Batched operations: per-shard sub-batches, merged rebalances
    # ------------------------------------------------------------------
    def _prepare_insert_batch(
        self, items: Sequence[tuple[int, Hashable]]
    ) -> list[tuple[int, Hashable]]:
        """Validate ranks and sort stably — capacity grows on demand."""
        prepared = [(rank, element) for rank, element in items]
        for rank, _ in prepared:
            if not 1 <= rank <= self._size + 1:
                raise BatchError(
                    f"insert_batch rank {rank} out of range for a structure "
                    f"holding {self._size} element(s)"
                )
        prepared.sort(key=lambda item: item[0])
        return prepared

    def _insert_batch(
        self, prepared: Sequence[tuple[int, Hashable]]
    ) -> list[OperationResult]:
        groups: dict[int, list[tuple[int, Hashable]]] = {}
        for rank, element in prepared:
            index, local = self._locate_insert(rank)
            groups.setdefault(index, []).append((local, element))
        # Descending shard order: a rewrite replaces one shard by several,
        # which would shift the indices of every group after it.  The
        # one-group-at-a-time schedule runs group i before any restructure
        # at a lower index, and a restructure at a higher index never moves
        # shard i or its slot offset — so running every overflow
        # restructure first (still descending) and then the non-overflowing
        # groups sees exactly that schedule's state: pre-batch shard
        # objects and pre-batch offsets.  Move logs and layouts are pinned
        # to this order.
        order = sorted(groups, reverse=True)
        shard_at = {index: self._shards[index] for index in order}
        offsets = self._slot_offsets  # replaced, never mutated, on rebuild
        restructured = {
            index: self._absorb_overflowing_batch(index, groups[index])
            for index in order
            if len(shard_at[index]) + len(groups[index]) > self._split_threshold
        }
        results: list[OperationResult] = []
        for index in order:
            if index in restructured:
                results.append(restructured[index])
                continue
            sub = groups[index]
            shard = shard_at[index]
            inner = shard.insert_batch(sub)
            for _, element in sub:
                self._elem_shard[element] = shard
            # The restructures above may have shifted this shard's index;
            # the directory and fence updates target its *current*
            # position, while moves lift with the pre-batch offset.
            position = self._shard_pos[id(shard)]
            self._directory.add(position, len(sub))
            if sub[0][0] == 1:
                # Items sharing local rank 1 land in the order given, so
                # the first of them is the shard's new first element.
                self._fences[position] = sub[0][1]
            offset = offsets[index]
            for item in inner.results:
                lifted = OperationResult(item.operation)
                lifted.extend(self._lift_moves(item.moves, offset))
                results.append(lifted)
        self._size += len(prepared)
        return results

    def _absorb_overflowing_batch(
        self, index: int, sub: Sequence[tuple[int, Hashable]]
    ) -> OperationResult:
        """Interleave ``sub`` with shard ``index`` and rewrite evenly.

        The per-shard analogue of the dense merged rebalance: a sub-batch
        item of local pre-batch rank ``r`` goes immediately before the
        shard element holding rank ``r``, and the union is laid out into
        ``ceil(total / fill_target)`` fresh half-full shards in one pass.
        """
        window = self._shards[index].elements()
        contents: list[Hashable] = []
        fresh: set = set()
        consumed = 0
        for local, element in sub:
            while consumed < local - 1:
                contents.append(window[consumed])
                consumed += 1
            fresh.add(element)
            contents.append(element)
        contents.extend(window[consumed:])
        result = OperationResult(Operation.insert(sub[0][0]))
        moves = self._rewrite_region(
            index, index + 1, self._even_chunks(contents), fresh=fresh
        )
        self._record_restructure("rewrite", moves)
        result.extend(moves)
        return result

    def _delete_batch(self, prepared: Sequence[int]) -> list[OperationResult]:
        groups: dict[int, list[int]] = {}
        for rank in prepared:  # descending, so per-shard locals stay sorted
            index, local = self._locate(rank)
            groups.setdefault(index, []).append(local)
        # No delete restructures mid-batch (underflows rebalance once at
        # the end), so every shard drains in place, in descending order.
        results: list[OperationResult] = []
        for index in sorted(groups, reverse=True):
            locals_ = groups[index]
            shard = self._shards[index]
            victims = [shard.select(local) for local in locals_]
            inner = shard.delete_batch(locals_)
            for element in victims:
                del self._elem_shard[element]
            self._directory.add(index, -len(locals_))
            if locals_[-1] == 1:  # locals descend: the last is smallest
                self._fences[index] = self._first_of(shard)
            offset = self._slot_offset(index)
            for item in inner.results:
                lifted = OperationResult(item.operation)
                lifted.extend(self._lift_moves(item.moves, offset))
                results.append(lifted)
        self._size -= len(prepared)
        rebalance = self._rebalance_underflows()
        if rebalance:
            trailer = OperationResult(Operation.delete(prepared[-1]))
            trailer.extend(rebalance)
            results.append(trailer)
        return results

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------
    def bulk_load(self, elements: Sequence[Hashable]) -> int:
        """Load sorted ``elements`` into evenly-filled fresh shards."""
        elements = list(elements)
        if self._size:
            raise LabelerError("bulk_load requires an empty structure")
        replacements: list[ListLabeler] = []
        total = 0
        self._elem_shard = {}
        # _even_chunks([]) is no chunks; the canonical empty structure is
        # still one fresh shard.
        for chunk in self._even_chunks(elements) or [[]]:
            shard = self._shard_factory(self._shard_capacity)
            total += shard.bulk_load(chunk)
            for element in chunk:
                self._elem_shard[element] = shard
            replacements.append(shard)
        self._shards = replacements
        self._fences = [self._first_of(shard) for shard in replacements]
        self._rebuild_directory()
        self._size = len(elements)
        return total

    # ------------------------------------------------------------------
    # Serialization (snapshot / restore)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Per-shard snapshot: one entry per shard, plus engine counters.

        Each shard contributes its own :meth:`ListLabeler.snapshot`
        document (exact dense layout for every registered algorithm), so a
        restore reproduces not just the element sequence but the shard
        boundaries and every shard's physical slot assignment — which is
        what makes composed labels identical after recovery.
        """
        return {
            "format": "sharded",
            "size": self._size,
            "shard_capacity": self._shard_capacity,
            "shards": [shard.snapshot() for shard in self._shards],
            "counters": {
                "splits": self.splits,
                "merges": self.merges,
                "borrows": self.borrows,
                "rewrites": self.rewrites,
                "restructure_moves": self.restructure_moves,
            },
        }

    def restore(self, state: dict) -> None:
        """Reinstall a :meth:`snapshot` document into this (empty) engine.

        Empty-state round-trips are first-class: restoring a snapshot with
        no shards (or only empty shards) leaves the engine with its single
        fresh shard, exactly like a newly constructed instance, so
        ``snapshot → restore → insert`` works from any state and
        :meth:`check_consistency` holds immediately after the restore.
        """
        if state.get("format") != "sharded":
            super().restore(state)
            return
        if self._size:
            raise LabelerError("restore requires an empty structure")
        if state["shard_capacity"] != self._shard_capacity:
            raise LabelerError(
                f"snapshot shard capacity {state['shard_capacity']} does not "
                f"match this engine's {self._shard_capacity}"
            )
        shards: list[ListLabeler] = []
        self._elem_shard = {}
        for shard_state in state["shards"]:
            shard = self._shard_factory(self._shard_capacity)
            shard.restore(shard_state)
            for element in shard.elements():
                self._elem_shard[element] = shard
            shards.append(shard)
        if not shards:
            # A zero-shard engine would break every rank-routing path; the
            # canonical empty state is one fresh shard (the constructor's).
            shards = [self._shard_factory(self._shard_capacity)]
        self._shards = shards
        self._fences = [self._first_of(shard) for shard in shards]
        self._rebuild_directory()
        self._size = sum(len(shard) for shard in shards)
        if self._size != state["size"]:
            raise LabelerError(
                f"snapshot records {state['size']} element(s) but its shards "
                f"hold {self._size}"
            )
        counters = state.get("counters") or {}
        self.splits = counters.get("splits", 0)
        self.merges = counters.get("merges", 0)
        self.borrows = counters.get("borrows", 0)
        self.rewrites = counters.get("rewrites", 0)
        self.restructure_moves = counters.get("restructure_moves", 0)
        self._kind_moves = dict.fromkeys(self._RESTRUCTURE_COUNTERS, 0)

    # ------------------------------------------------------------------
    # Physical views
    # ------------------------------------------------------------------
    def slots(self) -> Sequence[Hashable | None]:
        flat: list[Hashable | None] = []
        for shard in self._shards:
            flat.extend(shard.slots())
        return tuple(flat)

    def elements(self) -> list[Hashable]:
        out: list[Hashable] = []
        for shard in self._shards:
            out.extend(shard.elements())
        return out

    def slot_of(self, element: Hashable) -> int:
        """Global slot in the concatenated view, routed in ``O(1)`` + one
        indexed shard query.

        The element → shard reverse index replaces the ``O(K)`` probe loop
        that scanned every shard until one answered (still available as
        :meth:`_slot_of_probe` for the regression benchmark): a hit costs
        two dict lookups plus the owning shard's own indexed ``slot_of``,
        independent of the shard count.
        """
        shard = self._elem_shard.get(element)
        if shard is None:
            raise KeyError(f"element {element!r} is not stored")
        index = self._shard_pos[id(shard)]
        return self._slot_offsets[index] + shard.slot_of(element)

    def rank_of(self, element: Hashable) -> int:
        """1-based global rank: reverse-index route + one directory prefix."""
        shard = self._elem_shard.get(element)
        if shard is None:
            raise KeyError(f"element {element!r} is not stored")
        index = self._shard_pos[id(shard)]
        return self._directory.prefix(index) + shard.rank_of(element)

    def contains(self, element: Hashable) -> bool:
        """Membership in ``O(1)`` through the reverse index."""
        return element in self._elem_shard

    def _slot_of_probe(self, element: Hashable) -> int:
        """The pre-index ``O(K)`` probe loop, kept as the benchmark foil.

        Probes every shard in order (via its ``contains`` when it has one)
        until one owns the element — the behaviour :meth:`slot_of` had
        before the routing index, preserved verbatim so the regression
        benchmark can measure the routed path against it on identical
        structures.
        """
        offset = 0
        for shard in self._shards:
            has = getattr(shard, "contains", None)
            if has is not None:
                if has(element):
                    return offset + shard.slot_of(element)
            else:
                try:
                    return offset + shard.slot_of(element)
                except KeyError:
                    pass
            offset += shard.num_slots
        raise KeyError(f"element {element!r} is not stored")

    def _rank_of_probe(self, element: Hashable) -> int:
        """The pre-index ``O(K)`` rank probe loop (benchmark foil)."""
        below = 0
        for shard in self._shards:
            has = getattr(shard, "contains", None)
            if has is not None:
                if has(element):
                    return below + shard.rank_of(element)
            else:
                try:
                    return below + shard.rank_of(element)
                except KeyError:
                    pass
            below += len(shard)
        raise KeyError(f"element {element!r} is not stored")

    # ------------------------------------------------------------------
    # Read path: directory-routed selects and cross-shard streaming
    # ------------------------------------------------------------------
    def select(self, rank: int) -> Hashable:
        """The ``rank``-th element: one directory select + one shard select."""
        self._check_read_rank(rank, "select")
        index, local = self._locate(rank)
        return self._shards[index].select(local)

    def count_below(self, key, *, strict: bool = True) -> int:
        """Stored elements ``< key`` (``<= key`` when not strict).

        A fence-key descent (Graefe, *Modern B-Tree Techniques*, 2011):
        bisecting the shards' first elements finds the last shard that
        starts at or below the key.  Every earlier shard lies wholly below
        the key and every later one wholly above it, so one directory
        prefix counts the earlier shards and that one shard counts its own
        part, strict or not — ``O(log K)`` plus one shard search, where a
        rank search over :meth:`select` pays ``O(log n)`` selects.
        """
        if not self._size:
            return 0
        index = bisect.bisect_right(self._fences, key) - 1
        if index < 0:
            return 0
        return self._directory.prefix(index) + self._shards[index].count_below(
            key, strict=strict
        )

    def _iter_from(self, rank: int) -> Iterator[Hashable]:
        """Stream across shard boundaries without concatenating shards.

        The directory routes the start rank to its shard; that shard's own
        lazy ``iter_from`` is drained, then each later shard streams from
        its first element.  No shard's contents are materialized, so
        consuming a short prefix touches only the shards it crosses.
        """
        if rank > self._size:
            return
        index, local = self._locate(rank)
        yield from self._shards[index].iter_from(local)
        for later in range(index + 1, len(self._shards)):
            shard = self._shards[later]
            if len(shard):
                yield from shard.iter_from(1)

    def count_range(self, lo: int, hi: int) -> int:
        """Stored elements in the global slot window ``[lo, hi)``.

        Fenwick-prefix composition: the boundary shards answer their
        partial windows with their own occupancy counts, and every fully
        covered shard in between contributes through one rank-directory
        prefix difference (``O(log K)``) — no per-shard iteration.
        """
        lo = max(0, lo)
        hi = min(self._num_slots, hi)
        if hi <= lo:
            return 0
        offsets = self._slot_offsets
        first = bisect.bisect_right(offsets, lo) - 1
        last = bisect.bisect_right(offsets, hi - 1) - 1
        if first == last:
            return self._shards[first].count_range(
                lo - offsets[first], hi - offsets[first]
            )
        first_shard = self._shards[first]
        total = first_shard.count_range(lo - offsets[first], first_shard.num_slots)
        total += self._directory.prefix(last) - self._directory.prefix(first + 1)
        total += self._shards[last].count_range(0, hi - offsets[last])
        return total

    def slot_of_rank(self, rank: int) -> int:
        """Global slot of the ``rank``-th element (directory + shard index)."""
        self._check_read_rank(rank, "select")
        index, local = self._locate(rank)
        return self._slot_offsets[index] + self._shards[index].slot_of_rank(local)

    @property
    def label_shift(self) -> int:
        """Bits reserved for the local label in a composed global label."""
        return max(
            (shard.num_slots for shard in self._shards),
            default=self._shard_capacity,
        ).bit_length()

    def labels(self) -> dict[Hashable, int]:
        """Composed labels ``(shard_index << shift) | local_label``.

        Shard order follows rank order and local labels are monotone inside
        each shard, so composed labels are monotone in rank globally — the
        list-labeling contract — while a structural rewrite renumbers only
        the affected shards' elements (plus the high bits of later shards).
        """
        shift = self.label_shift
        composed: dict[Hashable, int] = {}
        for index, shard in enumerate(self._shards):
            for element, local in shard.labels().items():
                composed[element] = (index << shift) | local
        return composed

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check_consistency(self, key=None) -> None:
        """Check every structural invariant of the sharding engine.

        Verifies the directory against the true shard sizes, the fence
        keys against the shards' first elements, the aggregate geometry,
        the density policy (no shard above the split ceiling, none below
        the merge floor unless it is the only shard), and recursively the
        shards' own consistency where they expose it.
        """
        from repro.core.exceptions import InvariantViolation

        total = 0
        for index, shard in enumerate(self._shards):
            if self._directory.value(index) != len(shard):
                raise InvariantViolation(
                    f"directory records {self._directory.value(index)} elements "
                    f"for shard {index} which holds {len(shard)}"
                )
            if len(shard) > self._split_threshold:
                raise InvariantViolation(
                    f"shard {index} holds {len(shard)} elements, above the "
                    f"split threshold {self._split_threshold}"
                )
            if len(self._shards) > 1 and len(shard) < self._merge_floor:
                raise InvariantViolation(
                    f"shard {index} holds {len(shard)} elements, below the "
                    f"merge floor {self._merge_floor}"
                )
            total += len(shard)
            inner_check = getattr(shard, "check_consistency", None)
            if callable(inner_check):
                inner_check(key=key)
        if total != self._size:
            raise InvariantViolation(
                f"shard sizes sum to {total} but the engine reports {self._size}"
            )
        if len(self._elem_shard) != self._size:
            raise InvariantViolation(
                f"routing index holds {len(self._elem_shard)} entries for "
                f"{self._size} stored element(s)"
            )
        if len(self._fences) != len(self._shards):
            raise InvariantViolation(
                f"{len(self._fences)} fence key(s) for {len(self._shards)} shard(s)"
            )
        for index, shard in enumerate(self._shards):
            if self._shard_pos.get(id(shard)) != index:
                raise InvariantViolation(
                    f"shard position index out of date for shard {index}"
                )
            if self._fences[index] != self._first_of(shard):
                raise InvariantViolation(
                    f"fence key {self._fences[index]!r} of shard {index} is not "
                    f"its first element {self._first_of(shard)!r}"
                )
            for element in shard.elements():
                if self._elem_shard.get(element) is not shard:
                    raise InvariantViolation(
                        f"routing index misroutes element {element!r} "
                        f"(expected shard {index})"
                    )
        if self._capacity != sum(shard.capacity for shard in self._shards):
            raise InvariantViolation("aggregate capacity drifted")
        if self._num_slots != sum(shard.num_slots for shard in self._shards):
            raise InvariantViolation("aggregate slot count drifted")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"{type(self).__name__}(shards={len(self._shards)}, "
            f"shard_capacity={self._shard_capacity}, size={self._size})"
        )
