"""Seeded, lazily built operation streams for the three workloads.

Each stream is a generator that yields ``(op, expected)`` pairs one at a
time, so the generator never holds the whole run in memory.  ``op`` is a
tuple the workload runner hands to the program; ``expected`` is the
answer the model predicts for it (``None`` for mutations).  The model is
a dict plus a sorted key list, updated as each op is yielded, so a
runner must execute every op it draws, in order.

Nothing here imports the program: the program receives only the
generated inputs.  The same ``seed`` gives the same stream in any
process (string seeds go through ``random``'s sha512 path, not
``hash()``).
"""

from __future__ import annotations

import bisect
import hashlib
import random

#: Integer keys are drawn from ``[0, KEY_SPACE)``.
KEY_SPACE = 1 << 48

#: Page size of a RANGE in the store workloads, and of a range read in the
#: layered workload.
STORE_PAGE = 32
LAYERED_PAGE = 8


class Model:
    """The reference state: a dict plus the sorted list of its keys."""

    def __init__(self) -> None:
        self.values: dict[int, str] = {}
        self.keys: list[int] = []

    def __len__(self) -> int:
        return len(self.keys)

    def put(self, key: int, value) -> None:
        if key not in self.values:
            bisect.insort(self.keys, key)
        self.values[key] = value

    def load(self, items) -> None:
        self.values.update(items)
        self.keys = sorted(self.values)

    def delete_at(self, index: int) -> int:
        key = self.keys.pop(index)
        del self.values[key]
        return key

    def page(self, low: int, limit: int) -> list[tuple[int, object]]:
        start = bisect.bisect_left(self.keys, low)
        return [(key, self.values[key]) for key in self.keys[start : start + limit]]

    def count(self, low: int, high: int) -> int:
        return bisect.bisect_right(self.keys, high) - bisect.bisect_left(self.keys, low)

    def successor(self, probe: int):
        index = bisect.bisect_right(self.keys, probe)
        return self.keys[index] if index < len(self.keys) else None


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _value(rng: random.Random) -> str:
    return f"{rng.getrandbits(48):012x}"


def _fresh_key(rng: random.Random, model: Model) -> int:
    while True:
        key = rng.randrange(KEY_SPACE)
        if key not in model.values:
            return key


def preload_items(rng: random.Random, count: int) -> list[tuple[int, str]]:
    """``count`` distinct uniform keys with values, in draw order."""
    seen: set[int] = set()
    items = []
    while len(items) < count:
        key = rng.randrange(KEY_SPACE)
        if key not in seen:
            seen.add(key)
            items.append((key, _value(rng)))
    return items


class Zipfian:
    """YCSB's zipfian rank sampler (Gray et al.): O(n) set-up, O(1) draws."""

    def __init__(self, n: int, theta: float = 0.99) -> None:
        self.n = n
        self.theta = theta
        self.zetan = sum(1.0 / (i**theta) for i in range(1, n + 1))
        zeta2 = 1.0 + 0.5**theta
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - zeta2 / self.zetan)
        self.half_pow = 0.5**theta

    def draw(self, rng: random.Random) -> int:
        u = rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + self.half_pow:
            return 1
        return min(self.n - 1, int(self.n * (self.eta * u - self.eta + 1.0) ** self.alpha))


class Stream:
    """A workload's set-up data and its lazy timed-op generator."""

    def __init__(self, workload: str, seed: int, ops: int) -> None:
        self.workload = workload
        self.seed = seed
        self.ops = ops
        self.rng = _rng(workload, seed)
        self.model = Model()
        self._digest = hashlib.sha256()
        self.preload: list[tuple[int, str]] = []

    def digest(self) -> str:
        """sha256 over every op drawn so far (set-up data included)."""
        return self._digest.hexdigest()

    def _note(self, op) -> None:
        self._digest.update(repr(op).encode())

    def __iter__(self):
        for op, expected in self._generate():
            self._note(op)
            yield op, expected


class WireReadMostly(Stream):
    """90% zipfian GET of a preloaded key, 5% new-key PUT, 5% RANGE page.

    YCSB workload B's read/update split (Cooper et al., SoCC 2010) with
    the updates as inserts, so every PUT exercises the map's rank search.
    """

    PRELOAD = 100_000

    def __init__(self, seed: int, ops: int) -> None:
        super().__init__("wire_read_mostly", seed, ops)
        self.preload = preload_items(self.rng, self.PRELOAD)
        self._note(self.preload)
        self.model.load(self.preload)
        hot_order = [key for key, _ in self.preload]
        self.rng.shuffle(hot_order)
        self._hot = hot_order
        self._zipf = Zipfian(len(hot_order))

    def _generate(self):
        rng, model = self.rng, self.model
        for _ in range(self.ops):
            roll = rng.random()
            if roll < 0.90:
                key = self._hot[self._zipf.draw(rng)]
                yield ("get", key), model.values[key]
            elif roll < 0.95:
                key = _fresh_key(rng, model)
                value = _value(rng)
                model.put(key, value)
                yield ("put", key, value), None
            else:
                low = rng.randrange(KEY_SPACE)
                yield ("range", low, STORE_PAGE), model.page(low, STORE_PAGE)


class EmbeddedChurn(Stream):
    """35% new-key PUT, 30% DELETE, 15% GET, 15% RANGE page, 5% COUNT_RANGE."""

    PRELOAD = 50_000
    #: Width of a COUNT_RANGE interval: about 1% of the key space.
    COUNT_WIDTH = KEY_SPACE // 100

    def __init__(self, seed: int, ops: int) -> None:
        super().__init__("embedded_churn", seed, ops)
        self.preload = preload_items(self.rng, self.PRELOAD)
        self._note(self.preload)
        self.model.load(self.preload)

    def _generate(self):
        rng, model = self.rng, self.model
        for _ in range(self.ops):
            roll = rng.random()
            if roll < 0.35:
                key = _fresh_key(rng, model)
                value = _value(rng)
                model.put(key, value)
                yield ("put", key, value), None
            elif roll < 0.65:
                key = model.delete_at(rng.randrange(len(model)))
                yield ("del", key), None
            elif roll < 0.80:
                key = model.keys[rng.randrange(len(model))]
                yield ("get", key), model.values[key]
            elif roll < 0.95:
                low = rng.randrange(KEY_SPACE)
                yield ("range", low, STORE_PAGE), model.page(low, STORE_PAGE)
            else:
                low = rng.randrange(KEY_SPACE - self.COUNT_WIDTH)
                high = low + self.COUNT_WIDTH
                yield ("count", low, high), model.count(low, high)


class LayeredAdaptive(Stream):
    """Uniform, hammer and ascending-run insert phases at ~75% occupancy.

    The stream cycles through three insert patterns, ``PHASE_OPS`` ops
    each: uniform keys; a hammer, where every key lands just after one
    hot key (each new key is smaller than the last but still above the
    hot key, so it takes the hot key's rank + 1); and an ascending run,
    where every key lands just after the previous one, starting after a
    random live key.  Mutations are 80% of the ops; a delete (of a
    uniform live key) follows whenever occupancy is at or above the
    target, so occupancy stays near ``OCCUPANCY`` of the capacity.  The
    other 20% are reads: range reads of ``LAYERED_PAGE`` and seeks (the
    first key after a uniform probe).

    The runs start at a random key rather than past the largest one:
    appending past the maximum piled every run onto the same tail, so
    each append phase cost more than the last and a run's total varied
    by 25-40% between seeds.
    """

    PHASE_OPS = 600
    OCCUPANCY = 0.75

    def __init__(self, seed: int, ops: int, capacity: int) -> None:
        super().__init__("layered_adaptive", seed, ops)
        self.capacity = capacity
        self.target = int(self.OCCUPANCY * capacity)
        self.preload = preload_items(self.rng, self.target)
        self._note(self.preload)
        self.model.load(self.preload)

    def _insert_key(self, phase: int, state: dict) -> int:
        rng, model = self.rng, self.model
        if phase == 1 and state["next"] > state["hot"]:
            # Counting down from the hot key's successor: each key is the
            # new successor of the hot key, so it lands at its rank + 1.
            key = state["next"]
            state["next"] -= 1
            return key
        if phase == 2:
            key = state["run"] + 1 + rng.randrange(1 << 20)
            if key < state["run_ceiling"]:
                state["run"] = key
                return key
        return _fresh_key(rng, model)

    def _gap_after(self, key: int) -> int:
        """The smallest stored key above ``key`` (the end of its gap)."""
        above = bisect.bisect_right(self.model.keys, key)
        return self.model.keys[above] if above < len(self.model) else KEY_SPACE

    def _generate(self):
        rng, model = self.rng, self.model
        state: dict = {}
        for index in range(self.ops):
            phase = (index // self.PHASE_OPS) % 3
            if index % self.PHASE_OPS == 0 and phase == 1:
                hot = model.keys[rng.randrange(len(model))]
                state["hot"], state["next"] = hot, self._gap_after(hot) - 1
            elif index % self.PHASE_OPS == 0 and phase == 2:
                start = model.keys[rng.randrange(len(model))]
                state["run"], state["run_ceiling"] = start, self._gap_after(start)
            roll = rng.random()
            if roll < 0.10:
                low = rng.randrange(KEY_SPACE)
                yield ("range", low, LAYERED_PAGE), model.page(low, LAYERED_PAGE)
            elif roll < 0.20:
                probe = rng.randrange(KEY_SPACE)
                yield ("seek", probe), model.successor(probe)
            elif len(model) >= self.target:
                key = model.delete_at(rng.randrange(len(model)))
                yield ("del", key), None
            else:
                key = self._insert_key(phase, state)
                model.put(key, index)
                yield ("put", key, index), None
