"""Unit tests for rebuild-plan construction (Figures 3 and 4)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rebuild import (
    CLEANUP,
    INCORPORATE,
    PLACE,
    RebuildStep,
    build_plan,
    _interval_boundaries,
)


def reference_plan(shadow, checkpoint):
    """The planner as first written, kept as the oracle: dirty intervals
    from one pass, and every name's position in either state from two
    name → index maps over the whole array."""
    shadow_pos = {item: idx for idx, item in enumerate(shadow) if item is not None}
    checkpoint_pos = {item: idx for idx, item in enumerate(checkpoint) if item is not None}
    intervals, start, dirty = [], None, False
    for index, (before, after) in enumerate(zip(shadow, checkpoint)):
        if before == after and before is not None:
            if start is not None and dirty:
                intervals.append((start, index - 1))
            start, dirty = None, False
            continue
        if start is None:
            start = index
        dirty = dirty or before != after
    if start is not None and dirty:
        intervals.append((start, len(shadow) - 1))

    steps = []
    for lo, hi in intervals:
        for index in range(lo, hi + 1):
            item = shadow[index]
            if item is not None and item not in checkpoint_pos:
                steps.append(RebuildStep(CLEANUP, item))
        lowering, raising_or_new = [], []
        for target in range(lo, hi + 1):
            item = checkpoint[target]
            if item is None:
                continue
            source = shadow_pos.get(item)
            if source is None:
                raising_or_new.append(RebuildStep(INCORPORATE, item, target))
            elif target < source:
                lowering.append(RebuildStep(PLACE, item, target, source))
            elif target > source:
                raising_or_new.append(RebuildStep(PLACE, item, target, source))
        steps.extend(lowering)
        steps.extend(reversed(raising_or_new))
    return steps


@st.composite
def state_pairs(draw):
    """``(shadow, checkpoint)`` over ``m`` F-slots: the live names
    ``0 … k-1`` appear in that order in both states, ghosts only in the
    shadow and new names only in the checkpoint, each interleaved with the
    live names at random and laid out on random increasing slots."""
    live = list(range(draw(st.integers(0, 10))))
    ghosts = [f"g{index}" for index in range(draw(st.integers(0, 4)))]
    new = [f"n{index}" for index in range(draw(st.integers(0, 4)))]
    slack = draw(st.integers(0, 6))
    size = max(len(live) + len(ghosts), len(live) + len(new)) + slack

    def layout(others):
        order = draw(st.permutations([True] * len(live) + [False] * len(others)))
        live_left, others_left = iter(live), iter(others)
        names = [next(live_left) if is_live else next(others_left) for is_live in order]
        slots = sorted(
            draw(st.lists(st.integers(0, max(size - 1, 0)), min_size=len(names),
                          max_size=len(names), unique=True))
        )
        state = [None] * size
        for slot, name in zip(slots, names):
            state[slot] = name
        return state

    return layout(ghosts), layout(new)


class TestIntervals:
    def test_no_difference_means_no_intervals(self):
        state = ["a", None, "b"]
        assert _interval_boundaries(state, list(state)) == []

    def test_single_dirty_interval(self):
        shadow = ["a", "b", None, "c"]
        checkpoint = ["a", None, "b", "c"]
        assert _interval_boundaries(shadow, checkpoint) == [(1, 2)]

    def test_clean_occupied_slots_delimit(self):
        # Mirrors Figure 3: two disjoint dirty regions separated by clean slots.
        shadow = ["a", "b", None, "e", "f", None, "i", "j"]
        checkpoint = ["a", None, "b", "e", "f", "x", "i", "j"]
        intervals = _interval_boundaries(shadow, checkpoint)
        assert intervals == [(1, 2), (5, 5)]

    def test_empty_in_both_does_not_split(self):
        shadow = ["a", "b", None, "c", None]
        checkpoint = ["a", None, None, "b", "c"]
        assert _interval_boundaries(shadow, checkpoint) == [(1, 4)]


class TestPlanConstruction:
    def test_plan_reaches_checkpoint_when_simulated(self):
        shadow = ["a", "c", None, "d", None, "g"]
        checkpoint = ["a", "b", "c", "d", "e", "g"]
        steps, _ = build_plan(shadow, checkpoint)
        state = list(shadow)
        position = {item: idx for idx, item in enumerate(state) if item is not None}
        for step in steps:
            if step.kind == CLEANUP:
                state[position.pop(step.name)] = None
            else:
                if step.name in position:
                    state[position[step.name]] = None
                state[step.target_f_index] = step.name
                position[step.name] = step.target_f_index
        assert state == checkpoint

    def test_deleted_elements_get_cleanup_steps(self):
        shadow = ["a", "b", "c"]
        checkpoint = ["a", None, "c"]
        steps, _ = build_plan(shadow, checkpoint)
        assert [step.kind for step in steps] == [CLEANUP]

    def test_new_elements_get_incorporate_steps(self):
        shadow = ["a", None, "c"]
        checkpoint = ["a", "b", "c"]
        steps, _ = build_plan(shadow, checkpoint)
        assert steps == [RebuildStep(INCORPORATE, "b", 1)]

    def test_target_slots_are_free_when_reached(self):
        """Simulate the plan and assert no step overwrites a live entry."""
        shadow = [None, "b", "c", "d", None, None]
        checkpoint = ["a", "b", "c", None, "d", "e"]
        steps, _ = build_plan(shadow, checkpoint)
        state = list(shadow)
        position = {item: idx for idx, item in enumerate(state) if item is not None}
        for step in steps:
            if step.kind == CLEANUP:
                state[position.pop(step.name)] = None
                continue
            target = step.target_f_index
            assert state[target] is None or state[target] == step.name
            if step.kind == PLACE:
                assert position[step.name] == step.source_f_index
            if step.name in position:
                state[position[step.name]] = None
            state[target] = step.name
            position[step.name] = target
        assert state == checkpoint

    def test_targets_map_the_moved_and_incorporated_names(self):
        """The name → F-index map holds the names the steps move or
        incorporate; a clean name and a ghost are not in it."""
        shadow = ["a", "gone", "c", None, "d"]
        checkpoint = ["a", "c", None, "b", "d"]
        steps, targets = build_plan(shadow, checkpoint)
        assert steps == [
            RebuildStep(CLEANUP, "gone"),
            RebuildStep(PLACE, "c", 1, 2),
            RebuildStep(INCORPORATE, "b", 3),
        ]
        assert targets == {"c": 1, "b": 3}

    def test_identical_states_produce_empty_plan(self):
        state = ["a", None, "b"]
        assert build_plan(state, list(state)) == ([], {})

    @settings(max_examples=300, deadline=None)
    @given(state_pairs())
    def test_matches_the_whole_array_planner(self, states):
        """Per-interval maps give the steps of the planner that maps every
        F-slot, and the target map names exactly the PLACE and INCORPORATE
        steps' names."""
        shadow, checkpoint = states
        steps, targets = build_plan(shadow, checkpoint)
        assert steps == reference_plan(shadow, checkpoint)
        assert targets == {
            step.name: step.target_f_index for step in steps if step.kind != CLEANUP
        }
