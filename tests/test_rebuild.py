"""Unit tests for rebuild-plan construction (Figures 3 and 4)."""

from __future__ import annotations

from repro.core.rebuild import (
    CLEANUP,
    INCORPORATE,
    PLACE,
    RebuildPlan,
    RebuildStep,
    build_plan,
    _interval_boundaries,
)


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
        plan = build_plan(shadow, checkpoint)
        state = list(shadow)
        position = {item: idx for idx, item in enumerate(state) if item is not None}
        while not plan.is_complete:
            step = plan.advance()
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
        plan = build_plan(shadow, checkpoint)
        kinds = [step.kind for step in plan.pending_steps()]
        assert kinds == [CLEANUP]

    def test_new_elements_get_incorporate_steps(self):
        shadow = ["a", None, "c"]
        checkpoint = ["a", "b", "c"]
        plan = build_plan(shadow, checkpoint)
        steps = plan.pending_steps()
        assert len(steps) == 1
        assert steps[0].kind == INCORPORATE
        assert steps[0].target_f_index == 1

    def test_target_slots_are_free_when_reached(self):
        """Simulate the plan and assert no step overwrites a live entry."""
        shadow = [None, "b", "c", "d", None, None]
        checkpoint = ["a", "b", "c", None, "d", "e"]
        plan = build_plan(shadow, checkpoint)
        state = list(shadow)
        position = {item: idx for idx, item in enumerate(state) if item is not None}
        for step in plan.pending_steps():
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

    def test_targets_map_every_checkpoint_name(self):
        """The plan's name → F-index map covers the checkpoint, clean
        names included, and nothing else."""
        shadow = ["a", "gone", None, "d"]
        checkpoint = ["a", None, "b", "d"]
        plan = build_plan(shadow, checkpoint)
        assert plan.targets == {"a": 0, "b": 2, "d": 3}

    def test_identical_states_produce_empty_plan(self):
        state = ["a", None, "b"]
        plan = build_plan(state, list(state))
        assert plan.total_steps == 0
        assert plan.is_complete


class TestPlanObject:
    def test_cursor_and_peek(self):
        plan = RebuildPlan(
            [RebuildStep(PLACE, "a", 1, 0), RebuildStep(PLACE, "b", 2, 1)],
            {"a": 1, "b": 2},
        )
        assert plan.remaining_steps == 2
        assert plan.peek().name == "a"
        plan.advance()
        assert plan.remaining_steps == 1
        plan.advance()
        assert plan.is_complete
        assert plan.peek() is None
