"""FIG-1/2/3/4 — structural renderings of the paper's illustrative figures.

The four figures of the paper are diagrams of data-structure state, not
measurements; this benchmark regenerates each of them from a live embedding:

* Figure 1 — the three views of the array (embedding / F-emulator / R-shell);
* Figure 2 — a deadweight move: the per-element deadweight counters;
* Figure 3 — rebuild intervals of a pending checkpoint;
* Figure 4 — executing a rebuild interval step by step.
"""

from __future__ import annotations

from fractions import Fraction

from benchmarks.conftest import emit
from repro.algorithms import ClassicalPMA, NaiveLabeler
from repro.core import Embedding
from repro.core.rebuild import build_plan


def test_render_paper_figures(run_once):
    def experiment():
        embedding = Embedding(
            24,
            fast_factory=lambda cap, slots: NaiveLabeler(cap, slots),
            reliable_factory=lambda cap, slots: ClassicalPMA(cap, slots),
            reliable_expected_cost=4,
        )
        key = Fraction(0)
        for _ in range(18):
            embedding.insert(1, key)
            key -= 1
        views = embedding.render_views()
        shadow = list(embedding.emulator.shadow)
        checkpoint = list(embedding.emulator.simulated.slots())
        steps, _ = build_plan(shadow, checkpoint)
        deadweight = dict(embedding.physical.deadweight_by_element)
        return views, steps, deadweight, embedding

    views, steps, deadweight, embedding = run_once(experiment)

    print("\nFIG-1: the three views of the array (F/f = F-slot, B/b = buffer, . = R-empty;")
    print("       upper case = occupied by a real element)")
    print("  embedding view :", views["embedding"])
    print("  F-emulator view:", views["f_emulator"])
    print("  R-shell view   :", views["r_shell"])

    rows = [
        {"figure": "FIG-2", "quantity": "total deadweight moves", "value": embedding.deadweight_moves},
        {"figure": "FIG-2", "quantity": "max deadweight per element", "value": max(deadweight.values(), default=0)},
        {"figure": "FIG-3", "quantity": "pending rebuild steps", "value": len(steps)},
        {"figure": "FIG-4", "quantity": "buffered elements awaiting incorporation", "value": embedding.buffered_elements},
    ]
    emit("FIG-2/3/4: deadweight counters and the pending rebuild plan", rows,
         note="Run examples/figure2_deadweight.py and examples/figure34_rebuild.py "
         "for step-by-step traces of the same structures.")

    assert len(views["embedding"]) == embedding.num_slots
    assert embedding.elements() == sorted(embedding.elements())
