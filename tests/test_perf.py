"""Tests for the ``repro.perf`` subsystem and the committed baselines.

Covers four fences:

* the six committed ``BENCH_*.json`` artifacts carry the schema
  (version 3, seed, exact fields only — no timing field) and the
  acceptance numbers (move logs bit-identical, the latency suite's tail
  inversion);
* the comparator fails (nonzero exit) on >25% move-count regressions and
  on any false correctness flag (a ``bool`` field), while any other drift
  warns;
* quick regeneration in *this* process matches the committed documents
  exactly, with zero warnings;
* determinism: two **fresh processes** with the same seed produce
  byte-identical documents for every suite, and seeded randomized/adaptive
  labelers produce identical move logs (hash randomization between
  processes would expose any hidden set/dict-order dependence).
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro.perf.__main__ as perf_cli
from repro.perf.baseline import (
    DEFAULT_SEED,
    MOVE_METRICS,
    SCHEMA_VERSION,
    SUITES,
    TRAJECTORY_LIMIT,
    append_trajectory,
    baseline_filename,
    compare_baselines,
    generate_suite,
    load_baseline,
    trajectory_entry,
    write_baseline,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"

#: Name fragments of timing fields, none of which a baseline may carry.
TIMING_FRAGMENTS = (
    "seconds", "per_second", "speedup", "overhead_fraction", "latency_",
)


def _committed(suite: str) -> dict:
    path = REPO_ROOT / baseline_filename(suite)
    assert path.exists(), f"committed baseline {path} is missing"
    return load_baseline(path)


class TestCommittedBaselines:
    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_schema(self, suite):
        document = _committed(suite)
        assert document["schema_version"] == SCHEMA_VERSION == 3
        assert document["suite"] == suite
        assert isinstance(document["seed"], int)
        assert document["quick"] is False
        assert document["scenarios"]
        for entry in document["scenarios"].values():
            assert entry["sizes"]
            for metrics in entry["sizes"].values():
                assert "operations" in metrics
                # Exact fields only: moves, counts and correctness flags.
                for metric in metrics:
                    assert not any(
                        fragment in metric for fragment in TIMING_FRAGMENTS
                    ), metric
                assert any(
                    metric in MOVE_METRICS or isinstance(value, bool)
                    for metric, value in metrics.items()
                )

    def test_core_acceptance_numbers(self):
        document = _committed("core")
        entry = document["scenarios"]["insert_heavy"]["sizes"]["4096"]
        # Bit-identical moves between the slab array and the seed physical
        # layer (benchmarks/bench_wire_speed.py times the two replays).
        assert entry["moves_match"] is True
        assert entry["moves"] == entry["reference_moves"]
        for sizes in (
            entry
            for scenario in document["scenarios"].values()
            for entry in scenario["sizes"].values()
        ):
            if "moves_match" in sizes:
                assert sizes["moves_match"] is True

    def test_quick_regeneration_matches_committed_move_counts(self):
        document = _committed("core")
        fresh = generate_suite("core", quick=True, seed=document["seed"])
        comparison = compare_baselines(document, fresh)
        assert comparison.ok, comparison.failures
        # Determinism is stronger than the tolerance: zero warnings.
        assert not comparison.warnings, comparison.warnings

    def test_latency_acceptance_numbers(self):
        # The latency suite's acceptance row: under the cliff-chaser the
        # deamortized PMA must beat classical on p999 move cost while
        # classical wins the amortized average — at the quick and the full
        # size, with the tail_inversion flag recording it for the CI
        # comparator.
        document = _committed("latency")
        assert document["schema_version"] == SCHEMA_VERSION
        sizes = document["scenarios"]["cliff_chaser"]["sizes"]
        assert len(sizes) >= 2
        for entry in sizes.values():
            assert entry["tail_inversion"] is True
            assert entry["classical_amortized"] < entry["deamortized_amortized"]
            assert entry["deamortized_p999"] < entry["classical_p999"]

    def test_latency_quick_regeneration_matches_committed(self):
        document = _committed("latency")
        fresh = generate_suite("latency", quick=True, seed=document["seed"])
        comparison = compare_baselines(document, fresh)
        assert comparison.ok, comparison.failures
        assert not comparison.warnings, comparison.warnings


def _quick_core_document() -> dict:
    """A small synthetic baseline document (comparator unit-test fixture)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "core",
        "seed": DEFAULT_SEED,
        "quick": True,
        "scenarios": {
            "insert_heavy": {
                "sizes": {
                    "512": {
                        "operations": 512,
                        "moves": 6000,
                        "reference_moves": 6000,
                        "moves_match": True,
                    }
                }
            }
        },
    }


class TestComparator:
    def test_identical_documents_pass(self):
        document = _quick_core_document()
        comparison = compare_baselines(document, copy.deepcopy(document))
        assert comparison.ok
        assert not comparison.warnings

    def test_move_regression_beyond_tolerance_fails(self):
        baseline = _quick_core_document()
        fresh = copy.deepcopy(baseline)
        entry = fresh["scenarios"]["insert_heavy"]["sizes"]["512"]
        entry["moves"] = int(entry["moves"] * 1.3)  # +30% > 25% tolerance
        comparison = compare_baselines(baseline, fresh)
        assert not comparison.ok
        assert any("regressed" in failure for failure in comparison.failures)

    def test_small_move_drift_warns_but_passes(self):
        baseline = _quick_core_document()
        fresh = copy.deepcopy(baseline)
        fresh["scenarios"]["insert_heavy"]["sizes"]["512"]["moves"] += 10
        comparison = compare_baselines(baseline, fresh)
        assert comparison.ok
        assert any("drifted" in warning for warning in comparison.warnings)

    def test_move_log_divergence_fails(self):
        baseline = _quick_core_document()
        fresh = copy.deepcopy(baseline)
        fresh["scenarios"]["insert_heavy"]["sizes"]["512"]["moves_match"] = False
        comparison = compare_baselines(baseline, fresh)
        assert not comparison.ok
        assert any("moves_match" in failure for failure in comparison.failures)

    def test_recovery_divergence_fails(self):
        # The store suite's correctness flag gets the same hard-fail
        # treatment as moves_match — a broken recovery must never ride
        # through CI as a mere drift warning.
        baseline = _quick_core_document()
        baseline["scenarios"]["insert_heavy"]["sizes"]["512"][
            "recovered_match"
        ] = True
        fresh = copy.deepcopy(baseline)
        fresh["scenarios"]["insert_heavy"]["sizes"]["512"][
            "recovered_match"
        ] = False
        comparison = compare_baselines(baseline, fresh)
        assert not comparison.ok
        assert any("recovered" in failure for failure in comparison.failures)

    def test_tail_inversion_loss_fails(self):
        # The latency suite's paper-story flag is a correctness flag: the
        # deamortized structure losing its p999 edge is a regression, not
        # noise.
        baseline = _quick_core_document()
        baseline["scenarios"]["insert_heavy"]["sizes"]["512"][
            "tail_inversion"
        ] = True
        fresh = copy.deepcopy(baseline)
        fresh["scenarios"]["insert_heavy"]["sizes"]["512"][
            "tail_inversion"
        ] = False
        comparison = compare_baselines(baseline, fresh)
        assert not comparison.ok
        assert any("tail_inversion" in failure for failure in comparison.failures)

    def test_any_bool_field_is_a_correctness_flag(self):
        # Flags are known by their type, not by a list of names.
        baseline = _quick_core_document()
        baseline["scenarios"]["insert_heavy"]["sizes"]["512"]["novel_flag"] = True
        fresh = copy.deepcopy(baseline)
        fresh["scenarios"]["insert_heavy"]["sizes"]["512"]["novel_flag"] = False
        comparison = compare_baselines(baseline, fresh)
        assert not comparison.ok
        assert any("novel_flag" in failure for failure in comparison.failures)

    def test_other_fields_are_exact(self):
        baseline = _quick_core_document()
        fresh = copy.deepcopy(baseline)
        fresh["scenarios"]["insert_heavy"]["sizes"]["512"]["operations"] += 1
        comparison = compare_baselines(baseline, fresh)
        assert comparison.ok
        assert any("drifted" in warning for warning in comparison.warnings)

    def test_schema_version_mismatch_fails(self):
        baseline = _quick_core_document()
        for version in (SCHEMA_VERSION - 1, SCHEMA_VERSION + 1):
            fresh = copy.deepcopy(baseline)
            fresh["schema_version"] = version
            comparison = compare_baselines(baseline, fresh)
            assert not comparison.ok

    def test_seed_mismatch_fails(self):
        baseline = _quick_core_document()
        fresh = copy.deepcopy(baseline)
        fresh["seed"] = baseline["seed"] + 1
        comparison = compare_baselines(baseline, fresh)
        assert not comparison.ok

    def test_full_baseline_vs_quick_fresh_compares_intersection(self):
        baseline = _quick_core_document()
        baseline["quick"] = False
        baseline["scenarios"]["insert_heavy"]["sizes"]["4096"] = {
            "operations": 4096,
            "moves": 46687,
        }
        fresh = _quick_core_document()
        comparison = compare_baselines(baseline, fresh)
        assert comparison.ok
        compared_sizes = {row["n"] for row in comparison.rows}
        assert "4096" not in compared_sizes


class TestCli:
    def test_compare_exits_nonzero_on_regression(self, tmp_path, monkeypatch, capsys):
        baseline = _quick_core_document()
        write_baseline(tmp_path / baseline_filename("core"), baseline)
        fresh = copy.deepcopy(baseline)
        entry = fresh["scenarios"]["insert_heavy"]["sizes"]["512"]
        entry["moves"] = int(entry["moves"] * 1.5)
        monkeypatch.setattr(
            perf_cli, "generate_suite", lambda suite, quick, seed: fresh
        )
        code = perf_cli.main(
            ["compare", "--quick", "--suite", "core", "--baseline-dir", str(tmp_path)]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_compare_exits_zero_when_clean(self, tmp_path, monkeypatch, capsys):
        baseline = _quick_core_document()
        write_baseline(tmp_path / baseline_filename("core"), baseline)
        monkeypatch.setattr(
            perf_cli,
            "generate_suite",
            lambda suite, quick, seed: copy.deepcopy(baseline),
        )
        code = perf_cli.main(
            ["compare", "--quick", "--suite", "core", "--baseline-dir", str(tmp_path)]
        )
        assert code == 0
        assert "ok [core]" in capsys.readouterr().out

    def test_compare_missing_baseline_fails(self, tmp_path, capsys):
        code = perf_cli.main(
            ["compare", "--quick", "--suite", "core", "--baseline-dir", str(tmp_path)]
        )
        assert code == 1
        assert "no committed baseline" in capsys.readouterr().out

    def test_generate_writes_files(self, tmp_path, monkeypatch):
        document = _quick_core_document()
        monkeypatch.setattr(
            perf_cli, "generate_suite", lambda suite, quick, seed: document
        )
        code = perf_cli.main(
            ["generate", "--quick", "--suite", "core", "--out", str(tmp_path)]
        )
        assert code == 0
        written = load_baseline(tmp_path / baseline_filename("core"))
        assert written == document


class TestTrajectory:
    """Every run leaves a history record inside the baseline files."""

    def test_compare_appends_trajectory_to_baseline_file(
        self, tmp_path, monkeypatch
    ):
        baseline = _quick_core_document()
        path = write_baseline(tmp_path / baseline_filename("core"), baseline)
        monkeypatch.setattr(
            perf_cli,
            "generate_suite",
            lambda suite, quick, seed: copy.deepcopy(baseline),
        )
        for expected_length in (1, 2):
            code = perf_cli.main(
                ["compare", "--quick", "--suite", "core",
                 "--baseline-dir", str(tmp_path)]
            )
            assert code == 0
            history = load_baseline(path).get("trajectory", [])
            assert len(history) == expected_length
        entry = history[-1]
        assert entry["event"] == "compare"
        assert entry["ok"] is True
        assert entry["seed"] == DEFAULT_SEED
        assert entry["metrics"]["insert_heavy@512.moves"] == 6000
        # Only move and operation counts are recorded.
        assert all(
            metric.split(".")[-1] in MOVE_METRICS | {"operations"}
            for metric in entry["metrics"]
        )

    def test_failing_compare_still_records_the_outcome(
        self, tmp_path, monkeypatch
    ):
        baseline = _quick_core_document()
        path = write_baseline(tmp_path / baseline_filename("core"), baseline)
        fresh = copy.deepcopy(baseline)
        fresh["scenarios"]["insert_heavy"]["sizes"]["512"]["moves"] = 60000
        monkeypatch.setattr(
            perf_cli, "generate_suite", lambda suite, quick, seed: fresh
        )
        code = perf_cli.main(
            ["compare", "--quick", "--suite", "core",
             "--baseline-dir", str(tmp_path)]
        )
        assert code == 1
        entry = load_baseline(path)["trajectory"][-1]
        assert entry["ok"] is False
        assert entry["failures"] >= 1
        assert entry["metrics"]["insert_heavy@512.moves"] == 60000

    def test_no_trajectory_flag_opts_out(self, tmp_path, monkeypatch):
        baseline = _quick_core_document()
        path = write_baseline(tmp_path / baseline_filename("core"), baseline)
        monkeypatch.setattr(
            perf_cli,
            "generate_suite",
            lambda suite, quick, seed: copy.deepcopy(baseline),
        )
        perf_cli.main(
            ["compare", "--quick", "--suite", "core",
             "--baseline-dir", str(tmp_path), "--no-trajectory"]
        )
        assert "trajectory" not in load_baseline(path)

    def test_generate_carries_history_forward(self, tmp_path, monkeypatch):
        old = _quick_core_document()
        old["trajectory"] = [{"event": "compare", "seed": 1, "metrics": {}}]
        path = write_baseline(tmp_path / baseline_filename("core"), old)
        document = _quick_core_document()
        monkeypatch.setattr(
            perf_cli, "generate_suite", lambda suite, quick, seed: document
        )
        perf_cli.main(
            ["generate", "--quick", "--suite", "core", "--out", str(tmp_path)]
        )
        history = load_baseline(path)["trajectory"]
        assert len(history) == 2
        assert history[0]["event"] == "compare"   # preserved
        assert history[1]["event"] == "generate"  # this refresh

    def test_history_is_bounded(self):
        document = _quick_core_document()
        for index in range(TRAJECTORY_LIMIT + 25):
            append_trajectory(
                document, trajectory_entry(document, event="compare")
            )
        assert len(document["trajectory"]) == TRAJECTORY_LIMIT

    def test_committed_baselines_carry_history(self):
        for suite in SUITES:
            history = _committed(suite).get("trajectory", [])
            assert history, f"BENCH_{suite}.json has an empty trajectory"


def _run_in_fresh_process(script: str) -> str:
    """Run ``script`` in a fresh interpreter (its own hash randomization)."""
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env={"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"},
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


class TestDeterminism:
    def test_bench_documents_identical_across_processes(self):
        # Whole documents: no field of any suite may differ between runs.
        script = (
            "import json\n"
            "from repro.perf.baseline import SUITES, generate_suite\n"
            "for suite in sorted(SUITES):\n"
            "    doc = generate_suite(suite, quick=True, seed=4242)\n"
            "    print(json.dumps(doc, sort_keys=True))\n"
        )
        first = _run_in_fresh_process(script)
        second = _run_in_fresh_process(script)
        assert first == second
        # Sanity: the output really is the six suite documents.
        lines = first.strip().splitlines()
        assert [json.loads(line)["suite"] for line in lines] == sorted(SUITES)
        assert len(lines) == 6

    def test_randomized_and_adaptive_move_logs_identical_across_processes(self):
        # Seeded structures must yield identical move logs regardless of the
        # per-process hash seed; any hidden iteration-order dependence in
        # the rebalance paths would flip the digest between processes.
        script = (
            "import hashlib\n"
            "from fractions import Fraction\n"
            "from repro.algorithms import AdaptivePMA, RandomizedPMA\n"
            "from repro.core.operations import move_triples\n"
            "from repro.workloads.random_uniform import RandomWorkload\n"
            "for labeler in (RandomizedPMA(512, seed=77), AdaptivePMA(512)):\n"
            "    log = []\n"
            "    reference = []\n"
            "    for op in RandomWorkload(400, capacity=512,"
            " delete_fraction=0.25, seed=5):\n"
            "        if op.is_insert:\n"
            "            rank = op.rank\n"
            "            lower = reference[rank - 2] if rank >= 2 else None\n"
            "            upper = (reference[rank - 1]"
            " if rank - 1 < len(reference) else None)\n"
            "            if lower is None and upper is None: key = Fraction(0)\n"
            "            elif lower is None: key = upper - 1\n"
            "            elif upper is None: key = lower + 1\n"
            "            else: key = (lower + upper) / 2\n"
            "            result = labeler.insert(rank, key)\n"
            "            reference.insert(rank - 1, key)\n"
            "        else:\n"
            "            result = labeler.delete(op.rank)\n"
            "            reference.pop(op.rank - 1)\n"
            "        log.extend(move_triples(result.moves))\n"
            "    digest = hashlib.sha256(repr(log).encode()).hexdigest()\n"
            "    print(type(labeler).__name__, digest)\n"
        )
        first = _run_in_fresh_process(script)
        second = _run_in_fresh_process(script)
        assert first == second
        assert "RandomizedPMA" in first and "AdaptivePMA" in first
