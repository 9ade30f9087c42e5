"""The benchmark's own checks.  Run from the root of a checkout::

    python3 -m pytest perfbench/selfcheck.py -q

(The file name keeps it out of the repository's default test collection:
these checks run the benchmark end to end and take about two and a half
minutes.)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import streams  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]

#: End-to-end metrics that are counts, not timings: they must repeat bit
#: for bit between two runs with the same seed.
EXACT = ("moves_per_op", "space_amp")

#: Diagnostics that are counts or digests, and so must repeat too (a
#: workload that does not print one reads ``None`` on both runs).
EXACT_DIAGNOSTICS = ("digest", "moves_tail_mean", "moves_quantiles", "write_amp", "frames_replayed")


def _run(workload: str, seed: int, trace: int = 0, cwd: Path = ROOT):
    finished = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )
    lines = finished.stdout.strip().splitlines()
    return finished, lines


def _checked_run(workload: str, seed: int, trace: int = 0) -> tuple[dict, dict]:
    """Diagnostics and result of a run that must succeed with every answer right."""
    finished, lines = _run(workload, seed, trace)
    assert finished.returncode == 0, finished.stderr[-2000:]
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, lines[-2][:2000]
    return json.loads(lines[-2])["diagnostics"], result


def _stream_digest(workload: str, seed: int, ops: int = 3000) -> str:
    if workload == "layered_adaptive":
        stream = streams.LayeredAdaptive(seed, ops, 1024)
    elif workload == "embedded_churn":
        stream = streams.EmbeddedChurn(seed, ops)
    else:
        stream = streams.WireReadMostly(seed, ops)
    for _ in stream:
        pass
    return stream.digest()


def test_one_seed_gives_one_op_stream():
    for workload in WORKLOADS:
        first = _stream_digest(workload, 11)
        assert first == _stream_digest(workload, 11)
        assert first != _stream_digest(workload, 12)


def test_stream_answers_match_a_fresh_model():
    """The generator's expected answers follow from its own ops."""
    stream = streams.EmbeddedChurn(5, 2000)
    live = dict(stream.preload)
    for op, expected in stream:
        kind = op[0]
        if kind == "put":
            assert op[1] not in live
            live[op[1]] = op[2]
        elif kind == "del":
            del live[op[1]]
        elif kind == "get":
            assert expected == live[op[1]]
        elif kind == "range":
            keys = sorted(key for key in live if key >= op[1])[: op[2]]
            assert expected == [(key, live[key]) for key in keys]
        elif kind == "count":
            assert expected == sum(1 for key in live if op[1] <= key <= op[2])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_for_one_seed(workload):
    (diagnostics_a, result_a), (diagnostics_b, result_b) = (
        _checked_run(workload, 7) for _ in range(2)
    )
    for key in EXACT_DIAGNOSTICS:
        assert diagnostics_a.get(key) == diagnostics_b.get(key), key
    for name in EXACT:
        assert result_a["metrics"][name]["value"] == result_b["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_adds_up(workload):
    diagnostics, result = _checked_run(workload, 7, trace=1)
    assert set(result["metrics"]) == {entry["name"] for entry in SPEC["per_layer"]}
    assert diagnostics["trace_check_within_10pct"], diagnostics["trace_breakdown_us"]


def test_traced_and_untraced_runs_count_the_same_bytes():
    """The traced WAL-append and snapshot spans and the untraced compaction
    counter measure the same writes of the same seed."""
    untraced, _ = _checked_run("embedded_churn", 7)
    _, traced = _checked_run("embedded_churn", 7, trace=1)
    write_amp = traced["metrics"]["store.write_amp"]["value"]
    assert write_amp == pytest.approx(untraced["write_amp"], rel=1e-12)
    assert traced["metrics"]["recovery.frames_replayed"]["value"] == untraced["frames_replayed"]


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        finished, lines = _run("embedded_churn", 1, cwd=bare)
        assert finished.returncode != 0
        assert not any(line.startswith('{"correct"') for line in lines)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
