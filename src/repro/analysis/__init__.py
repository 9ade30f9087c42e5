"""Measurement layer: run workloads against labelers and summarize costs.

The benchmark harness under ``benchmarks/`` is a thin wrapper around this
package: :func:`repro.analysis.runner.run_workload` drives a labeler through
a workload while recording the paper's cost metric (element moves) into a
:class:`repro.core.cost.CostTracker`; :mod:`repro.analysis.curves` estimates
growth exponents (is the amortized cost growing like ``log n`` or
``log² n``?); :mod:`repro.analysis.report` renders the comparison tables the
experiments print.
"""

from repro.analysis.runner import RunResult, run_workload
from repro.analysis.curves import estimate_log_exponent, growth_ratios
from repro.analysis.reference import ChunkedList
from repro.analysis.report import format_scenario_table, format_table

__all__ = [
    "ChunkedList",
    "RunResult",
    "estimate_log_exponent",
    "format_scenario_table",
    "format_table",
    "growth_ratios",
    "run_workload",
]
