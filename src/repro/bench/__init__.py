"""Benchmark harness: experiment definitions for every paper figure/table.

Each experiment in :mod:`repro.bench.experiments` regenerates the rows or
series of one figure/table from the paper's evaluation (§4); the
``benchmarks/`` pytest-benchmark suite and the ``repro-bench`` CLI both
drive these functions. Set ``REPRO_BENCH_FULL=1`` for paper-scale runs
(full days, up to 1000 agents); the default "quick" scale preserves every
comparison's shape at CI-friendly cost.
"""

from .experiments import (EXPERIMENTS, ExperimentResult, run_experiment)
from .hotpath import (bench_one, check_report, format_report, hotpath_trace,
                      run_hotpath)
from .runner import PolicyOutcome, bounds_for, hour_window, run_policies
from .report import format_table, format_ratio
from .serving import (bench_cell, check_serving_report, format_profiles,
                      format_serving_report, gate_serving, run_serving)
from .smoke import run_smoke, scenario_window_trace, smoke_one

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "run_experiment",
    "run_policies",
    "PolicyOutcome",
    "bounds_for",
    "hour_window",
    "format_table",
    "format_ratio",
    "run_smoke",
    "smoke_one",
    "scenario_window_trace",
    "run_hotpath",
    "bench_one",
    "hotpath_trace",
    "check_report",
    "format_report",
    "run_serving",
    "bench_cell",
    "check_serving_report",
    "gate_serving",
    "format_serving_report",
    "format_profiles",
]
