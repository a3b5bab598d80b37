"""Benchmark harness: experiment definitions for every paper figure/table.

Each experiment in :mod:`repro.bench.experiments` regenerates the rows or
series of one figure/table from the paper's evaluation (§4); the
``benchmarks/`` pytest-benchmark suite and the ``repro-bench`` CLI both
drive these functions. Set ``REPRO_BENCH_FULL=1`` for paper-scale runs
(full days, up to 1000 agents); the default "quick" scale preserves every
comparison's shape at CI-friendly cost.

The CI gate families live in their own modules — :mod:`.hotpath` (and
its scale matrix), :mod:`.serving`, :mod:`.chaos`, :mod:`.smoke` — over
the shared envelope, timed cell and tables of :mod:`.report`.
"""

from .experiments import (EXPERIMENTS, ExperimentResult, run_experiment)
from .runner import PolicyOutcome, bounds_for, hour_window, run_policies
from .report import format_table

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "run_experiment",
    "run_policies",
    "PolicyOutcome",
    "bounds_for",
    "hour_window",
    "format_table",
]
