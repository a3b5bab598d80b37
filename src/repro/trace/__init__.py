"""Trace schema, generation, persistence and statistics.

A *trace* is the complete record of one simulation run that the paper's
replay-mode benchmarking consumes: every agent's tile position at every
step, plus every LLM call (step, agent, function, prompt tokens, output
tokens, chain order). The paper collected 40 simulation-days of traces by
instrumenting the original GenAgent implementation against the GPT-3.5
API; we generate statistically equivalent traces by running the
:mod:`repro.world` simulation (docs/ARCHITECTURE.md, "What a trace
holds" and "What world simulation costs") and replay them identically.
"""

from .schema import Trace, TraceMeta
from .generator import (generate_trace, generate_concatenated_trace,
                        cached_day_trace, trace_fingerprint)
from .io import save_trace, load_trace, export_jsonl, import_jsonl
from .stats import TraceStats, compute_stats

__all__ = [
    "Trace",
    "TraceMeta",
    "generate_trace",
    "generate_concatenated_trace",
    "cached_day_trace",
    "trace_fingerprint",
    "save_trace",
    "load_trace",
    "export_jsonl",
    "import_jsonl",
    "TraceStats",
    "compute_stats",
]
