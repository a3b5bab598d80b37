"""AI Metropolis core: out-of-order multi-agent simulation scheduling.

This package is the paper's contribution:

* :mod:`rules` — the §3.2 / Appendix A dependency rules (coupled, blocked,
  and the temporal-causality validity condition they conservatively
  enforce);
* :mod:`space` — pluggable distance metrics, including the §6 non-
  Euclidean (social graph) extension;
* :mod:`dependency_graph` — the §3.3 spatiotemporal dependency graph with
  incremental blocked-edge maintenance (the OOO "scoreboard");
* :mod:`clustering` — §3.4 geo-clustering of coupled agents;
* :mod:`controller` — the Algorithm 3 controller step
  (:class:`ControllerCore`) every execution mode runs;
* :mod:`metropolis` — its virtual-time transport: the Algorithm 3
  controller/worker workflow as a replay driver;
* :mod:`sharding` — the region planner: provably independent map
  regions, packed into shards and the shards onto worker processes;
* :mod:`parallel` — the multiprocess controller: each worker process
  runs one controller loop over its shards' agents against a
  shared-memory position store, ledgers merged into one result;
* :mod:`baselines` — Algorithm 1 baselines (``single-thread`` and
  ``parallel-sync``);
* :mod:`oracle` — the §4.1 ``oracle`` (trace-mined dependencies),
  ``no-dependency`` and ``critical`` reference settings;
* :mod:`engine` — one-call replay entry point used by benches and tests.
"""

from .engine import SimulationResult, run_replay, critical_path_time
from .parallel import ShardWorkerPool
from .rules import DependencyRules, rules_for
from .sharding import plan_regions
from .space import (ChebyshevSpace, EuclideanSpace, GraphSpace,
                    ManhattanSpace, Space, space_for)

__all__ = [
    "run_replay",
    "SimulationResult",
    "critical_path_time",
    "DependencyRules",
    "rules_for",
    "plan_regions",
    "ShardWorkerPool",
    "Space",
    "EuclideanSpace",
    "ChebyshevSpace",
    "ManhattanSpace",
    "GraphSpace",
    "space_for",
]
