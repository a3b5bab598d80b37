"""AI Metropolis reproduction — out-of-order LLM multi-agent simulation.

Reproduces *AI Metropolis: Scaling Large Language Model-based Multi-Agent
Simulation with Out-of-order Execution* (MLSys 2025) as a self-contained
Python library: the dependency-tracking OOO scheduler itself plus every
substrate its evaluation needs (simulated LLM serving, a GenAgent-style
world, trace generation/replay, a transactional KV store, and a live
threaded engine). See docs/ARCHITECTURE.md for the layer map and
README.md's "Performance" section and ``repro-bench run`` for measured
numbers.

Quickstart (replay benchmarking, virtual time)::

    from repro import (SchedulerConfig, ServingConfig, cached_day_trace,
                       run_replay)

    trace = cached_day_trace(seed=0)                  # 25-agent day
    result = run_replay(trace,
                        SchedulerConfig(policy="metropolis"),
                        ServingConfig(model="llama3-8b", gpu="l4", dp=4))
    print(result.completion_time, result.achieved_parallelism)

Quickstart (live execution, wall-clock)::

    from repro.live import (EchoLLMClient, LiveSimulation,
                            program_for_scenario)

    program = program_for_scenario("smallville", n_agents=10)
    result = LiveSimulation(program, EchoLLMClient(),
                            num_workers=4).run(target_step=100)
"""

from .config import (DependencyConfig, OverheadConfig, SchedulerConfig,
                     ServingConfig, SECONDS_PER_STEP, STEPS_PER_DAY,
                     STEPS_PER_HOUR)
from .core import (DependencyRules, SimulationResult, critical_path_time,
                   run_replay)
from .core.engine import critical_time_for
from .errors import (CapacityError, CausalityViolation, ConfigError,
                     ReproError, ScenarioError, SchedulingError,
                     ServingError, TraceError, TransactionError, WorldError)
from .scenarios import (Scenario, ScenarioRegistry, get_scenario,
                        register_scenario, scenario_names)
from .serving import ServingEngine
from .trace import (Trace, cached_day_trace, compute_stats,
                    generate_concatenated_trace, generate_trace, load_trace,
                    save_trace)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # configuration
    "DependencyConfig", "OverheadConfig", "SchedulerConfig", "ServingConfig",
    "SECONDS_PER_STEP", "STEPS_PER_DAY", "STEPS_PER_HOUR",
    # core API
    "run_replay", "SimulationResult", "DependencyRules",
    "critical_path_time", "critical_time_for",
    # serving
    "ServingEngine",
    # scenarios
    "Scenario", "ScenarioRegistry", "get_scenario", "register_scenario",
    "scenario_names",
    # traces
    "Trace", "generate_trace", "generate_concatenated_trace",
    "cached_day_trace", "compute_stats", "save_trace", "load_trace",
    # errors
    "ReproError", "ConfigError", "SchedulingError", "CausalityViolation",
    "ServingError", "CapacityError", "TransactionError", "TraceError",
    "WorldError", "ScenarioError",
]
