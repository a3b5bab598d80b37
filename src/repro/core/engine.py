"""One-call replay entry point.

``run_replay(trace, scheduler, serving)`` wires together the virtual-time
kernel, the simulated serving engine, the chain executor and the selected
scheduling driver, runs to completion, and returns a
:class:`SimulationResult` with the numbers the paper reports: completion
time, achieved parallelism, and scheduler-side statistics.
"""

from __future__ import annotations

import gc

from dataclasses import dataclass, field
from typing import Optional

from ..config import SchedulerConfig, ServingConfig
from ..devent import Kernel
from ..errors import ConfigError, SchedulingError
from ..instrument import TimelineRecorder
from ..serving import EngineMetrics, PerfModel, ServingEngine, get_gpu, get_model
from ..trace import Trace
from .baselines import DriverStats, ParallelSyncDriver, SingleThreadDriver
from .metropolis import MetropolisDriver
from .oracle import NoDependencyDriver, critical_path_time
from .tasks import ChainExecutor

_DRIVERS = {
    "single-thread": SingleThreadDriver,
    "parallel-sync": ParallelSyncDriver,
    "metropolis": MetropolisDriver,
    "oracle": MetropolisDriver,
    "no-dependency": NoDependencyDriver,
}


@dataclass
class SimulationResult:
    """Outcome of one replay run."""

    policy: str
    #: Workload label: the scheduler config's scenario, falling back to
    #: the scenario recorded in the trace metadata.
    scenario: str
    #: Virtual seconds from start to the last completed event.
    completion_time: float
    #: Time-average outstanding LLM requests (§4.2 metric).
    achieved_parallelism: float
    n_calls_completed: int
    n_tasks_completed: int
    driver_stats: DriverStats
    engine_metrics: EngineMetrics
    #: Mean replica busy fraction over the run (GPU utilization proxy).
    gpu_busy_fraction: float
    timeline: Optional[TimelineRecorder] = None
    #: Step-barrier completion times (parallel-sync only; Fig. 1 lines).
    step_completion_times: list[float] = field(default_factory=list)
    #: KV retention counters summed over replicas (all zero when the
    #: run's ``kv_policy`` is ``none``).
    kv_stats: dict = field(default_factory=dict)

    def speedup_over(self, other: "SimulationResult") -> float:
        """How much faster this run is than ``other`` (>1 = faster)."""
        return other.completion_time / self.completion_time


def run_replay(trace: Trace,
               scheduler: SchedulerConfig | None = None,
               serving: ServingConfig | None = None,
               collect_timeline: bool = False,
               fault_hook=None) -> SimulationResult:
    """Replay ``trace`` under one scheduling policy; return its result.

    ``fault_hook(kernel, engine)``, when given, runs after the engine is
    built and before the driver starts — the chaos bench uses it to
    schedule mid-run fault injections (e.g. a replica blackout) in
    virtual time.

    ``parallel_workers >= 2`` asks for the multiprocess controller
    (state-identical to the in-process path; see
    :mod:`repro.core.parallel`). When that cannot run, the replay stays
    in-process and says so: ``driver_stats.extra["parallel_fallback"]``
    carries the reason the ``repro.core.parallel`` logger warned about.
    """
    scheduler = scheduler or SchedulerConfig()
    serving = serving or ServingConfig()
    if scheduler.policy not in _DRIVERS:
        raise ConfigError(
            f"unknown policy {scheduler.policy!r}; "
            f"available: {sorted(_DRIVERS)}")
    fallback = None
    if scheduler.parallel_workers >= 2:
        from .parallel import try_parallel_replay
        outcome = try_parallel_replay(
            trace, scheduler, serving, collect_timeline, fault_hook=fault_hook)
        if not isinstance(outcome, str):
            return outcome
        fallback = outcome
    result = replay_in_process(trace, scheduler, serving, collect_timeline,
                               fault_hook)
    if fallback is not None:
        result.driver_stats.extra["parallel_fallback"] = fallback
    return result


def replay_in_process(trace: Trace, scheduler: SchedulerConfig,
                      serving: ServingConfig,
                      collect_timeline: bool = False, fault_hook=None,
                      **controller) -> SimulationResult:
    """The one replay wiring: kernel, engine, executor, driver, drain.

    Runs in the caller's process — :func:`run_replay`'s, or a shard
    worker's, which passes a ``clock`` keyword (per-process CPU time)
    for the metropolis drivers.
    """
    # The driver's structures hold O(agents) container objects, and every
    # controller round churns O(agents) more; the cyclic collector the
    # allocator triggers inside the hot loop re-traverses the survivors
    # each time, which grows into the dominant cost at large populations
    # (it roughly doubled wall time at 20k agents). The loop builds no
    # reference cycles, so refcounting reclaims its churn and
    # collection is paused — from before anything is built, so that
    # everything the replay allocates stays in the youngest generation.
    # Kernel, engine, driver and graph do reference each other (bound-
    # method callbacks) and die as one cycle when the wiring returns:
    # one youngest-generation collection right after reclaims them,
    # without walking the caller's whole heap on every replay.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _replay(trace, scheduler, serving, collect_timeline,
                       fault_hook, controller)
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect(0)


def _replay(trace: Trace, scheduler: SchedulerConfig, serving: ServingConfig,
            collect_timeline: bool, fault_hook,
            controller: dict) -> SimulationResult:
    kernel = Kernel()
    engine = ServingEngine(kernel, serving, priority=scheduler.priority)
    if fault_hook is not None:
        fault_hook(kernel, engine)
    timeline = TimelineRecorder() if collect_timeline else None
    executor = ChainExecutor(
        kernel, engine, trace, scheduler.overhead,
        call_observer=timeline.record if timeline else None)
    driver = _DRIVERS[scheduler.policy](kernel, engine, trace, scheduler,
                                        executor, **controller)
    driver.start()
    kernel.run()
    if not driver.finished():
        raise SchedulingError(
            f"{scheduler.policy}: kernel drained before completion "
            f"({driver.stats.tasks_completed} tasks done)")
    if not engine.idle():
        raise SchedulingError(
            f"{scheduler.policy}: serving engine still busy at drain")
    completion = kernel.now
    return SimulationResult(
        policy=scheduler.policy,
        scenario=scheduler.scenario or trace.meta.scenario,
        completion_time=completion,
        achieved_parallelism=engine.metrics.achieved_parallelism(completion),
        n_calls_completed=engine.metrics.completed,
        n_tasks_completed=driver.stats.tasks_completed,
        driver_stats=driver.stats,
        engine_metrics=engine.metrics,
        gpu_busy_fraction=engine.busy_fraction(completion),
        timeline=timeline,
        step_completion_times=getattr(driver, "step_completion_times", []),
        kv_stats=engine.kv_stats(),
    )


def critical_time_for(trace: Trace, serving: ServingConfig | None = None,
                      scheduler: SchedulerConfig | None = None) -> float:
    """Convenience wrapper computing the ``critical`` bound for a config."""
    serving = serving or ServingConfig()
    perf = PerfModel(model=get_model(serving.model), gpu=get_gpu(serving.gpu),
                     tp=serving.tp,
                     kv_memory_fraction=serving.kv_memory_fraction)
    return critical_path_time(trace, perf, scheduler)
