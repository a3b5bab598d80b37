"""Shared machinery for running policy comparisons on traces."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..config import (STEPS_PER_HOUR, SchedulerConfig, ServingConfig)
from ..core import run_replay
from ..core.engine import critical_time_for
from ..errors import ConfigError
from ..trace import Trace

#: Hardware/model platforms benchmarked in the paper (§4.1). ``tp`` is the
#: tensor-parallel degree of one replica; DP fills the remaining GPUs.
PLATFORMS: dict[str, dict] = {
    "l4-8b": {"model": "llama3-8b", "gpu": "l4", "tp": 1},
    "a100-70b": {"model": "llama3-70b", "gpu": "a100", "tp": 4},
    "a100-mixtral": {"model": "mixtral-8x7b", "gpu": "a100", "tp": 2},
}


def serving_for(platform: str, num_gpus: int,
                fidelity: str = "iteration") -> ServingConfig:
    """Deployment shape for ``num_gpus`` of a platform (DP x TP).

    Every deployment decodes through the one iteration-level replica.
    ``fidelity`` stays only because the frozen
    ``benchmarks/e2e/workloads.py`` passes ``"fluid"`` or
    ``"iteration"`` positionally: both names build the same deployment,
    any other is refused. The benchmark's next revision drops it.
    """
    if fidelity not in ("fluid", "iteration"):
        raise ConfigError(
            f"unknown fidelity {fidelity!r}; 'fluid' and 'iteration' "
            f"are accepted and both build the iteration replica")
    try:
        spec = PLATFORMS[platform]
    except KeyError:
        raise ConfigError(
            f"unknown platform {platform!r}; available: "
            f"{sorted(PLATFORMS)}") from None
    tp = spec["tp"]
    if num_gpus % tp:
        raise ConfigError(
            f"{platform}: {num_gpus} GPUs not divisible by tp={tp}")
    return ServingConfig(model=spec["model"], gpu=spec["gpu"],
                         dp=num_gpus // tp, tp=tp)


@dataclass(frozen=True)
class PolicyOutcome:
    """One (policy, platform, gpus, trace) measurement."""

    policy: str
    completion_time: float
    achieved_parallelism: float
    n_calls: int
    mean_cluster_size: float
    max_step_spread: int


def run_policies(trace: Trace, platform: str, num_gpus: int,
                 policies: Sequence[str],
                 priority: bool = True,
                 num_workers: int = 0,
                 scenario: str | None = None) -> dict[str, PolicyOutcome]:
    """Replay ``trace`` under each policy on the given deployment.

    ``scenario`` labels the run's workload in the scheduler config; it
    defaults to the scenario recorded in the trace metadata.
    """
    serving = serving_for(platform, num_gpus)
    scenario = scenario or trace.meta.scenario
    out: dict[str, PolicyOutcome] = {}
    for policy in policies:
        result = run_replay(
            trace, SchedulerConfig(policy=policy, priority=priority,
                                   num_workers=num_workers,
                                   scenario=scenario), serving)
        out[policy] = PolicyOutcome(
            policy=policy,
            completion_time=result.completion_time,
            achieved_parallelism=result.achieved_parallelism,
            n_calls=result.n_calls_completed,
            mean_cluster_size=result.driver_stats.mean_cluster_size,
            max_step_spread=result.driver_stats.max_step_spread,
        )
    return out


def bounds_for(trace: Trace, platform: str, num_gpus: int,
               include_no_dependency: bool = True) -> dict[str, float]:
    """The reference bounds: ``critical``, ``no-dependency``, ``gpu-limit``.

    Both are lower bounds on any schedule, so the binding one — the
    maximum — is reported as ``gpu-limit`` (the paper plots the binding
    bound for each scale).
    """
    serving = serving_for(platform, num_gpus)
    critical = critical_time_for(trace, serving)
    bounds = {"critical": critical}
    if include_no_dependency:
        nodep = run_replay(
            trace, SchedulerConfig(policy="no-dependency"), serving)
        bounds["no-dependency"] = nodep.completion_time
        bounds["gpu-limit"] = max(critical, nodep.completion_time)
    else:
        bounds["gpu-limit"] = critical
    return bounds


def hour_window(day: Trace, hour: int, n_hours: int = 1) -> Trace:
    """Slice simulated hours ``[hour, hour + n_hours)`` out of a day."""
    return day.window(hour * STEPS_PER_HOUR,
                      (hour + n_hours) * STEPS_PER_HOUR)
