"""Algorithm 1 baselines: ``single-thread`` and ``parallel-sync``.

Both enforce lock-step temporal causality exactly as the traditional
simulation loop does; they differ in intra-step parallelism:

* ``single-thread`` replicates the original GenAgent implementation — a
  single loop that processes one agent's step (and its LLM calls) at a
  time, exposing no request concurrency at all;
* ``parallel-sync`` lets all agents of the current step issue their
  chains concurrently but synchronizes globally before the next step —
  the "stronger baseline" of §4.1, whose parallelism is bounded by the
  per-step straggler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import SchedulerConfig
from ..devent import Kernel
from ..errors import SchedulingError
from ..serving import ServingEngine
from ..trace import Trace
from .tasks import ChainExecutor


def _folds(rule: str, default=0):
    """A field whose cross-worker fold is not the default plain sum."""
    return field(default=default, metadata={"merge": rule})


@dataclass
class DriverStats:
    """Scheduling-side counters common to all drivers.

    Each field declares once how it folds across shard-worker processes
    (``metadata["merge"]``, read by :mod:`repro.core.parallel`): counters
    sum, peaks take the ``max``, and the controller times are those of
    the ``critical``-path worker.
    """

    tasks_completed: int = 0
    clusters_dispatched: int = 0
    cluster_size_sum: int = 0
    blocked_events: int = 0
    unblock_events: int = 0
    #: step spread observed (max step - min step), peak over the run.
    max_step_spread: int = _folds("max")
    #: §3.6 critical-path accounting: wall-clock seconds the controller
    #: spent forming/refreshing clusters, updating the dependency graph
    #: on commits, and enqueueing/dispatching ready clusters. These are
    #: *host* seconds (the scheduler's real overhead), not virtual time.
    time_clustering: float = _folds("critical", 0.0)
    time_graph: float = _folds("critical", 0.0)
    time_dispatch: float = _folds("critical", 0.0)
    #: Controller rounds executed (with ack coalescing, one round can
    #: retire several cluster commits).
    controller_rounds: int = 0
    extra: dict = field(default_factory=dict, metadata={"merge": "extra"})

    @property
    def mean_cluster_size(self) -> float:
        if not self.clusters_dispatched:
            return 0.0
        return self.cluster_size_sum / self.clusters_dispatched

    @property
    def controller_time(self) -> float:
        """Total wall-clock seconds on the controller's critical path."""
        return self.time_clustering + self.time_graph + self.time_dispatch


class SingleThreadDriver:
    """One agent-step at a time, in (step, agent) order."""

    def __init__(self, kernel: Kernel, engine: ServingEngine, trace: Trace,
                 config: SchedulerConfig,
                 executor: ChainExecutor) -> None:
        self.kernel = kernel
        self.trace = trace
        self.config = config
        self.executor = executor
        self.stats = DriverStats()
        self._cursor = 0  # flat index: step * n_agents + agent
        self._total = trace.meta.n_agents * trace.meta.n_steps

    def start(self) -> None:
        self._dispatch_next()

    def _dispatch_next(self) -> None:
        if self._cursor >= self._total:
            return
        step, aid = divmod(self._cursor, self.trace.meta.n_agents)
        self._cursor += 1
        extra = (self.config.overhead.single_thread_step
                 if aid == 0 else 0.0)
        self.kernel.call_in(
            extra, self.executor.run_cluster, (aid,), step, float(step),
            self._task_done)

    def _task_done(self, aid: int, step: int) -> None:
        self.stats.tasks_completed += 1
        self._dispatch_next()

    def finished(self) -> bool:
        return self.stats.tasks_completed == self._total


class ParallelSyncDriver:
    """All agents issue step-s chains concurrently; global barrier at s+1."""

    def __init__(self, kernel: Kernel, engine: ServingEngine, trace: Trace,
                 config: SchedulerConfig,
                 executor: ChainExecutor) -> None:
        self.kernel = kernel
        self.trace = trace
        self.config = config
        self.executor = executor
        self.stats = DriverStats()
        self._step = 0
        self._outstanding = 0
        #: Per-step completion timestamps (the Fig. 1 dashed lines).
        self.step_completion_times: list[float] = []

    def start(self) -> None:
        self._begin_step()

    def _begin_step(self) -> None:
        if self._step >= self.trace.meta.n_steps:
            return
        n = self.trace.meta.n_agents
        self._outstanding = n
        self.stats.clusters_dispatched += 1
        self.stats.cluster_size_sum += n
        # The lock-step barrier is one whole-population cluster: a
        # single round event, one vectorized chain lookup, one batched
        # engine handoff.
        self.executor.run_cluster(range(n), self._step, float(self._step),
                                  self._task_done)

    def _task_done(self, aid: int, step: int) -> None:
        if step != self._step:
            raise SchedulingError(
                f"barrier violation: task for step {step} finished during "
                f"step {self._step}")
        self.stats.tasks_completed += 1
        self._outstanding -= 1
        if self._outstanding == 0:
            self.step_completion_times.append(self.kernel.now)
            self._step += 1
            # Global synchronization cost: one commit for the whole step.
            self.kernel.call_in(self.config.overhead.cluster_commit,
                                lambda: self._begin_step())

    def finished(self) -> bool:
        return self._step >= self.trace.meta.n_steps
