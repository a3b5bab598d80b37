"""One workload, one process: set-up, timed repeats, checks, traced run.

A :class:`Session` is driven step by step (``setup``, ``warmup``,
``repeat`` ..., ``finish``) so that the runner can interleave the timed
repeats of all workloads, and counts every set-up, every run and every
output check as an operation: attempted, and failed if it raises.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import shutil
import signal
import statistics
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.config import STEPS_PER_DAY

import layers
from metrics import END_TO_END, PER_LAYER
from spans import Tracer
from workloads import Run, expect

HERE = Path(__file__).resolve().parent

_E2E_NAMES = {m.name for m in END_TO_END}
_LAYER_NAMES = {m.name for m in PER_LAYER}


#: Calibration operations per second that count as machine speed 1.0:
#: what the 2-core sandbox scores in its calm phases.
REFERENCE_OPS_PER_S = 4.0e6


def machine_speed(iters: int = 200_000) -> float:
    """How fast this machine runs right now (1.0 = the reference).

    This sandbox's speed drifts between 0.4 and 1.0 for minutes at a time
    (CPU time drifts with wall time, so it is the machine, not
    scheduling): 40 replays of one input, taken over nine minutes, spread
    (q3 - q1 over the median) by 0.31 / 0.26 / 0.32 / 0.32 on the four
    replay workloads, more than the 0.25 the driver allows a benchmark. A
    fixed loop with the controller's operation mix — dict and set churn,
    small numpy reductions — timed right before and after each
    measurement (~50 ms a slice) tracks the drift, and CPU-bound timings
    are reported at reference speed, ``seconds x speed``: the same
    replays then spread by 0.18 / 0.19 / 0.20 / 0.21. The loop is the
    benchmark's own (``repro.bench.hotpath`` has a similar one): a change
    to the program must not move the yardstick.
    """
    cells = np.arange(256, dtype=np.int64)
    seen: dict[int, int] = {}
    marks: set[int] = set()
    total = 0
    t0 = time.perf_counter()
    for i in range(iters):
        key = (i * 2654435761) & 1023
        seen[key] = i
        marks.add(key & 255)
        total += seen.get((key * 7) & 1023, 0)
        if not i & 1023:
            total += int((np.abs(cells - (key & 255)) <= 16).sum())
    return iters / (time.perf_counter() - t0) / REFERENCE_OPS_PER_S


def timed_at_reference_speed(measure: Callable[[], Any]
                             ) -> tuple[Any, float]:
    """``measure()`` and the mean machine speed around it."""
    before = machine_speed()
    result = measure()
    return result, (before + machine_speed()) / 2


class Abort(Exception):
    """The workload cannot go on (its inputs or a run are missing)."""


@contextmanager
def private_trace_cache() -> Iterator[None]:
    """An empty ``REPRO_TRACE_CACHE`` of our own, removed on exit.

    Inside the benchmark's directory: never the shared
    ``/tmp/repro-traces``, whose content would turn a cold set-up warm.
    """
    cache = tempfile.mkdtemp(prefix=".cache-", dir=HERE)
    before = os.environ.get("REPRO_TRACE_CACHE")
    os.environ["REPRO_TRACE_CACHE"] = cache
    try:
        yield
    finally:
        if before is None:
            del os.environ["REPRO_TRACE_CACHE"]
        else:
            os.environ["REPRO_TRACE_CACHE"] = before
        shutil.rmtree(cache, ignore_errors=True)


def child_pids() -> list[int]:
    """Processes whose parent is this one, zombies included."""
    me, found = str(os.getpid()), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue  # ended while we looked
            # "pid (comm) state ppid ...": comm may hold spaces.
            if stat.rpartition(")")[2].split()[1] == me:
                found.append(int(entry))
    return found


def stop_children() -> list[int]:
    """Stop every process this one started and wait until each has ended.

    ``shard_mp``'s shared position store starts ``multiprocessing``'s
    resource tracker, a child that otherwise ends a moment *after* this
    process: closing its pipe and waiting for it is what ``_stop`` does
    (private, but the only handle there is; without it the scan below
    kills the tracker instead). Returns the children that had to be
    killed: a run that leaves any has not cleaned up after itself.
    """
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    # Reap what has ended, then kill what has not.
    killed = []
    for pid in child_pids():
        try:
            if os.waitpid(pid, os.WNOHANG) == (0, 0):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                killed.append(pid)
        except (ChildProcessError, ProcessLookupError):
            pass  # reaped by its own handle in the meantime
    return killed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, MiB."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def _medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows)
            for key in rows[0]}


class Session:
    """One workload's measurements at one seed.

    The inputs of a run are ``workload.worlds`` independently seeded
    worlds: one, except where one world's host time says more about the
    seed than about the program (see ``Live.worlds``). The timed repeats
    rotate over them. World 0 is the primary: reference runs, simulated
    metrics, counters and the traced run all use it.
    """

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        #: One per world, kept from the last set-up.
        self.inputs: list[Any] = []
        #: Seconds of each set-up, at reference machine speed, and of its
        #: phases as measured.
        self.setup_samples: list[float] = []
        self.phase_samples: list[dict[str, float]] = []
        #: Per world, the exact numbers of its first run; every later run
        #: of that world must match them.
        self.first_exact: dict[int, dict[str, float]] = {}
        #: Per timed run: world, wall_s, machine speed, host_s (the wall
        #: at reference speed, unless the workload mostly sleeps), cpu_s,
        #: child_cpu_s, and its noisy numbers.
        self.samples: list[dict[str, float]] = []
        #: The latest timed run of world 0.
        self.primary: Run | None = None

    # -- operations ---------------------------------------------------------

    def do(self, label: str, operation: Callable[[], Any]) -> Any:
        """Count one operation; a raised error fails it and returns None."""
        self.attempted += 1
        try:
            return operation()
        except Exception:
            # Boundary that must keep going: record, report at the end.
            self.failures.append(
                f"{label}: {traceback.format_exc(limit=3).strip()}")
            return None

    def _run(self, label: str, world: int = 0,
             runner: Callable[[], Run] | None = None) -> Run:
        inputs = self.inputs[world]
        run = self.do(label, runner or (lambda: self.workload.run(inputs)))
        if run is None:
            raise Abort(self.failures[-1])
        for what, check in self.workload.run_checks(inputs, run):
            self.do(f"{label}: {what}", check)
        first = self.first_exact.setdefault(world, run.exact)
        if first is not run.exact:
            self.do(f"{label}: identical to the first run of its inputs",
                    lambda: expect(run.exact == first, "differs in " + str(
                        {k: (first.get(k), v) for k, v in run.exact.items()
                         if first.get(k) != v})))
        return run

    # -- the steps ----------------------------------------------------------

    def setup(self, times: int) -> None:
        """Build the run's inputs ``times`` times, each from a cold cache.

        The same seed builds the same inputs, so one copy is kept.
        """
        def build() -> tuple[list[Any] | None, float]:
            t0 = time.perf_counter()
            inputs = self.do("set-up", lambda: [
                self.workload.build(self.seed, world)
                for world in range(self.workload.worlds)])
            return inputs, time.perf_counter() - t0

        for _ in range(times):
            with private_trace_cache():
                (inputs, elapsed), speed = timed_at_reference_speed(build)
            if inputs is None:
                raise Abort(self.failures[-1])
            self.inputs = inputs
            self.setup_samples.append(elapsed * speed)
            self.phase_samples.append({
                phase: sum(world.phases[phase] for world in inputs)
                for phase in inputs[0].phases})

    def warmup(self) -> None:
        """One untimed run: scenario-level caches (path fields, GraphSpace
        BFS balls) outlive a run, and users pay for them once."""
        self._run("warm-up run")

    def repeat(self) -> None:
        world = len(self.samples) % len(self.inputs)
        run, speed = timed_at_reference_speed(lambda: self._run(
            f"timed run {len(self.samples) + 1}", world))
        self.samples.append({"world": world, "wall_s": run.wall_s,
                             "speed": speed,
                             "host_s": self._host_s(run.wall_s, speed),
                             "cpu_s": run.cpu_s,
                             "child_cpu_s": run.child_cpu_s, **run.noisy})
        if world == 0:
            self.primary = run

    def _host_s(self, wall_s: float, speed: float) -> float:
        """A run's wall at reference speed, unless it mostly sleeps."""
        return wall_s * speed if self.workload.cpu_bound else wall_s

    def finish(self, traced: bool, spans_path: str | None = None) -> dict:
        """Reference runs, checks, the traced run; returns the report."""
        if self.primary is None:
            raise Abort("no timed run to report")
        found: dict[str, float] = {}
        for what, operation in self.workload.references_and_checks(
                self.inputs[0], self.primary, found):
            self.do(what, operation)
        # Before the traced run: its spans and timeline are the
        # benchmark's memory, not the program's.
        found["peak_rss_mb"] = peak_rss_mb()
        span_summary = None
        if traced:
            span_summary = self._traced_run(found, spans_path)
        return self._report(found, span_summary)

    def _traced_run(self, found: dict[str, float],
                    spans_path: str | None) -> dict:
        inputs = self.inputs[0]
        tracer = Tracer()

        def traced() -> Run:
            with layers.traced(tracer, self.workload.in_process):
                return self._run("traced run", runner=lambda: tracer.call(
                    "bench.run", self.workload.run, inputs, True))

        run, speed = timed_at_reference_speed(traced)
        for what, check in self.workload.traced_checks(inputs, run):
            self.do(f"traced run: {what}", check)
        summary = tracer.summary()
        for metric, span, field in layers.SPAN_METRICS:
            if span in summary:
                found[metric] = summary[span][field]
        events = tracer.children_of("devent.loop")
        if events:
            found["devent.events"] = events
            found["devent.events_per_agent_step"] = \
                events / inputs.agent_steps
        root = summary["bench.run"]
        found["bench.trace_overhead_ratio"] = \
            self._host_s(run.wall_s, speed) / statistics.median(
                s["host_s"] for s in self.samples if s["world"] == 0)
        found["bench.unattributed_share"] = root["self_s"] / root["total_s"]
        if spans_path:
            Path(spans_path).write_text(json.dumps(tracer.rows()))
        return summary

    # -- the report ---------------------------------------------------------

    def _report(self, found: dict[str, float],
                span_summary: dict | None) -> dict:
        agent_steps = self.inputs[0].agent_steps
        per_day = STEPS_PER_DAY / agent_steps
        medians = {
            w: statistics.median(s["host_s"] for s in self.samples
                                 if s["world"] == w)
            for w in sorted({s["world"] for s in self.samples})}
        # One world: the median of all repeats. Several: the mean over
        # the worlds of each one's median.
        host = statistics.fmean(medians.values())
        # How much one input's repeats wobble: every sample relative to
        # its own world's median.
        q1, _, q3 = quartiles([s["host_s"] / medians[s["world"]]
                               for s in self.samples])
        primary = [s for s in self.samples if s["world"] == 0]
        numbers = {**self.first_exact[0], **_medians(primary),
                   **_medians(self.phase_samples), **found}
        numbers.update({
            "setup_s": statistics.median(self.setup_samples),
            "host_s_per_agent_day": host * per_day,
            "bench.samples": len(self.samples),
            "bench.repeat_spread": q3 - q1,
            "bench.machine_speed": statistics.median(
                s["speed"] for s in self.samples),
            "bench.raw_wall_s": numbers["wall_s"],
            "bench.host_cpu_s": statistics.median(
                s["cpu_s"] + s["child_cpu_s"] for s in primary),
        })
        if "lockstep_wall_s" in found:
            numbers["live_speedup_vs_lockstep"] = \
                found["lockstep_wall_s"] / numbers["wall_s"]
        if "parallel.workers" in numbers:
            numbers["parallel.child_cpu_s"] = numbers["child_cpu_s"]
        failed = len(self.failures)
        numbers["ops_failed_share"] = failed / self.attempted
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "size": dataclasses.asdict(self.workload),
            "agent_steps": agent_steps,
            "samples": len(self.samples),
            "setups": len(self.setup_samples),
            "ops_attempted": self.attempted,
            "ops_failed": failed,
            "failures": self.failures,
            "end_to_end": {k: v for k, v in numbers.items()
                           if k in _E2E_NAMES},
            "quartiles": {
                "host_s_per_agent_day": [q1 * host * per_day,
                                         q3 * host * per_day],
                "setup_s": list(quartiles(self.setup_samples)[::2]),
            },
            "per_layer": {k: v for k, v in numbers.items()
                          if k in _LAYER_NAMES},
            "spans": span_summary,
        }
