"""A run loads neither ``numpy.random`` nor OpenSSL.

``numpy.random`` and ``hashlib``'s ``_hashlib`` (which maps OpenSSL's
libcrypto) are ≈6 MiB of a small run's peak RSS. The world draws its
seeded model-build numbers from ``_util.Pcg64`` and hashes with
CPython's own ``_blake2``, and
the worker pool hands its forked workers the position store without
``multiprocessing.shared_memory`` (which imports ``secrets`` and with
it ``hashlib``), so a cold set-up, a replay, a two-worker replay and a
live run in a fresh interpreter must leave all three modules unloaded —
on every Python version CI runs, which also shows the built-in hash
modules, not the ``hashlib`` fallbacks, are the ones taken.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules a run must not load (unless the interpreter had them at start).
HEAVY = ("numpy.random", "hashlib", "_hashlib")

RUN = """
import json, os, sys
from pathlib import Path
before = set(sys.modules)

from repro import SchedulerConfig, cached_day_trace, run_replay
from repro.live import EchoLLMClient, LiveSimulation, program_for_scenario
from repro.trace.generator import generate_scale_trace

cache = Path(os.environ["REPRO_TRACE_CACHE"])
cached_day_trace(0, 25, 2400)  # cold: generated, then saved
assert len(list(cache.glob("*.npz"))) == 1
trace = cached_day_trace(0, 25, 2400)  # loaded: the fingerprint check runs
assert len(trace.call_step) > 0
run_replay(trace)
tiled = generate_scale_trace(total_agents=60, n_steps=10)
extra = run_replay(tiled, SchedulerConfig(parallel_workers=2)
                   ).driver_stats.extra
assert extra["parallel_workers"] == 2, extra.get("parallel_fallback")

program = program_for_scenario("smallville", 6)
for step in range(2200):
    program.model.step_all(step)
LiveSimulation(program, EchoLLMClient(),
               SchedulerConfig(scenario="smallville"),
               num_workers=2).run(target_step=2230, start_step=2200)

print(json.dumps(sorted(m for m in %r if m in sys.modules
                        and m not in before)))
""" % (HEAVY,)


def test_cold_setup_replay_and_live_run_stay_light(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC),
           "REPRO_TRACE_CACHE": str(tmp_path)}
    done = subprocess.run([sys.executable, "-c", RUN], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1]) == []
