"""Live (wall-clock, multi-threaded) execution engine.

The replay engine in :mod:`repro.core` measures schedulers in virtual
time; this package is the *deployable* counterpart: a real implementation
of Algorithm 3 with a controller, a pool of worker threads, priority
ready/ack queues, agent state kept in the transactional KV store (the
paper keeps it in Redis), and LLM calls issued to a pluggable
:class:`LLMClient`. Use it to drive an actual simulation:
:class:`LiveSimulation` runs a user :class:`WorldProgram` (whose
``execute`` is the paper's ``agent.proceed`` / ``world.step``) to a
target step::

    program = program_for_scenario("smallville", n_agents=10)
    result = LiveSimulation(program, EchoLLMClient(),
                            num_workers=4).run(target_step=100)
"""

from .clients import EchoLLMClient, LLMClient, ThrottledLLMClient
from .engine import LiveResult, LiveSimulation
from .environment import WorldProgram, program_for_scenario

__all__ = [
    "LLMClient",
    "EchoLLMClient",
    "ThrottledLLMClient",
    "LiveSimulation",
    "LiveResult",
    "WorldProgram",
    "program_for_scenario",
]
