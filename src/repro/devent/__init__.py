"""Discrete-event simulation kernel.

All benchmark experiments run in *virtual time* on this kernel: the
schedulers under test and the simulated LLM serving engine are event-driven
state machines whose callbacks are ordered by a single event heap. This
substitutes for the paper's wall-clock measurements on real GPUs while
keeping completion-time *ratios* between schedulers meaningful and exactly
reproducible.
"""

from .kernel import Event, Kernel

__all__ = ["Event", "Kernel"]
