"""Simulated LLM serving engine (SGLang substitute).

The paper replays GenAgent traces against SGLang on NVIDIA L4/A100 GPUs.
This package reproduces the *performance behaviour* that matters to the
scheduling comparison — continuous (iteration-level) batching on top of a
roofline performance model, paged-KV memory admission, priority-aware
queueing, and data-/tensor-parallel deployment — as a deterministic
discrete-event simulation.

Replicas are :class:`~repro.serving.replica.IterationReplica`: exact
per-iteration decode arithmetic, one kernel event per batch-composition
change.
"""

from .engine import ServingEngine
from .memory import KV_POLICIES, KVCacheManager
from .metrics import EngineMetrics, RequestRecord
from .perfmodel import PerfModel
from .profiles import (GPUS, MODELS, GpuProfile, ModelProfile,
                       ServingProfile, get_gpu, get_model)
from .request import LLMRequest

__all__ = [
    "ServingEngine",
    "LLMRequest",
    "PerfModel",
    "GpuProfile",
    "ModelProfile",
    "ServingProfile",
    "GPUS",
    "MODELS",
    "get_gpu",
    "get_model",
    "EngineMetrics",
    "RequestRecord",
    "KVCacheManager",
    "KV_POLICIES",
]
