"""Roofline performance model for one (model, GPU, TP) replica.

The model captures the two regimes that drive the paper's results:

* **decode** is memory-bandwidth bound at the batch sizes simulations
  reach — every iteration streams the weights (plus the KV cache of all
  running sequences) from HBM, so iteration latency is nearly flat in the
  batch size until the compute roofline is reached. This is why raising
  the number of concurrent requests (what AI Metropolis does) converts
  almost directly into throughput.
* **prefill** is compute bound and proportional to prompt length.

Iteration latency for a decode batch of size B with ``kv_tokens`` total
cached context::

    t = overhead(tp) + max(weight_read, B * token_compute) + kv_read

where ``weight_read = W_eff(B) / (MBU * BW * tp)`` (tensor parallelism
shards both weights and KV across ranks), ``token_compute =
2 * params_active / (MFU * FLOPS * tp)``, and ``kv_read = kv_tokens *
kv_bytes_per_token / (MBU * BW * tp)``.

Prefill of P tokens costs ``overhead(tp) + 2 * params_active * P /
(MFU_prefill * FLOPS * tp)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from .profiles import GpuProfile, ModelProfile

#: Model FLOPs utilization during decode (small batches, bandwidth bound).
MFU_DECODE = 0.45
#: Model FLOPs utilization during prefill (large GEMMs).
MFU_PREFILL = 0.55
#: Memory-bandwidth utilization.
MBU = 0.80


@dataclass(frozen=True)
class PerfModel:
    """Analytic latency model for one tensor-parallel replica."""

    model: ModelProfile
    gpu: GpuProfile
    tp: int = 1
    kv_memory_fraction: float = 0.9

    def __post_init__(self) -> None:
        if self.tp < 1:
            raise ConfigError(f"tp must be >= 1, got {self.tp}")
        if self.weight_bytes_per_gpu > self.gpu.mem_bytes:
            raise ConfigError(
                f"{self.model.name} does not fit on {self.tp}x "
                f"{self.gpu.name}: needs {self.weight_bytes_per_gpu / 1e9:.1f} "
                f"GB/GPU of {self.gpu.mem_bytes / 1e9:.1f} GB")
        # Prefill runs once per request: keep its constants at hand.
        object.__setattr__(self, "_prefill_overhead", self._overhead)
        object.__setattr__(self, "_prefill_flops",
                           2.0 * self.model.params_active)
        object.__setattr__(self, "_prefill_rate", MFU_PREFILL * self._flops)

    # -- capacity -------------------------------------------------------

    @property
    def weight_bytes_per_gpu(self) -> float:
        return self.model.weight_bytes / self.tp

    @property
    def kv_capacity_tokens(self) -> int:
        """Tokens of KV cache the replica can hold across its TP group."""
        free = self.tp * self.gpu.mem_bytes - self.model.weight_bytes
        usable = free * self.kv_memory_fraction
        return max(int(usable / self.model.kv_bytes_per_token), 0)

    # -- latency -----------------------------------------------------------

    @property
    def _overhead(self) -> float:
        extra = self.gpu.tp_sync_overhead * (self.tp - 1)
        return self.gpu.kernel_overhead + extra

    @property
    def _bw(self) -> float:
        return MBU * self.gpu.hbm_bw * self.tp

    @property
    def _flops(self) -> float:
        return self.gpu.flops_fp16 * self.tp

    @property
    def token_compute_time(self) -> float:
        """Seconds of compute per decoded token (per batch element)."""
        return 2.0 * self.model.params_active / (MFU_DECODE * self._flops)

    def weight_read_time(self, batch_size: float) -> float:
        """Seconds to stream the (effective) weights once."""
        return self.model.effective_weight_bytes(batch_size) / self._bw

    def kv_read_time_per_token(self) -> float:
        """Seconds of HBM traffic per cached context token per iteration."""
        return self.model.kv_bytes_per_token / self._bw

    def decode_iteration_time(self, batch_size: int, kv_tokens: float) -> float:
        """Latency of one decode iteration (1 new token per sequence)."""
        if batch_size <= 0:
            raise ConfigError("decode iteration needs batch_size >= 1")
        body = max(self.weight_read_time(batch_size),
                   batch_size * self.token_compute_time)
        return self._overhead + body + kv_tokens * self.kv_read_time_per_token()

    def prefill_time(self, prompt_tokens: int) -> float:
        """Latency to prefill a prompt of ``prompt_tokens``."""
        if prompt_tokens < 0:
            raise ConfigError("prompt_tokens must be >= 0")
        # ``overhead + 2 * params * P / (MFU * flops)``, its two
        # constant factors taken once in ``__post_init__``: the same
        # operations on the same floats, so the same result.
        return self._prefill_overhead \
            + self._prefill_flops * prompt_tokens / self._prefill_rate
