"""Hardware and model profiles used by the performance model.

Constants are public datasheet numbers; effective utilization factors
(model FLOPs utilization, memory-bandwidth utilization) live in
:mod:`repro.serving.perfmodel`. The three models and two GPUs below are
exactly the configurations benchmarked in the paper (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class GpuProfile:
    """A GPU SKU."""

    name: str
    #: Device memory in bytes.
    mem_bytes: float
    #: HBM/GDDR bandwidth in bytes/second (peak).
    hbm_bw: float
    #: Dense fp16/bf16 throughput in FLOP/s (peak, no sparsity).
    flops_fp16: float
    #: Fixed per-iteration launch/sync overhead in seconds.
    kernel_overhead: float
    #: Additional per-iteration cost per tensor-parallel rank beyond the
    #: first (allreduce latency), seconds.
    tp_sync_overhead: float


@dataclass(frozen=True)
class ModelProfile:
    """An LLM architecture, sized for fp16 weights.

    ``params_active`` differs from ``params_total`` only for MoE models:
    it is the parameter count touched per token (attention + shared parts
    + top-k experts).
    """

    name: str
    params_total: float
    params_active: float
    n_layers: int
    n_kv_heads: int
    head_dim: int
    #: Parameters that are read for every token regardless of routing
    #: (attention, embeddings, norms). Equal to ``params_total`` for dense.
    params_nonexpert: float
    #: Number of experts (1 for dense models).
    n_experts: int = 1
    #: Experts activated per token (1 for dense models).
    top_k: int = 1

    @property
    def weight_bytes(self) -> float:
        return 2.0 * self.params_total  # fp16

    @property
    def kv_bytes_per_token(self) -> float:
        # K and V, fp16.
        return 2.0 * self.n_layers * self.n_kv_heads * self.head_dim * 2.0

    @property
    def is_moe(self) -> bool:
        return self.n_experts > 1

    def expert_utilization(self, batch_size: float) -> float:
        """Expected fraction of expert weights touched by a decode batch.

        With ``top_k`` of ``n_experts`` experts sampled per token, a batch
        of B tokens leaves an expert untouched with probability
        ``(1 - top_k/n_experts)**B``.
        """
        if not self.is_moe:
            return 1.0
        miss = (1.0 - self.top_k / self.n_experts) ** max(batch_size, 0.0)
        return 1.0 - miss

    def effective_weight_bytes(self, batch_size: float) -> float:
        """Bytes of weights streamed per decode iteration for batch B."""
        if not self.is_moe:
            return self.weight_bytes
        expert_params = self.params_total - self.params_nonexpert
        util = self.expert_utilization(batch_size)
        return 2.0 * (self.params_nonexpert + expert_params * util)


@dataclass(frozen=True)
class ServingProfile:
    """A scenario's declared serving-side workload shape.

    Each registered world carries one of these (see
    :class:`repro.scenarios.base.Scenario`), so end-to-end benches know
    which deployment to simulate and what token traffic to expect
    without re-measuring the trace.
    """

    #: Platform key from :data:`repro.bench.runner.PLATFORMS`.
    platform: str = "l4-8b"
    #: Total GPUs for the deployment (split into dp x tp by the runner).
    gpus: int = 1
    #: Expected mean prompt / output tokens per call for this world's
    #: behaviour model (documentation + sanity checks, not a control).
    mean_prompt_tokens: float = 640.0
    mean_output_tokens: float = 22.0
    #: ``kv_memory_fraction`` for the KV-constrained bench cell — small
    #: enough that retained segments compete for space and the eviction
    #: policy matters.
    kv_pressure_fraction: float = 0.06
    description: str = ""


GPUS: dict[str, GpuProfile] = {
    "l4": GpuProfile(
        name="NVIDIA L4",
        mem_bytes=24e9,
        hbm_bw=300e9,
        flops_fp16=121e12,
        kernel_overhead=4e-3,
        tp_sync_overhead=1.5e-3,
    ),
    "a100": GpuProfile(
        name="NVIDIA A100-80GB",
        mem_bytes=80e9,
        hbm_bw=2039e9,
        flops_fp16=312e12,
        kernel_overhead=3e-3,
        tp_sync_overhead=1.0e-3,
    ),
}

MODELS: dict[str, ModelProfile] = {
    "llama3-8b": ModelProfile(
        name="Llama-3-8B-Instruct",
        params_total=8.03e9,
        params_active=8.03e9,
        n_layers=32,
        n_kv_heads=8,
        head_dim=128,
        params_nonexpert=8.03e9,
    ),
    "llama3-70b": ModelProfile(
        name="Llama-3-70B-Instruct",
        params_total=70.6e9,
        params_active=70.6e9,
        n_layers=80,
        n_kv_heads=8,
        head_dim=128,
        params_nonexpert=70.6e9,
    ),
    "mixtral-8x7b": ModelProfile(
        name="Mixtral-8x7B-Instruct-v0.1",
        params_total=46.7e9,
        params_active=12.9e9,
        n_layers=32,
        n_kv_heads=8,
        head_dim=128,
        # attention + embeddings + norms: always streamed
        params_nonexpert=2.3e9,
        n_experts=8,
        top_k=2,
    ),
}


def get_gpu(name: str) -> GpuProfile:
    try:
        return GPUS[name]
    except KeyError:
        raise ConfigError(
            f"unknown GPU {name!r}; available: {sorted(GPUS)}") from None


def get_model(name: str) -> ModelProfile:
    try:
        return MODELS[name]
    except KeyError:
        raise ConfigError(
            f"unknown model {name!r}; available: {sorted(MODELS)}") from None
