"""Which public entry points of ``repro`` the traced run wraps.

Each target is a public method (or module-level function) of one layer;
the span it opens is named ``<layer>.<what>``. Patches go on the class,
so they must be installed before the run builds its objects (several
layers bind ``space.within`` and friends to locals at construction).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.core import parallel
from repro.core.clustering import SpatialIndex
from repro.core.dependency_graph import SpatioTemporalGraph
from repro.core.space import GraphSpace
from repro.core.tasks import ChainExecutor
from repro.devent import Kernel
from repro.faults import ResilientClient
from repro.kvstore import KVStore
from repro.live import LiveSimulation, ThrottledLLMClient
from repro.live.environment import BehaviorProgram
from repro.serving import ServingEngine
from repro.serving.memory import KVCacheManager
from repro.trace import Trace

from spans import Patches, Tracer, wrap_argument

#: (owner, attribute, span name), everything that runs inside the
#: benchmark's own process.
IN_PROCESS = (
    (Trace, "chain_bounds", "trace.chain_bounds"),
    (Kernel, "run", "devent.loop"),
    (SpatioTemporalGraph, "commit", "dependency_graph.commit"),
    (SpatioTemporalGraph, "component_for", "dependency_graph.component"),
    (SpatioTemporalGraph, "mark_running", "dependency_graph.mark_running"),
    (GraphSpace, "within", "space.within"),
    (GraphSpace, "bucket", "space.bucket"),
    (SpatialIndex, "query", "clustering.query"),
    (SpatialIndex, "query_into", "clustering.query"),
    (ServingEngine, "generate_batch", "serving.api"),
    (ServingEngine, "submit", "serving.api"),
    (ServingEngine, "prefetch", "serving.api"),
    (KVCacheManager, "reserve", "serving.kv"),
    (KVCacheManager, "release", "serving.kv"),
    (KVCacheManager, "retain", "serving.kv"),
    (KVCacheManager, "pin", "serving.kv"),
    (LiveSimulation, "run", "live.run"),
    (BehaviorProgram, "execute", "world.execute"),
    (ResilientClient, "complete", "faults.complete"),
    (ThrottledLLMClient, "complete", "llm.complete"),
    (KVStore, "transaction", "kvstore.transaction"),
)

#: Called only by the parent of a multiprocess replay. ``shard_mp``
#: installs these alone: its workers are forked from the traced process
#: and would inherit every patch, paying for spans nobody reads.
PARENT_SIDE = (
    (Trace, "share_positions", "trace.share_positions"),
    (parallel, "plan_regions", "sharding.plan_regions"),
    (parallel.ShardWorkerPool, "run_tasks", "parallel.run_tasks"),
)


@contextmanager
def traced(tracer: Tracer, in_process: bool = True) -> Iterator[None]:
    """Install the wrappers for the duration of the block."""
    with Patches() as patches:
        for owner, attr, name in PARENT_SIDE + (IN_PROCESS if in_process
                                                else ()):
            patches.set(owner, attr, tracer.wrap(name, vars(owner)[attr]))
        if in_process:
            _patch_callbacks(patches, tracer)
        yield


def _patch_callbacks(patches: Patches, tracer: Tracer) -> None:
    """Give callbacks a span named after the layer that defined them.

    ``Kernel.call_at`` is where every scheduled callback passes; the
    chain executor's ``on_done`` and the engine's ``on_complete`` are
    invoked from inside another layer's callback, so they are wrapped
    where they are handed over.
    """
    call_at = Kernel.call_at
    callback = tracer.callback

    def traced_call_at(self, time, fn, *args):
        return call_at(self, time, callback(fn), *args)

    patches.set(Kernel, "call_at", traced_call_at)
    patches.set(ChainExecutor, "run_cluster", wrap_argument(
        tracer, "tasks.run_cluster", ChainExecutor.run_cluster,
        position=4, keyword="on_done"))
    patches.set(ServingEngine, "generate", wrap_argument(
        tracer, "serving.api", ServingEngine.generate,
        position=4, keyword="on_complete"))


#: (per-layer metric, span name, field of ``Tracer.summary()``).
SPAN_METRICS = (
    ("trace.chain_bounds_calls", "trace.chain_bounds", "calls"),
    ("trace.chain_bounds_self_s", "trace.chain_bounds", "self_s"),
    ("trace.share_positions_s", "trace.share_positions", "total_s"),
    ("world.execute_calls", "world.execute", "calls"),
    ("world.execute_self_s", "world.execute", "self_s"),
    ("devent.loop_self_s", "devent.loop", "self_s"),
    ("metropolis.callback_self_s", "metropolis.callback", "self_s"),
    ("dependency_graph.commit_calls", "dependency_graph.commit", "calls"),
    ("dependency_graph.commit_self_s", "dependency_graph.commit", "self_s"),
    ("dependency_graph.component_calls", "dependency_graph.component",
     "calls"),
    ("dependency_graph.component_self_s", "dependency_graph.component",
     "self_s"),
    ("dependency_graph.mark_running_self_s", "dependency_graph.mark_running",
     "self_s"),
    ("space.within_calls", "space.within", "calls"),
    ("space.within_self_s", "space.within", "self_s"),
    ("space.bucket_calls", "space.bucket", "calls"),
    ("space.bucket_self_s", "space.bucket", "self_s"),
    ("clustering.query_calls", "clustering.query", "calls"),
    ("clustering.query_self_s", "clustering.query", "self_s"),
    ("tasks.run_cluster_calls", "tasks.run_cluster", "calls"),
    ("tasks.run_cluster_self_s", "tasks.run_cluster", "self_s"),
    ("tasks.callback_self_s", "tasks.callback", "self_s"),
    ("serving.api_self_s", "serving.api", "self_s"),
    ("serving.callback_self_s", "serving.callback", "self_s"),
    ("serving.kv_self_s", "serving.kv", "self_s"),
    ("sharding.plan_regions_s", "sharding.plan_regions", "total_s"),
    ("parallel.run_tasks_s", "parallel.run_tasks", "total_s"),
    ("kvstore.transaction_self_s", "kvstore.transaction", "self_s"),
)
