"""Span arithmetic and patch hygiene of the benchmark's tracer."""

from __future__ import annotations

import threading

import pytest

import layers
from spans import Patches, Tracer, layer_of, wrap_argument


class FakeClock:
    """Each reading is one second after the previous one."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_self_time_is_duration_minus_children():
    tracer = Tracer(clock=FakeClock())

    def leaf():
        return "leaf"

    def parent():
        tracer.call("leaf", leaf)
        tracer.call("leaf", leaf)
        return "parent"

    assert tracer.call("parent", parent) == "parent"
    summary = tracer.summary()
    # Clock readings: parent opens at 1, leaves span 2-3 and 4-5,
    # parent closes at 6.
    assert summary["parent"] == {"calls": 1, "self_s": 3.0, "total_s": 5.0}
    assert summary["leaf"] == {"calls": 2, "self_s": 2.0, "total_s": 2.0}
    assert tracer.children_of("parent") == 2
    assert tracer.rows() == [["parent", 1.0, 6.0, -1],
                             ["leaf", 2.0, 3.0, 0], ["leaf", 4.0, 5.0, 0]]


def test_grandchildren_count_once():
    tracer = Tracer(clock=FakeClock())
    tracer.call("a", lambda: tracer.call("b", lambda: tracer.call(
        "c", lambda: None)))
    summary = tracer.summary()
    assert summary["c"]["self_s"] == 1.0
    assert summary["b"]["self_s"] == 2.0   # 3 s long, 1 s of it in c
    assert summary["a"]["self_s"] == 2.0   # 5 s long, 3 s of it in b
    assert sum(row["self_s"] for row in summary.values()) \
        == summary["a"]["total_s"]


def test_exception_closes_the_span_and_unwinds_the_stack():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("boom")

    def outer():
        with pytest.raises(ValueError):
            tracer.call("inner", boom)
        tracer.call("after", lambda: None)

    tracer.call("outer", outer)
    rows = tracer.rows()
    assert [row[0] for row in rows] == ["outer", "inner", "after"]
    assert all(end > start for _, start, end, _ in rows)
    # "after" hangs off "outer": the failed span left the stack.
    assert rows[2][3] == 0
    with pytest.raises(ValueError):
        tracer.call("top", boom)
    assert tracer.rows()[-1][3] == -1
    assert tracer.threads[0].stack == []


def test_threads_keep_their_own_stacks():
    tracer = Tracer()
    started = threading.Barrier(2, timeout=5)

    def work():
        def inner():
            started.wait()   # both threads are inside a span at once

        tracer.call("outer", lambda: tracer.call("inner", inner))

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive()
    rows = tracer.rows()
    assert sorted(row[0] for row in rows) == ["inner", "inner",
                                              "outer", "outer"]
    for name, _, _, parent in rows:
        if name == "inner":
            assert rows[parent][0] == "outer"
        else:
            assert parent == -1
    assert tracer.summary()["outer"]["calls"] == 2


def test_layer_of_names_the_defining_module():
    from repro.core.metropolis import MetropolisDriver
    from repro.core.tasks import ChainExecutor
    from repro.serving.replica import FluidReplica

    assert layer_of(MetropolisDriver._launch_batch) == "metropolis"
    assert layer_of(ChainExecutor.run_cluster) == "tasks"
    assert layer_of(FluidReplica._prefill_done) == "serving"
    assert layer_of(len) == "other"


def test_wrap_argument_spans_the_callback_by_its_layer():
    from repro.core.metropolis import MetropolisDriver

    tracer = Tracer()
    seen = []

    def handed_over(self, callback):
        callback(self)

    traced = wrap_argument(tracer, "api", handed_over, position=1,
                           keyword="callback")
    traced("x", seen.append)
    traced("y", callback=seen.append)
    assert seen == ["x", "y"]
    names = [row[0] for row in tracer.rows()]
    assert names == ["api", "other.callback", "api", "other.callback"]
    assert tracer.callback(MetropolisDriver.start).__name__ \
        == "traced_callback"


def test_patches_restore_every_original():
    class Target:
        @staticmethod
        def static():
            return "static"

        def method(self):
            return "method"

    before = dict(vars(Target))
    with Patches() as patches:
        patches.set(Target, "static", staticmethod(lambda: "patched"))
        patches.set(Target, "method", lambda self: "patched")
        assert Target.static() == Target().method() == "patched"
    assert dict(vars(Target)) == before
    assert Target.static() == "static"


def test_traced_run_leaves_repro_untouched():
    from repro.core.tasks import ChainExecutor
    from repro.devent import Kernel
    from repro.serving import ServingEngine

    targets = list(layers.IN_PROCESS + layers.PARENT_SIDE) + [
        (Kernel, "call_at", ""), (ChainExecutor, "run_cluster", ""),
        (ServingEngine, "generate", "")]
    before = [vars(owner)[attr] for owner, attr, _ in targets]
    with pytest.raises(RuntimeError):
        with layers.traced(Tracer()):
            assert all(vars(owner)[attr] is not original for
                       (owner, attr, _), original in zip(targets, before))
            raise RuntimeError("a failing run must still restore")
    assert [vars(owner)[attr] for owner, attr, _ in targets] == before


def test_kernel_callbacks_get_spans_named_by_layer():
    from repro.devent import Kernel

    tracer = Tracer()
    fired = []
    with layers.traced(tracer):
        kernel = Kernel()
        kernel.call_in(1.0, fired.append, "a")
        kernel.call_at(2.0, kernel.call_in, 1.0, fired.append, "b")
        kernel.run()
    assert fired == ["a", "b"]
    rows = tracer.rows()
    assert [row[0] for row in rows] == [
        "devent.loop", "other.callback", "devent.callback", "other.callback"]
    assert tracer.children_of("devent.loop") == 3
