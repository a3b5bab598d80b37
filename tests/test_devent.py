"""Tests for the discrete-event kernel and virtual queues."""

import pytest

from repro.devent import Gate, Kernel, Timeout, VirtualPriorityQueue
from repro.errors import KernelError


class TestKernelScheduling:
    def test_starts_at_zero(self):
        assert Kernel().now == 0.0

    def test_call_in_advances_clock(self):
        k = Kernel()
        seen = []
        k.call_in(5.0, lambda: seen.append(k.now))
        k.run()
        assert seen == [5.0]
        assert k.now == 5.0

    def test_events_ordered_by_time(self):
        k = Kernel()
        order = []
        k.call_in(3.0, order.append, "b")
        k.call_in(1.0, order.append, "a")
        k.call_in(7.0, order.append, "c")
        k.run()
        assert order == ["a", "b", "c"]

    def test_fifo_tie_break_at_equal_times(self):
        k = Kernel()
        order = []
        for tag in range(5):
            k.call_at(1.0, order.append, tag)
        k.run()
        assert order == [0, 1, 2, 3, 4]

    def test_nested_scheduling(self):
        k = Kernel()
        seen = []

        def outer():
            seen.append(("outer", k.now))
            k.call_in(2.0, inner)

        def inner():
            seen.append(("inner", k.now))

        k.call_in(1.0, outer)
        k.run()
        assert seen == [("outer", 1.0), ("inner", 3.0)]

    def test_rejects_past_scheduling(self):
        k = Kernel()
        k.call_in(5.0, lambda: None)
        k.run()
        with pytest.raises(KernelError):
            k.call_at(1.0, lambda: None)

    def test_rejects_negative_delay(self):
        with pytest.raises(KernelError):
            Kernel().call_in(-1.0, lambda: None)

    def test_cancel(self):
        k = Kernel()
        seen = []
        ev = k.call_in(1.0, seen.append, "x")
        ev.cancel()
        k.run()
        assert seen == []

    def test_cancel_one_of_many(self):
        k = Kernel()
        seen = []
        k.call_in(1.0, seen.append, "a")
        ev = k.call_in(2.0, seen.append, "b")
        k.call_in(3.0, seen.append, "c")
        ev.cancel()
        k.run()
        assert seen == ["a", "c"]

    def test_run_until(self):
        k = Kernel()
        seen = []
        k.call_in(1.0, seen.append, "a")
        k.call_in(10.0, seen.append, "b")
        k.run(until=5.0)
        assert seen == ["a"]
        assert k.now == 5.0
        k.run()
        assert seen == ["a", "b"]

    def test_step_runs_single_event(self):
        k = Kernel()
        seen = []
        k.call_in(1.0, seen.append, 1)
        k.call_in(2.0, seen.append, 2)
        assert k.step()
        assert seen == [1]
        assert k.step()
        assert not k.step()

    def test_empty(self):
        k = Kernel()
        assert k.empty()
        ev = k.call_in(1.0, lambda: None)
        assert not k.empty()
        ev.cancel()
        assert k.empty()

    def test_no_reentrant_run(self):
        k = Kernel()

        def bad():
            k.run()

        k.call_in(1.0, bad)
        with pytest.raises(KernelError):
            k.run()


class TestProcesses:
    def test_timeout_sequence(self):
        k = Kernel()
        marks = []

        def proc():
            marks.append(k.now)
            yield Timeout(2.0)
            marks.append(k.now)
            yield Timeout(3.0)
            marks.append(k.now)

        k.process(proc())
        k.run()
        assert marks == [0.0, 2.0, 5.0]

    def test_gate_wakes_waiters(self):
        k = Kernel()
        gate = Gate(k)
        got = []

        def waiter():
            value = yield gate
            got.append((k.now, value))

        k.process(waiter())
        k.process(waiter())
        k.call_in(4.0, gate.fire, "ready")
        k.run()
        assert got == [(4.0, "ready"), (4.0, "ready")]

    def test_fired_gate_resumes_immediately(self):
        k = Kernel()
        gate = Gate(k)
        gate.fire(7)
        got = []

        def waiter():
            value = yield gate
            got.append(value)

        k.process(waiter())
        k.run()
        assert got == [7]

    def test_gate_fires_once(self):
        k = Kernel()
        gate = Gate(k)
        gate.fire()
        with pytest.raises(KernelError):
            gate.fire()

    def test_process_done_gate(self):
        k = Kernel()
        results = []

        def child():
            yield Timeout(1.0)
            return "value"

        def parent():
            proc = k.process(child())
            value = yield proc
            results.append((k.now, value))

        k.process(parent())
        k.run()
        assert results == [(1.0, "value")]

    def test_bad_yield_raises(self):
        k = Kernel()

        def proc():
            yield 42

        k.process(proc())
        with pytest.raises(KernelError):
            k.run()


class TestVirtualPriorityQueue:
    def test_priority_order(self):
        k = Kernel()
        q = VirtualPriorityQueue(k, priority=True)
        got = []
        q.put("low", priority=5.0)
        q.put("high", priority=1.0)
        q.get(got.append)
        q.get(got.append)
        k.run()
        assert got == ["high", "low"]

    def test_fifo_when_priority_disabled(self):
        k = Kernel()
        q = VirtualPriorityQueue(k, priority=False)
        got = []
        q.put("first", priority=5.0)
        q.put("second", priority=1.0)
        q.get(got.append)
        q.get(got.append)
        k.run()
        assert got == ["first", "second"]

    def test_getter_waits_for_put(self):
        k = Kernel()
        q = VirtualPriorityQueue(k)
        got = []
        q.get(lambda item: got.append((k.now, item)))
        k.call_in(3.0, q.put, "x")
        k.run()
        assert got == [(3.0, "x")]

    def test_get_nowait(self):
        k = Kernel()
        q = VirtualPriorityQueue(k)
        assert q.get_nowait() is None
        q.put("a", priority=2.0)
        q.put("b", priority=1.0)
        assert q.get_nowait() == "b"
        assert len(q) == 1
