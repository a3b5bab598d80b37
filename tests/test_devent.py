"""Tests for the discrete-event kernel."""

import pytest

from repro.devent import Kernel
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

    def test_event_at_until_runs(self):
        k = Kernel()
        seen = []
        k.call_in(5.0, seen.append, "edge")
        k.call_in(5.5, seen.append, "late")
        assert k.run(until=5.0) == 5.0
        assert seen == ["edge"]

    def test_run_until_past_last_event_advances_clock(self):
        k = Kernel()
        k.call_in(2.0, lambda: None)
        assert k.run(until=9.0) == 9.0
        assert k.now == 9.0

    def test_run_returns_stop_time(self):
        k = Kernel()
        assert k.run() == 0.0
        k.call_in(4.0, lambda: None)
        assert k.run() == 4.0

    def test_cancelled_last_event_does_not_advance_clock(self):
        k = Kernel()
        k.call_in(1.0, lambda: None)
        k.call_in(6.0, lambda: None).cancel()
        assert k.run() == 1.0

    def test_zero_delay_runs_after_queued_peers(self):
        k = Kernel()
        order = []

        def first():
            order.append("first")
            k.call_in(0.0, order.append, "spawned")

        k.call_at(1.0, first)
        k.call_at(1.0, order.append, "peer")
        k.run()
        assert order == ["first", "peer", "spawned"]
        assert k.now == 1.0

    def test_callback_error_leaves_kernel_usable(self):
        k = Kernel()
        seen = []

        def boom():
            raise ValueError("boom")

        k.call_in(1.0, boom)
        k.call_in(2.0, seen.append, "after")
        with pytest.raises(ValueError):
            k.run()
        assert k.now == 1.0
        k.run()
        assert seen == ["after"]

    def test_events_scheduled_counts_every_call(self):
        k = Kernel()
        k.call_in(1.0, lambda: None)
        k.call_at(2.0, lambda: None).cancel()
        k.call_in(0.0, lambda: k.call_in(1.0, lambda: None))
        k.run()
        assert k.events_scheduled == 4

    def test_rejects_scheduling_before_until(self):
        k = Kernel()
        k.run(until=5.0)
        with pytest.raises(KernelError):
            k.call_at(3.0, lambda: None)
        k.call_at(5.0, lambda: None)

    def test_no_reentrant_run(self):
        k = Kernel()

        def bad():
            k.run()

        k.call_in(1.0, bad)
        with pytest.raises(KernelError):
            k.run()
