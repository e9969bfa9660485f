"""Wall and virtual clocks, their ``every`` schedules, stopwatch, deadlines."""

import random
import threading
import time

import pytest

from repro.obs import metrics
from repro.util.clock import Deadline, Stopwatch, VirtualClock, WallClock
from repro.util.concurrent import wait_for


class TestWallClock:
    def test_monotonic(self):
        clock = WallClock()
        a = clock.now()
        b = clock.now()
        assert b >= a

    def test_sleep_zero_and_negative_are_noops(self):
        clock = WallClock()
        clock.sleep(0)
        clock.sleep(-1)  # must not raise


class TestVirtualClock:
    def test_starts_at_given_time(self):
        assert VirtualClock(5.0).now() == 5.0

    def test_sleep_advances(self):
        clock = VirtualClock()
        clock.sleep(2.5)
        assert clock.now() == 2.5

    def test_negative_sleep_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().sleep(-0.1)

    def test_callbacks_fire_in_timestamp_order(self):
        clock = VirtualClock()
        fired = []
        clock.call_at(2.0, lambda: fired.append("b"))
        clock.call_at(1.0, lambda: fired.append("a"))
        clock.call_at(3.0, lambda: fired.append("c"))
        clock.advance(2.5)
        assert fired == ["a", "b"]
        clock.advance(1.0)
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_registration_order(self):
        clock = VirtualClock()
        fired = []
        clock.call_at(1.0, lambda: fired.append(1))
        clock.call_at(1.0, lambda: fired.append(2))
        clock.advance(1.0)
        assert fired == [1, 2]

    def test_run_until_idle(self):
        clock = VirtualClock()
        fired = []
        clock.call_at(10.0, lambda: fired.append("x"))
        clock.run_until_idle()
        assert fired == ["x"]
        assert clock.now() == 10.0

    def test_callback_scheduling_callback(self):
        clock = VirtualClock()
        fired = []

        def first():
            fired.append("first")
            clock.call_at(2.0, lambda: fired.append("second"))

        clock.call_at(1.0, first)
        clock.advance(5.0)
        assert fired == ["first", "second"]


class TestVirtualEvery:
    def test_fires_on_the_interval_until_cancelled(self):
        clock = VirtualClock()
        fired = []
        timer = clock.every(0.5, lambda: fired.append(clock.now()), name="test.every")
        clock.advance(1.7)
        timer.cancel()
        clock.advance(5.0)
        assert fired == [0.5, 1.0, 1.5]

    def test_start_sets_the_first_firing(self):
        clock = VirtualClock()
        fired = []
        clock.every(1.0, lambda: fired.append(clock.now()), name="test.every", start=0.0)
        clock.advance(0.0)
        clock.advance(2.0)
        assert fired == [0.0, 1.0, 2.0]

    def test_due_time_order_then_registration_order(self):
        clock = VirtualClock()
        fired = []
        clock.every(1.0, lambda: fired.append(("a", clock.now())), name="test.every")
        clock.every(0.5, lambda: fired.append(("b", clock.now())), name="test.every")
        clock.call_at(1.0, lambda: fired.append(("call_at", clock.now())))
        clock.advance(2.0)
        # b re-registers itself after every firing, yet at t=1.0 and t=2.0
        # it still comes after a, which was registered first
        assert fired == [
            ("b", 0.5), ("a", 1.0), ("b", 1.0), ("call_at", 1.0),
            ("b", 1.5), ("a", 2.0), ("b", 2.0),
        ]

    def test_jitter_stays_in_band_and_repeats_for_a_seed(self):
        def schedule(seed: int) -> list[float]:
            clock = VirtualClock()
            fired = []
            clock.every(
                1.0, lambda: fired.append(clock.now()),
                jitter=0.2, rng=random.Random(seed), name="test.every",
            )
            clock.advance(50.0)
            return fired

        fired = schedule(7)
        gaps = [b - a for a, b in zip([0.0] + fired, fired)]
        assert all(0.8 - 1e-9 <= gap <= 1.2 + 1e-9 for gap in gaps)
        assert len(set(gaps)) > 10
        assert schedule(7) == fired
        assert schedule(8) != fired

    def test_a_raising_fn_is_counted_and_keeps_its_schedule(self):
        clock = VirtualClock()
        total = metrics.registry.counter("test.virtual_every.errors")
        typed = metrics.registry.counter("test.virtual_every.errors.KeyError")
        before = total.value(), typed.value()
        fired = []

        def fn():
            fired.append(clock.now())
            raise KeyError("boom")

        clock.every(1.0, fn, name="test.virtual_every.errors")
        clock.advance(3.0)
        assert fired == [1.0, 2.0, 3.0]
        assert (total.value(), typed.value()) == (before[0] + 3, before[1] + 3)

    def test_cancel_from_inside_fn(self):
        clock = VirtualClock()
        fired = []

        def fn():
            fired.append(clock.now())
            timer.cancel()

        timer = clock.every(1.0, fn, name="test.every")
        clock.advance(5.0)
        assert fired == [1.0]

    def test_invalid_schedules_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.every(0.0, lambda: None, name="test.every")
        with pytest.raises(ValueError):
            clock.every(1.0, lambda: None, jitter=1.0, name="test.every")


class TestWallEvery:
    def test_a_raising_fn_is_counted_and_keeps_firing(self):
        clock = WallClock()
        total = metrics.registry.counter("test.wall_every.errors")
        typed = metrics.registry.counter("test.wall_every.errors.KeyError")
        before = total.value(), typed.value()
        calls = []

        def fn():
            calls.append(1)
            raise KeyError("boom")

        clock.every(0.002, fn, name="test.wall_every.errors")
        try:
            wait_for(lambda: len(calls) >= 3)  # it kept firing after a raise
        finally:
            clock.close()
        assert (total.value(), typed.value()) == (
            before[0] + len(calls), before[1] + len(calls)
        )

    def test_cancel_from_inside_fn(self):
        before = set(threading.enumerate())
        clock = WallClock()
        calls = []

        def fn():
            calls.append(1)
            timer.cancel()

        timer = clock.every(0.002, fn, name="test.every")
        # with its last registration gone the timer thread ends by itself
        wait_for(lambda: calls and not set(threading.enumerate()) - before)
        time.sleep(0.02)
        assert calls == [1]

    def test_once_cancel_returns_fn_never_runs_again(self):
        before = set(threading.enumerate())
        clock = WallClock()
        running = threading.Event()
        calls = []

        def fn():
            running.set()
            time.sleep(0.01)  # cancel() lands while this run is under way
            calls.append(1)

        timer = clock.every(0.001, fn, name="test.every")
        assert running.wait(5.0)
        timer.cancel()
        seen = len(calls)
        assert seen >= 1  # cancel waited for the run under way to finish
        # the last registration's cancel joined the timer thread
        assert set(threading.enumerate()) - before == set()
        time.sleep(0.05)
        assert len(calls) == seen

    def test_registrations_share_one_thread_and_close_leaves_none(self):
        before = set(threading.enumerate())
        clock = WallClock()
        counts = [0, 0, 0]

        def bump(i):
            counts[i] += 1

        for i in range(3):
            clock.every(0.002, lambda i=i: bump(i), name="test.every")
        wait_for(lambda: all(counts))
        assert len(set(threading.enumerate()) - before) == 1
        clock.close()
        assert set(threading.enumerate()) - before == set()
        frozen = list(counts)
        time.sleep(0.02)
        assert counts == frozen


class TestStopwatch:
    def test_elapsed_with_virtual_clock(self):
        clock = VirtualClock()
        watch = Stopwatch(clock)
        clock.advance(3.0)
        assert watch.elapsed() == pytest.approx(3.0)
        watch.restart()
        assert watch.elapsed() == 0.0


class TestDeadline:
    def test_infinite_deadline(self):
        deadline = Deadline(None)
        assert not deadline.expired
        assert deadline.remaining() is None

    def test_expiry_with_virtual_clock(self):
        clock = VirtualClock()
        deadline = Deadline(5.0, clock)
        assert not deadline.expired
        assert deadline.remaining() == pytest.approx(5.0)
        clock.advance(5.0)
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_remaining_never_negative(self):
        clock = VirtualClock()
        deadline = Deadline(1.0, clock)
        clock.advance(10.0)
        assert deadline.remaining() == 0.0
