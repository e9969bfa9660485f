"""Clocks and timing utilities.

Two clock flavours coexist in the framework:

* :class:`WallClock` — thin wrapper over ``time.monotonic`` used by real
  transports and benchmarks.
* :class:`VirtualClock` — a manually advanced clock used by the ``netsim``
  fabric so that DVM-scale experiments (latency/bandwidth sweeps across
  hundreds of virtual hosts) are deterministic and instantaneous.

Both expose the same protocol — ``now()``, ``sleep()`` and ``every()``, the
one schedule for periodic work such as heartbeats, checkpoints and gossip
rounds — so any layer that needs time takes a ``Clock`` and never calls
``time`` directly.
"""

from __future__ import annotations

import heapq
import random
import threading
import time
from typing import Callable, Protocol

__all__ = ["Clock", "Every", "WallClock", "VirtualClock", "Stopwatch", "Deadline"]


class Clock(Protocol):
    """Minimal clock protocol shared by wall and virtual clocks."""

    def now(self) -> float:
        """Current time in seconds (monotonic)."""
        ...

    def sleep(self, seconds: float) -> None:
        """Block (or simulate blocking) for *seconds*."""
        ...

    def every(self, interval_s: float, fn: Callable[[], object], *, jitter: float = 0.0,
              rng: random.Random | None = None, name: str,
              start: float | None = None) -> "Every":
        """Call *fn* every *interval_s* ± *jitter* (a uniform draw from *rng*)
        from clock time *start* (default: one interval from now) until the
        handle is cancelled; a raise is counted by ``count_error(name, exc)``."""
        ...


class Every:
    """One :meth:`Clock.every` registration.

    Once :meth:`cancel` returns, ``fn`` never runs again and no run of it
    is under way on another thread.  The next run is due one interval after
    this one was due, or after it ended if that is later: the exact grid on
    a virtual clock, no catch-up burst after an overrun on a wall clock.
    """

    def __init__(self, clock: "_Schedule", interval_s, fn, jitter, rng, name):
        if interval_s <= 0 or not 0.0 <= jitter < 1.0:
            raise ValueError("every() needs interval_s > 0 and 0 <= jitter < 1")
        self.interval_s, self.fn, self.jitter, self.name = interval_s, fn, jitter, name
        self.rng = random.Random() if rng is None and jitter else rng
        self.active = True
        self.due = 0.0
        self.seq = 0  # registration order, kept across firings
        self._clock = clock

    def cancel(self) -> None:
        self.active = False
        self._clock._cancel(self)

    def step(self) -> float:
        """One interval, scaled by a uniform ±``jitter`` draw."""
        if not self.jitter:
            return self.interval_s
        return self.interval_s * (1.0 + self.rng.uniform(-self.jitter, self.jitter))

    def __call__(self) -> None:
        if not self.active:
            return
        try:
            self.fn()
        except Exception as exc:
            from repro.obs.metrics import registry  # obs sits above util

            # periodic work must never kill its schedule, but a pump that
            # fails on every firing has to show somewhere
            registry.count_error(self.name, exc)
        with self._clock._lock:  # atomic with cancel()
            if self.active:
                self.due = max(self.due, self._clock.now()) + self.step()
                self._clock._push(self.due, self, self.seq)


class _Schedule:
    """The heap of due callbacks a clock keeps, ordered by due time and then
    by registration (an :class:`Every` keeps its place across firings)."""

    def __init__(self, lock) -> None:
        self._lock = lock
        self._pending: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0

    def _push(self, when: float, callback: Callable[[], None], seq: int = 0) -> int:
        with self._lock:
            if not seq:
                self._seq += 1
                seq = self._seq
            heapq.heappush(self._pending, (when, seq, callback))
        return seq

    def every(self, interval_s, fn, *, jitter=0.0, rng=None, name, start=None) -> Every:
        timer = Every(self, interval_s, fn, jitter, rng, name)
        with self._lock:  # a timer thread cannot fire it before it has its seq
            timer.due = self.now() + timer.step() if start is None else start
            timer.seq = self._push(timer.due, timer)
        return timer

    def _cancel(self, timer: Every) -> None:
        """A cancelled registration's entry is skipped when it comes due."""


class WallClock(_Schedule):
    """Real monotonic clock.

    Its :meth:`every` registrations all run on one daemon timer thread,
    which the first one starts and the cancel of the last one joins.
    """

    def __init__(self) -> None:
        super().__init__(threading.Condition())
        self._thread: threading.Thread | None = None
        self._running: Every | None = None

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def _push(self, when: float, callback: Callable[[], None], seq: int = 0) -> int:
        with self._lock:
            seq = super()._push(when, callback, seq)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="clock-timer", daemon=True
                )
                self._thread.start()
            self._lock.notify_all()
        return seq

    def _run(self) -> None:
        me = threading.current_thread()
        with self._lock:
            while self._thread is me:
                if not self._pending:  # the last registration cancelled itself
                    self._thread = None
                    return
                wait = self._pending[0][0] - self.now()
                if wait > 0:
                    self._lock.wait(wait)
                    continue
                timer = self._running = heapq.heappop(self._pending)[2]
                self._lock.release()
                try:
                    timer()
                finally:
                    self._lock.acquire()
                    self._running = None
                    self._lock.notify_all()

    def _cancel(self, timer: Every) -> None:
        me = threading.current_thread()
        with self._lock:
            self._pending = [entry for entry in self._pending if entry[2] is not timer]
            heapq.heapify(self._pending)
            while self._running is timer and self._thread is not me:
                self._lock.wait()
            thread = None
            if not self._pending and self._running is None and self._thread is not me:
                thread, self._thread = self._thread, None
            self._lock.notify_all()
        if thread is not None:
            thread.join()

    def close(self) -> None:
        """Cancel every registration made so far (joining the timer thread)."""
        with self._lock:
            timers = [entry[2] for entry in self._pending] + [self._running]
        for timer in filter(None, timers):
            timer.cancel()


class VirtualClock(_Schedule):
    """A deterministic clock advanced explicitly or by sleeping.

    ``sleep`` advances the virtual time immediately; callbacks registered
    with :meth:`call_at` or :meth:`every` share one heap and fire inside
    :meth:`advance`, in due-time order and then in registration order.
    This is enough to model message latency and periodic pumps in
    ``netsim`` without real waiting.
    """

    def __init__(self, start: float = 0.0):
        super().__init__(threading.RLock())
        self._now = start

    def now(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self.advance(seconds)

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Schedule *callback* to run when the clock reaches *when*."""
        self._push(when, callback)

    def advance(self, seconds: float) -> None:
        """Move time forward, firing due callbacks in order."""
        with self._lock:
            target = self._now + seconds
        while True:
            with self._lock:
                if not self._pending or self._pending[0][0] > target:
                    self._now = max(self._now, target)
                    return
                when, _, callback = heapq.heappop(self._pending)
                self._now = max(self._now, when)
            callback()

    def run_until_idle(self) -> None:
        """Fire every scheduled callback, advancing time as needed (never
        returns while an :meth:`every` registration is live)."""
        while self._pending:
            self.advance(max(0.0, self._pending[0][0] - self.now()))


class Stopwatch:
    """Measure elapsed wall time; used by benchmarks and the profiler hooks."""

    def __init__(self, clock: Clock | None = None):
        self._clock = clock or WallClock()
        self._start = self._clock.now()

    def restart(self) -> None:
        self._start = self._clock.now()

    def elapsed(self) -> float:
        return self._clock.now() - self._start


class Deadline:
    """A point in time by which an operation must complete.

    ``remaining()`` never goes negative; ``expired`` flips exactly once.
    A ``timeout`` of ``None`` means "wait forever".
    """

    def __init__(self, timeout: float | None, clock: Clock | None = None):
        self._clock = clock or WallClock()
        self._expires = None if timeout is None else self._clock.now() + timeout

    @property
    def expired(self) -> bool:
        return self._expires is not None and self._clock.now() >= self._expires

    def remaining(self) -> float | None:
        """Seconds left, clamped at zero; ``None`` for an infinite deadline."""
        if self._expires is None:
            return None
        return max(0.0, self._expires - self._clock.now())
