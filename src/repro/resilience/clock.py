"""Pluggable time source for everything that waits.

Retry backoff, circuit-breaker recovery windows, and rate limiters all
measure and spend time through a ``Clock``.  Tests and fault scripts
inject a :class:`VirtualClock` so outage scenarios replay in
microseconds and assert on the exact sleeps taken; production code
uses :class:`WallClock`.

This is the **only** module in the repository allowed to call
``time.sleep`` — every other wait must go through an injected clock,
which is what keeps the fault-injection suite deterministic.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """Anything that can tell monotonic time and block for a while."""

    def now(self) -> float:
        """Current monotonic time in seconds."""
        ...

    def sleep(self, seconds: float) -> None:
        """Block for ``seconds`` (which may be zero)."""
        ...


class VirtualClock:
    """A manually advanced clock for deterministic tests.

    Every sleep is recorded in :attr:`sleeps` and advances the clock
    instantly, so backoff schedules can be asserted exactly.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        self.sleeps: list[float] = []
        self._lock = threading.Lock()

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot sleep {seconds}s")
        with self._lock:
            self.sleeps.append(seconds)
            self._now += seconds

    def wait_condition(
        self, cond: threading.Condition, timeout: float
    ) -> None:
        """Virtual timed wait: record the sleep and return instantly.

        Called with ``cond`` held.  Virtual time advances by the full
        timeout — there is no real blocking to interrupt — so waiters
        observe exactly the sleeps a wall clock would have taken.
        """
        self.sleep(timeout)


@dataclass
class WallClock:
    """The real clock."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def wait_condition(
        self, cond: threading.Condition, timeout: float
    ) -> None:
        """Timed wait on ``cond`` (held by the caller).

        Unlike :meth:`sleep`, this releases the condition's lock while
        blocked and wakes early on ``notify`` — the primitive a rate
        limiter needs so one sleeping waiter neither holds up refills
        nor burns CPU polling.
        """
        if timeout > 0:
            cond.wait(timeout)
