"""Client-side rate limiting for the commercial chat APIs.

Driving four commercial APIs over 1,200 images each is where the
paper's cost/latency concerns (§V) bite.  :class:`TokenBucket` is the
limiter every worker talking to one endpoint shares, on a pluggable
clock (tests inject a virtual clock, production uses wall time).  The
service stack puts one in front of its clients
(:class:`~repro.service.stack.RateLimitedChatClient`); retries are the
job of :class:`~repro.resilience.retry.RetryPolicy`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

from ..obs.metrics import get_metrics
from ..resilience.clock import Clock, VirtualClock

__all__ = ["TokenBucket"]


@dataclass
class TokenBucket:
    """Token-bucket rate limiter: ``rate`` requests/second, bursting
    to ``capacity``.

    One bucket is shared by every worker talking to an endpoint, so
    refill-and-take runs under a lock: without it two threads can both
    observe ``_tokens >= 1`` and double-spend the same token, silently
    exceeding the provider's rate limit.

    Waiting is **condition-based**, not poll-based: a thread that finds
    the bucket empty computes its deficit and parks on a condition that
    releases the lock while it blocks (so sleepers never hold up
    refills), waking exactly when its token should have accrued.  Each
    concurrent waiter's deficit also counts the waiters already parked
    ahead of it, so N starved threads stagger their wakeups instead of
    stampeding the lock every refill interval — the old sleep-poll loop
    woke all N per token and burned CPU re-checking.  With no
    concurrent waiters the deficit reduces to the classic
    ``(1 - tokens) / rate``, so serial wait times (and the exact-sleep
    assertions the virtual-clock tests make) are unchanged.

    Every second spent throttled is recorded in the cumulative
    ``llm.throttle_wait_seconds`` metric (alongside the existing
    ``ratelimit.waits`` / ``ratelimit.waited_s`` pair) — the signal the
    async engine's AIMD controller reads to narrow its window.
    """

    rate: float
    capacity: float
    clock: Clock = field(default_factory=VirtualClock)

    #: Tolerance for float error in "one full token accrued".
    _EPSILON = 1e-12

    def __post_init__(self) -> None:
        # A NaN rate compares false against everything and would wave
        # every request through; a bucket that holds less than one
        # token never refills to one, so acquire() would wait forever.
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"rate must be finite and positive: {self.rate}")
        if not (math.isfinite(self.capacity) and self.capacity >= 1):
            raise ValueError(
                f"capacity must be finite and at least 1: {self.capacity}"
            )
        self._tokens = float(self.capacity)
        self._last = self.clock.now()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._waiting = 0

    def _refill(self) -> None:
        now = self.clock.now()
        self._tokens = min(
            self.capacity, self._tokens + (now - self._last) * self.rate
        )
        self._last = now

    def _take_or_deficit(self) -> float | None:
        """Under the lock: take a token (None) or return the wait needed."""
        self._refill()
        if self._tokens >= 1.0 - self._EPSILON:
            self._tokens = max(0.0, self._tokens - 1.0)
            return None
        return (1.0 + self._waiting - self._tokens) / self.rate

    def _record_wait(self, waited: float) -> None:
        if waited > 0:
            metrics = get_metrics()
            metrics.inc("ratelimit.waits")
            metrics.inc("ratelimit.waited_s", waited)
            metrics.inc("llm.throttle_wait_seconds", waited)

    def acquire(self) -> float:
        """Take one token, waiting if necessary; returns wait time."""
        waited = 0.0
        while True:
            deficit: float | None = None
            with self._cond:
                deficit = self._take_or_deficit()
                if deficit is None:
                    break
                waiter = getattr(self.clock, "wait_condition", None)
                if waiter is not None:
                    self._waiting += 1
                    try:
                        waiter(self._cond, deficit)
                    finally:
                        self._waiting -= 1
                    waited += deficit
                    continue
            # Clock without a timed condition wait: plain sleep outside
            # the lock, then re-contend.
            self.clock.sleep(deficit)
            waited += deficit
        self._record_wait(waited)
        return waited

    def refund(self, tokens: int) -> None:
        """Give back tokens taken for requests that were never sent.

        The bucket never holds more than ``capacity``.
        """
        if tokens <= 0:
            return
        with self._lock:
            self._refill()
            self._tokens = min(self.capacity, self._tokens + tokens)
