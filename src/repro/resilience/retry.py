"""The one retry loop: exponential backoff, full jitter, Retry-After.

Every retried call in the survey goes through :class:`RetryPolicy`:
``LLMIndicatorClassifier`` requests and street-view fetches, including
the seats of a batched dispatch that failed (``first=``).  Callers
describe *what* is retryable and the policy decides *whether* and
*for how long* to wait, sleeping only through an injected
:class:`~repro.resilience.clock.Clock` and never after the final
attempt.

Backoff follows the AWS "full jitter" scheme — each delay is drawn
uniformly from ``[0, min(max_delay, base * 2**(attempt-1))]`` — with a
floor at the server-provided ``Retry-After`` hint when the error
carries one (``retry_after_s``, as :class:`~repro.llm.errors.RateLimitError`
does).
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..obs.metrics import get_metrics
from ..obs.scope import tally
from .breaker import CircuitBreaker, CircuitOpenError
from .clock import Clock, WallClock


@dataclass
class RetryOutcome:
    """What one retried operation ultimately did.

    ``execute`` never raises for errors it was told about: retryable
    errors are retried until the budget runs out and *give-up* errors
    are captured immediately; both land in :attr:`error`.  Anything
    else (a programming error, an unexpected exception type)
    propagates to the caller.
    """

    value: Any = None
    error: Exception | None = None
    attempts: int = 0
    retries: int = 0
    slept_s: float = 0.0
    breaker_blocked: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    def result(self) -> Any:
        """The value, or raise the captured error."""
        if self.error is not None:
            raise self.error
        return self.value


@dataclass
class RetryStats:
    """Aggregate retry accounting across many operations.

    Surfaced on :class:`~repro.core.pipeline.SurveyReport` so a survey
    reports exactly how much fault handling it performed.

    Instances are shared across :class:`~repro.parallel.ParallelExecutor`
    workers, so the read-modify-write updates are guarded by a lock.
    """

    operations: int = 0
    attempts: int = 0
    retries: int = 0
    failures: int = 0
    slept_s: float = 0.0
    breaker_blocks: int = 0
    _lock: threading.Lock = field(
        init=False, repr=False, compare=False, default_factory=threading.Lock
    )

    def absorb(self, outcome: RetryOutcome) -> None:
        with self._lock:
            self.operations += 1
            self.attempts += outcome.attempts
            self.retries += outcome.retries
            self.slept_s += outcome.slept_s
            if outcome.breaker_blocked:
                self.breaker_blocks += 1
            if not outcome.ok:
                self.failures += 1

    def merge(self, other: "RetryStats") -> None:
        with self._lock:
            self.operations += other.operations
            self.attempts += other.attempts
            self.retries += other.retries
            self.failures += other.failures
            self.slept_s += other.slept_s
            self.breaker_blocks += other.breaker_blocks

    def as_dict(self) -> dict[str, float]:
        return {
            "operations": self.operations,
            "attempts": self.attempts,
            "retries": self.retries,
            "failures": self.failures,
            "slept_s": round(self.slept_s, 6),
            "breaker_blocks": self.breaker_blocks,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RetryStats":
        """Rebuild stats persisted via :meth:`as_dict` (checkpoint JSON)."""
        return cls(
            operations=int(data.get("operations", 0)),
            attempts=int(data.get("attempts", 0)),
            retries=int(data.get("retries", 0)),
            failures=int(data.get("failures", 0)),
            slept_s=float(data.get("slept_s", 0.0)),
            breaker_blocks=int(data.get("breaker_blocks", 0)),
        )


@dataclass
class RetryPolicy:
    """Bounded retry with exponential backoff and full jitter.

    Parameters
    ----------
    max_attempts:
        Total attempts including the first (≥ 1).
    base_delay_s:
        Backoff scale; the attempt-``k`` delay cap is
        ``base_delay_s * 2**(k-1)``.  Zero disables waiting entirely
        (the classifier's test/bench default).
    max_delay_s:
        Ceiling on any single delay.
    jitter:
        Draw each delay uniformly from ``[0, cap]`` (full jitter).
        With ``False`` the delay is the cap itself — deterministic,
        but synchronizes concurrent retriers.
    seed:
        Seed for the jitter RNG, so fault scripts replay identically.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.5
    max_delay_s: float = 30.0
    jitter: bool = True
    seed: int | None = 0
    _rng: np.random.Generator = field(init=False, repr=False, compare=False)
    _rng_lock: threading.Lock = field(
        init=False, repr=False, compare=False, default_factory=threading.Lock
    )

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------

    def backoff_cap(self, attempt: int) -> float:
        """Upper bound of the delay after attempt ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be positive: {attempt}")
        return min(self.max_delay_s, self.base_delay_s * 2 ** (attempt - 1))

    def delay_for(self, attempt: int, error: Exception | None = None) -> float:
        """Jittered delay after a failed ``attempt``, honoring Retry-After.

        A server-provided ``retry_after_s`` on the error acts as a
        floor: we never knock on the door earlier than asked.
        """
        cap = self.backoff_cap(attempt)
        if self.jitter:
            # The jitter generator is shared by every worker running
            # under this policy; numpy Generators are not thread-safe.
            with self._rng_lock:
                delay = float(self._rng.uniform(0.0, cap))
        else:
            delay = cap
        retry_after = getattr(error, "retry_after_s", None)
        if retry_after is not None:
            delay = max(delay, float(retry_after))
        return delay

    # ------------------------------------------------------------------

    def execute(
        self,
        fn: Callable[[], Any],
        *,
        retryable: tuple[type[Exception], ...],
        giveup: tuple[type[Exception], ...] = (),
        clock: Clock | None = None,
        breaker: CircuitBreaker | None = None,
        stats: RetryStats | None = None,
        first: Callable[[], Any] | None = None,
    ) -> RetryOutcome:
        """Run ``fn`` under this policy; never raises captured errors.

        ``retryable`` errors are retried with backoff until the
        attempt budget is spent (the last one is captured — and, per
        the long-standing classifier bug, **no** backoff is slept
        after the final attempt).  ``giveup`` errors are captured
        without retry.  ``retryable`` wins when an error matches both,
        so e.g. ``giveup=(LLMError,)`` still retries rate limits.

        An open ``breaker`` short-circuits before the first attempt
        with a captured :class:`CircuitOpenError`; outcomes feed the
        breaker so sustained failure opens it.

        ``first`` stands in for ``fn`` at attempt 1 when the caller
        already sent it: the ``result`` of a finished seat of a batched
        dispatch, returning its value or raising its error.  That
        request passed the caller's breaker check before it went out,
        and its answer is already paid for, so it is not gated again;
        the caller fed its outcome to the breaker when the dispatch
        returned, so reading it feeds the breaker nothing.  Every later
        attempt calls ``fn``, gated and fed as usual.
        """
        clock = clock or WallClock()
        outcome = RetryOutcome()
        for attempt in range(1, self.max_attempts + 1):
            call, first = first, None
            # A caller-sent seat was booked with the breaker at dispatch.
            fed = breaker if call is None else None
            if call is None:
                if breaker is not None and not breaker.allow():
                    outcome.error = CircuitOpenError(
                        breaker.name, breaker.remaining_open_s()
                    )
                    outcome.breaker_blocked = True
                    break
                call = fn
            outcome.attempts = attempt
            try:
                outcome.value = call()
                outcome.error = None
                if fed is not None:
                    fed.record_success()
                break
            except retryable as err:
                outcome.error = err
                if getattr(err, "retry_after_s", None) is not None:
                    # Duck-typed rate limit: only 429-style errors
                    # carry a server Retry-After hint.  Counting them
                    # here (the one funnel every retried call passes
                    # through) gives the async engine's AIMD
                    # controller its backpressure signal without this
                    # layer importing ``repro.llm``.
                    get_metrics().inc("retry.rate_limited")
                if fed is not None:
                    fed.record_failure()
                if attempt < self.max_attempts:
                    delay = self.delay_for(attempt, err)
                    outcome.retries += 1
                    outcome.slept_s += delay
                    clock.sleep(delay)
            except giveup as err:
                outcome.error = err
                if fed is not None:
                    fed.record_failure()
                break
        _book(outcome)
        if stats is not None:
            stats.absorb(outcome)
        return outcome


def _book(outcome: RetryOutcome) -> None:
    """Count one finished operation in the metrics and the active tally.

    :meth:`RetryPolicy.execute` is the single funnel every retried
    operation passes through exactly once, so it is the tap for both
    books: the metrics registry stays reconcilable with any report
    built from per-location tallies (see :mod:`repro.obs.audit`), and
    a survey location's tally holds exactly the fault handling its
    own fetches and classifications performed, however many other
    locations share the classifier.
    """
    counts = [
        ("retry.operations", 1),
        ("retry.attempts", outcome.attempts),
        ("retry.retries", outcome.retries),
        ("retry.slept_s", outcome.slept_s),
    ]
    if outcome.breaker_blocked:
        counts.append(("retry.breaker_blocks", 1))
    if not outcome.ok:
        counts.append(("retry.failures", 1))
    metrics = get_metrics()
    for name, value in counts:
        metrics.inc(name, value)
        tally(name, value)
