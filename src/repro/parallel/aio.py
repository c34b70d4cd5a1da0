"""Asyncio building blocks for the pipelined survey engine.

The survey hot path is latency-dominated: every location pays one
imagery round trip and at least one LLM round trip (a single model's
one batched window, or one per ensemble or cascade member call).  The
engine sends a location the same way at every window; the window only
decides how many locations overlap, and how many such round trips
wait at once.  This module holds the generic pieces the survey engine
(every entry point of :class:`repro.core.pipeline.NeighborhoodDecoder`)
is built from — deliberately free of any ``repro.core`` import,
mirroring :mod:`repro.parallel.executor`:

* :func:`imap_async` — the event-loop twin of
  :meth:`~repro.parallel.executor.ParallelExecutor.imap`: ordered
  results, bounded in-flight window, errors captured into
  :class:`~repro.parallel.executor.TaskOutcome`.
* :class:`ThreadBridge` — a *capped* thread pool exposed as an
  awaitable, so synchronous clients (street-view, chat) run off-loop
  without changing their APIs, in a copy of the caller's context so
  spans nest across the hop.  ``asyncio.to_thread`` would share the
  loop's default executor, whose size floats with the host's CPU
  count; a bridge sized to the pipeline's own concurrency keeps the
  thread budget explicit.
* :class:`AIMDController` — additive-increase/multiplicative-decrease
  window control for the in-flight LLM stage, fed by observed
  throttle signals (rate-limited retries, token-bucket waits).

See DESIGN.md §8 for the stage layout and the ordering discipline
that keeps reports byte-identical at every window.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
from collections import deque
from collections.abc import AsyncIterator, Awaitable, Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from ..obs.metrics import get_metrics
from .executor import TaskOutcome

__all__ = ["AIMDController", "ThreadBridge", "imap_async"]


async def imap_async(
    fn: Callable[[Any], Awaitable[Any]],
    items: Iterable[Any],
    *,
    max_inflight: int = 8,
) -> AsyncIterator[TaskOutcome]:
    """Yield one :class:`TaskOutcome` per item, in submission order.

    The asyncio twin of ``ParallelExecutor.imap``: up to
    ``max_inflight`` coroutines run ahead of the consumer, the stream
    is drawn lazily (an unsubmitted item costs no memory), and results
    are consumed strictly in submission order regardless of completion
    order — the property that keeps a pipelined survey's merge loop
    byte-identical to the serial one.  Exceptions are captured into
    outcomes, never raised across the generator; an abandoned
    iteration cancels whatever is still in flight.
    """
    if max_inflight < 1:
        raise ValueError(f"max_inflight must be positive: {max_inflight}")

    async def run_one(index: int, item: Any) -> TaskOutcome:
        try:
            return TaskOutcome(index=index, value=await fn(item))
        except asyncio.CancelledError:
            raise
        except Exception as err:  # noqa: BLE001 - re-raised by result()
            return TaskOutcome(index=index, error=err)

    registry = get_metrics()
    loop = asyncio.get_running_loop()
    pending: deque[asyncio.Task] = deque()
    iterator = enumerate(items)
    exhausted = False
    try:
        while True:
            while not exhausted and len(pending) < max_inflight:
                try:
                    index, item = next(iterator)
                except StopIteration:
                    exhausted = True
                    break
                pending.append(loop.create_task(run_one(index, item)))
            if not pending:
                break
            outcome = await pending.popleft()
            if outcome.error is not None:
                registry.inc("parallel.tasks.errors")
            else:
                registry.inc("parallel.tasks.completed")
            yield outcome
    finally:
        for task in pending:
            task.cancel()
        for task in pending:
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task


class ThreadBridge:
    """A capped thread pool exposed as ``await bridge.run(fn, ...)``.

    Sync clients (street-view fetch, chat completions) block their
    thread for the duration of a call; the bridge gives the event loop
    a dedicated, *bounded* pool to park those calls on.  The cap is
    the contract: at most ``max_threads`` sync calls run concurrently,
    however wide the pipeline above fans out, so a host never sees
    more simultaneous upstream connections than the bridge allows.
    """

    def __init__(self, max_threads: int) -> None:
        if max_threads < 1:
            raise ValueError(f"max_threads must be positive: {max_threads}")
        self.max_threads = max_threads
        self._closed = False
        self._pool = ThreadPoolExecutor(
            max_workers=max_threads, thread_name_prefix="repro-aio"
        )

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (a closed bridge rejects work).

        Long-lived hosts that lend one bridge to many pipelines (the
        service daemon) use this to assert the pool is still open
        before dispatching a job onto it.
        """
        return self._closed

    async def run(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` on the pool in a copy of the caller's context.

        The copy carries context variables across the thread hop, as
        ``asyncio.to_thread`` does, so a span opened by ``fn`` nests
        under the span the awaiting coroutine has open.
        """
        loop = asyncio.get_running_loop()
        context = contextvars.copy_context()
        return await loop.run_in_executor(
            self._pool, functools.partial(context.run, fn, *args)
        )

    def close(self) -> None:
        self._closed = True
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ThreadBridge":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class AIMDController:
    """Adaptive in-flight window: additive increase, multiplicative
    decrease.

    Gates the classify stage of the async pipeline.  The window starts
    at ``initial`` slots and adapts to observed backpressure the way
    TCP congestion control does: every ``increase_window`` consecutive
    un-throttled completions widen the window by ``increase_step``
    (probing for headroom, up to ``max_limit``); any observed throttle
    signal — a rate-limited retry, or cumulative token-bucket wait —
    multiplies it by ``decrease_factor`` (backing off fast, down to
    ``min_limit``).  The caller reports signals via
    :meth:`on_success` / :meth:`on_throttle` from the merge loop;
    slots are taken with ``async with controller.slot():``.

    Single-loop discipline: every method is called from the event
    loop, so there is no lock — waiters park on futures and are woken
    in FIFO order when capacity frees up.  Gauges
    ``pipeline.inflight`` and ``pipeline.concurrency_limit`` track the
    live window for dashboards; :meth:`stats` summarizes the run.
    """

    def __init__(
        self,
        initial: int = 4,
        *,
        min_limit: int = 1,
        max_limit: int = 64,
        increase_step: float = 1.0,
        decrease_factor: float = 0.5,
        increase_window: int = 8,
    ) -> None:
        if not 1 <= min_limit <= initial <= max_limit:
            raise ValueError(
                "need 1 <= min_limit <= initial <= max_limit: "
                f"{min_limit}/{initial}/{max_limit}"
            )
        if not 0.0 < decrease_factor < 1.0:
            raise ValueError(
                f"decrease_factor must be in (0, 1): {decrease_factor}"
            )
        if increase_step <= 0 or increase_window < 1:
            raise ValueError("increase_step/window must be positive")
        self.initial = initial
        self.min_limit = min_limit
        self.max_limit = max_limit
        self.increase_step = increase_step
        self.decrease_factor = decrease_factor
        self.increase_window = increase_window
        self._limit = float(initial)
        self._inflight = 0
        self._successes = 0
        self._waiters: deque[asyncio.Future] = deque()
        self.peak_inflight = 0
        self.throttle_events = 0
        self.increases = 0
        self.decreases = 0
        get_metrics().set_gauge("pipeline.concurrency_limit", self.limit)

    @property
    def limit(self) -> int:
        """The current window, floored to at least ``min_limit`` slots."""
        return max(self.min_limit, int(self._limit))

    @property
    def inflight(self) -> int:
        return self._inflight

    # -- slot accounting ----------------------------------------------

    async def acquire(self) -> None:
        while self._inflight >= self.limit:
            waiter = asyncio.get_running_loop().create_future()
            self._waiters.append(waiter)
            await waiter
        self._inflight += 1
        self.peak_inflight = max(self.peak_inflight, self._inflight)
        get_metrics().set_gauge("pipeline.inflight", self._inflight)

    def release(self) -> None:
        self._inflight -= 1
        get_metrics().set_gauge("pipeline.inflight", self._inflight)
        self._wake()

    @contextlib.asynccontextmanager
    async def slot(self) -> AsyncIterator[None]:
        await self.acquire()
        try:
            yield
        finally:
            self.release()

    def _wake(self) -> None:
        # Woken waiters re-check capacity before taking a slot, so
        # waking at most the available headroom is an optimization,
        # not a correctness requirement.
        headroom = self.limit - self._inflight
        while self._waiters and headroom > 0:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                headroom -= 1

    # -- congestion signals -------------------------------------------

    def on_success(self) -> None:
        """One completion merged without any observed throttle signal."""
        self._successes += 1
        if self._successes < self.increase_window:
            return
        self._successes = 0
        if self._limit < self.max_limit:
            self._limit = min(
                float(self.max_limit), self._limit + self.increase_step
            )
            self.increases += 1
            get_metrics().set_gauge("pipeline.concurrency_limit", self.limit)
            self._wake()

    def on_throttle(self, events: int = 1) -> None:
        """Observed backpressure: shrink the window multiplicatively."""
        self.throttle_events += events
        self._successes = 0
        if self.limit > self.min_limit:
            self._limit = max(
                float(self.min_limit), self._limit * self.decrease_factor
            )
            self.decreases += 1
            get_metrics().set_gauge("pipeline.concurrency_limit", self.limit)

    def stats(self) -> dict[str, int]:
        """Provenance summary for reports and drill artifacts."""
        return {
            "initial_limit": self.initial,
            "final_limit": self.limit,
            "peak_inflight": self.peak_inflight,
            "throttle_events": self.throttle_events,
            "increases": self.increases,
            "decreases": self.decreases,
        }
