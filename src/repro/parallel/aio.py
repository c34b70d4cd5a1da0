"""Asyncio building blocks for the pipelined survey engine.

The survey hot path is latency-dominated: every location pays a GSV
fetch round-trip plus several LLM round-trips.  This module holds the
generic pieces the survey engine (every entry point of
:class:`repro.core.pipeline.NeighborhoodDecoder`) is built from —
deliberately free of any ``repro.core`` import, mirroring
:mod:`repro.parallel.executor`:

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
* :class:`MicroBatcher` — sends a survey location's classify requests
  as one batched dispatch
  (:meth:`~repro.llm.base.ChatClient.complete_batch`), dovetailing
  with the cache's single-flight coalescing; every other request goes
  straight to its client.

See DESIGN.md §8 for the stage layout and the ordering discipline
that keeps reports byte-identical at every window.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
import threading
from collections import deque
from collections.abc import AsyncIterator, Awaitable, Callable, Iterable, Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any

from ..obs.metrics import get_metrics
from .executor import TaskOutcome

__all__ = [
    "AIMDController",
    "MicroBatcher",
    "ThreadBridge",
    "active_batcher",
    "imap_async",
]


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


class MicroBatcher:
    """Send one survey location's classify requests as one dispatch.

    :meth:`submit_many` hands a caller's related requests (a location's
    images) to :meth:`~repro.llm.base.ChatClient.complete_batch` at
    once, however many; they already amortize the round-trip, so they
    never wait for companions, and one caller's window never mixes
    with another's.  Every other request (a lone image, a retry, an
    ensemble or cascade member call) goes straight to its client's
    ``complete``.

    Failure is per seat: when the client raises a
    :class:`~repro.llm.base.BatchError`, each seat gets its own
    response or error, so the seats a failed window did serve keep
    their answers (they were billed) and only the failed and unsent
    ones see an error to retry.  Any other exception fails every
    seat, exactly as if each had made the call itself.  With the
    cache's single-flight table underneath, duplicate fingerprints
    inside one window are still billed once.

    :meth:`install` makes the batcher active in the current context
    for a ``with`` block — the async engine's integration point; the
    classifier reaches it through :func:`active_batcher`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.batches = 0
        self.batched_requests = 0
        self.max_batch_seen = 0

    def submit_many(self, client: Any, requests: Sequence[Any]) -> list[Future]:
        """Dispatch ``requests`` now as one window of their own.

        Returns one finished :class:`~concurrent.futures.Future` per
        request, in order: ``result()`` gives that request's response
        or raises its error.
        """
        entries = [(request, Future()) for request in requests]
        if entries:
            self._dispatch(client, entries)
        return [seat for _, seat in entries]

    def _dispatch(self, client: Any, entries: list[tuple[Any, Future]]) -> None:
        """Send one window and settle every seat in it."""
        try:
            outcomes = client.complete_batch([request for request, _ in entries])
            if len(outcomes) != len(entries):  # pragma: no cover
                raise RuntimeError(
                    f"client answered {len(outcomes)} of "
                    f"{len(entries)} batched requests"
                )
        except Exception as err:  # noqa: BLE001 - re-raised per seat
            # A BatchError names each seat's fate; duck-typed, so this
            # layer stays free of repro.llm.
            outcomes = getattr(err, "outcomes", None)
            if outcomes is None or len(outcomes) != len(entries):
                outcomes = [err] * len(entries)
        served = sum(not isinstance(o, Exception) for o in outcomes)
        if served:
            with self._lock:
                self.batches += 1
                self.batched_requests += served
                self.max_batch_seen = max(self.max_batch_seen, len(entries))
            metrics = get_metrics()
            metrics.inc("llm.microbatch.batches")
            metrics.inc("llm.microbatch.requests", served)
        for (_, seat), outcome in zip(entries, outcomes):
            if isinstance(outcome, Exception):
                seat.set_exception(outcome)
            else:
                seat.set_result(outcome)

    @contextlib.contextmanager
    def install(self):
        """Route the current context's classify calls through this batcher.

        A classifier sends a location's images through the batcher
        installed in the caller's context (bridge threads run in a
        copy of it).  No client is touched: a concurrent survey with
        its own batcher, or none, is unaffected, and a nested install
        restores the outer batcher on exit, even on error.
        """
        token = _active_batcher.set(self)
        try:
            yield self
        finally:
            _active_batcher.reset(token)

    def stats(self) -> dict[str, int]:
        return {
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "max_batch_size": self.max_batch_seen,
        }


#: The batcher :meth:`MicroBatcher.install` made active in this context.
_active_batcher: contextvars.ContextVar[MicroBatcher | None] = (
    contextvars.ContextVar("repro_parallel_active_batcher", default=None)
)


def active_batcher() -> MicroBatcher | None:
    """The batcher installed in the caller's context, if any."""
    return _active_batcher.get()

