"""The one thread fan-out loop: ordered, bounded task execution.

The detector's rendering, feature extraction and batched inference,
and concurrent experiments, fan out through :class:`ParallelExecutor`
(the survey engine pipelines locations on an event loop instead; see
:mod:`repro.parallel.aio`).  It has two
strategies, chosen from the worker count alone:

* **one worker** runs each task inline as the consumer advances (the
  exact serial semantics);
* **more workers** run tasks on a ``concurrent.futures`` thread pool,
  each task in a copy of the submitting context (so a
  :func:`~repro.obs.metrics.use_metrics` scope reaches its workers).
  That serves both regimes the paper's workload has: threads overlap
  the survey path's simulated network waits, and the detector path's
  numpy kernels release the GIL, so CPU-bound chunks scale across
  cores on threads as well (DESIGN.md §9).

Whatever the strategy, the executor gives the same concurrency shape:

* **ordered collection** — results stream back in *submission* order
  regardless of completion order, which is what keeps parallel runs
  byte-identical to serial ones: downstream merging never observes a
  reordering.
* **bounded in-flight work** — at most ``max_in_flight`` tasks are
  submitted ahead of the consumer, so a million-location survey never
  materializes a million futures.
* **clean early exit** — a consumer that stops early cancels the
  queued futures and the pool joins its threads, so no worker
  outlives its generator.

Workers never see raised exceptions swallowed: a task that raises is
captured into its :class:`TaskOutcome` and re-raised by
:meth:`TaskOutcome.result`, mirroring ``RetryOutcome``.
"""

from __future__ import annotations

import contextvars
import os
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from typing import Any

from ..obs.metrics import get_metrics

__all__ = [
    "ParallelExecutor",
    "TaskOutcome",
    "effective_cpu_count",
    "resolve_workers",
]


@dataclass
class TaskOutcome:
    """What one submitted task did, in submission order."""

    index: int
    value: Any = None
    error: Exception | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def result(self) -> Any:
        """The value, or raise the captured error."""
        if self.error is not None:
            raise self.error
        return self.value


def _consume(outcome: TaskOutcome) -> TaskOutcome:
    """Count one outcome's fate as it reaches the consumer."""
    registry = get_metrics()
    if outcome.error is not None:
        registry.inc("parallel.tasks.errors")
    else:
        registry.inc("parallel.tasks.completed")
    return outcome


def effective_cpu_count() -> int:
    """CPUs actually usable by this process, not just present.

    Containers and batch schedulers routinely pin a process to a
    subset of the machine (cpuset/affinity); sizing worker pools by
    ``os.cpu_count()`` then oversubscribes.  Prefers
    ``os.process_cpu_count()`` (Python 3.13+), falls back to the
    scheduling affinity mask, then to ``os.cpu_count()``.
    """
    counter = getattr(os, "process_cpu_count", None)
    count = counter() if counter is not None else None
    if count is None:
        try:
            count = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):  # pragma: no cover - non-Linux
            count = os.cpu_count()
    return max(1, count or 1)


def resolve_workers(workers: int | str | None) -> int:
    """Normalize a worker count: ``None``/``0``/``"auto"`` → usable CPUs.

    A negative count raises :class:`ValueError`.
    """
    if workers is None or workers == "auto":
        return effective_cpu_count()
    if isinstance(workers, str):
        raise ValueError(f"workers must be an int or 'auto': {workers!r}")
    if workers < 0:
        raise ValueError(f"workers must be non-negative: {workers!r}")
    if workers == 0:
        return effective_cpu_count()
    return workers


class ParallelExecutor:
    """Run many tasks with ordered results and bounded concurrency.

    Parameters
    ----------
    workers:
        Worker count; ``None``, ``0``, or ``"auto"`` resolves to
        :func:`effective_cpu_count` (production default), ``1`` runs
        serially, more runs a thread pool of that size; a negative
        count raises :class:`ValueError`.
    max_in_flight:
        Maximum tasks submitted but not yet consumed; defaults to
        ``2 × workers``.  Bounds memory on huge surveys.
    """

    def __init__(
        self,
        workers: int | str | None = 1,
        max_in_flight: int | None = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError("max_in_flight must be positive")
        self.max_in_flight = max_in_flight or 2 * self.workers

    @property
    def backend(self) -> str:
        """``"serial"`` for one worker, ``"thread"`` otherwise."""
        return "serial" if self.workers == 1 else "thread"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelExecutor(workers={self.workers}, "
            f"max_in_flight={self.max_in_flight})"
        )

    # ------------------------------------------------------------------

    def imap(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
    ) -> Iterator[TaskOutcome]:
        """Yield one :class:`TaskOutcome` per item, in submission order.

        One worker runs each task inline as the consumer advances
        (identical to the pre-parallel code path); more workers keep up
        to ``max_in_flight`` tasks running ahead of the consumer.
        """
        if self.workers == 1:
            yield from self._imap_serial(fn, items)
            return
        # Context-manager exit joins the threads, so a consumer that
        # stops early never leaks workers.
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            yield from self._imap_pooled(pool, fn, items)

    def run(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
    ) -> list[TaskOutcome]:
        """Eager :meth:`imap`: collect every outcome into a list."""
        return list(self.imap(fn, items))

    def map_results(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
    ) -> list[Any]:
        """Run all tasks and unwrap their values, re-raising the first error.

        The pool is shut down before the error propagates.  Left to the
        garbage collector, the abandoned generator would join its pool
        from whichever thread triggers the collection, and one that
        collects inside ``threading`` start-up deadlocks on its lock.
        """
        with closing(self.imap(fn, items)) as outcomes:
            return [outcome.result() for outcome in outcomes]

    # ------------------------------------------------------------------

    @staticmethod
    def _imap_serial(
        fn: Callable[[Any], Any],
        items: Iterable[Any],
    ) -> Iterator[TaskOutcome]:
        for index, item in enumerate(items):
            yield _consume(ParallelExecutor._execute(fn, index, item))

    def _imap_pooled(
        self,
        pool: ThreadPoolExecutor,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
    ) -> Iterator[TaskOutcome]:
        pending: deque[Future] = deque()
        iterator = enumerate(items)
        exhausted = False
        try:
            while True:
                while not exhausted and len(pending) < self.max_in_flight:
                    try:
                        index, item = next(iterator)
                    except StopIteration:
                        exhausted = True
                        break
                    # Each task runs in its own copy of the caller's
                    # context, so scoped metrics, tracers and tallies
                    # reach the worker as they would inline.
                    context = contextvars.copy_context()
                    pending.append(
                        pool.submit(context.run, self._execute, fn, index, item)
                    )
                if not pending:
                    break
                yield _consume(pending.popleft().result())
        finally:
            # A consumer that stops early (or a generator close) must
            # not leave queued tasks running.
            for future in pending:
                future.cancel()

    @staticmethod
    def _execute(fn: Callable[[Any], Any], index: int, item: Any) -> TaskOutcome:
        try:
            return TaskOutcome(index=index, value=fn(item))
        except Exception as err:  # noqa: BLE001 - captured, re-raised by result()
            return TaskOutcome(index=index, error=err)
