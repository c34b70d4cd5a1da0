"""Per-location tallies: what one unit of work spent on shared objects.

A survey's locations run concurrently over shared objects — one usage
meter, one response cache, shared classifiers and cascade counters —
and in the service daemon concurrent surveys share them too.  Reading
such an object's totals before and after a run credits the run with
whatever overlapped it.  A :class:`Tally` is the per-unit book
instead: the survey engine opens one per location with
:func:`use_tally`, and each shared object records into the tally
active in the caller's context as well as into its own totals.

The active tally is a context variable, so it follows the location
onto :class:`~repro.parallel.aio.ThreadBridge` and
:class:`~repro.parallel.executor.ParallelExecutor` threads (both run
work in a copy of the submitting context).  Outside any scope,
:func:`tally` is a no-op.
"""

from __future__ import annotations

import contextvars
import threading
from contextlib import contextmanager

__all__ = ["Tally", "tally", "use_tally"]


class Tally:
    """Named counters of one unit of work; thread-safe."""

    __slots__ = ("_lock", "_counts")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, float] = {}

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + value

    def get(self, name: str) -> float:
        with self._lock:
            return self._counts.get(name, 0)

    def section(self, prefix: str) -> dict[str, float]:
        """The counters named ``<prefix>.<rest>``, keyed by ``rest``."""
        head = prefix + "."
        with self._lock:
            return {
                name[len(head):]: value
                for name, value in self._counts.items()
                if name.startswith(head)
            }


_active: contextvars.ContextVar[Tally | None] = contextvars.ContextVar(
    "repro_obs_active_tally", default=None
)


def tally(name: str, value: float = 1) -> None:
    """Add ``value`` to ``name`` in the current context's tally, if any."""
    active = _active.get()
    if active is not None:
        active.add(name, value)


@contextmanager
def use_tally(scope: Tally):
    """Make ``scope`` the tally shared objects record into, for the block."""
    token = _active.set(scope)
    try:
        yield scope
    finally:
        _active.reset(token)
