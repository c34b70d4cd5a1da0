"""Thread-safe metrics: counters, gauges, histograms, snapshot deltas.

A county-scale survey fans work across threads, and when it misbehaves
the first question is always quantitative: how many fetches, how many
cache hits, how many retries, where did the time go?
:class:`MetricsRegistry` answers those questions with three instrument
kinds, all behind one lock:

* **counters** — monotonically increasing floats (``inc``);
* **gauges** — last-written values (``set_gauge``);
* **histograms** — fixed-bucket-edge distributions (``observe``),
  recording per-bucket counts plus total count and sum.

Everything runs in one process, so threads write the active registry
directly.  :func:`use_metrics` scopes which registry is active through
a context variable: pool and bridge workers inherit the submitting
context, so a daemon job's workers record into that job's registry.

Snapshots are plain sorted dicts (JSON-ready); ``delta_since``
subtracts two snapshots so callers can report exactly what one survey
or suite run contributed, regardless of what else the registry saw.
"""

from __future__ import annotations

import contextvars
import threading
from contextlib import contextmanager

__all__ = [
    "DEFAULT_BUCKET_EDGES",
    "MetricsRegistry",
    "get_metrics",
    "reset_metrics",
    "use_metrics",
]

#: Default histogram bucket edges (seconds-flavored; callers may pass
#: their own).  A value lands in the first bucket whose edge is >= it,
#: with one overflow bucket past the last edge.
DEFAULT_BUCKET_EDGES = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
)


class _Histogram:
    """Fixed-edge histogram: bucket counts, total count, total sum."""

    __slots__ = ("edges", "counts", "count", "total")

    def __init__(self, edges: tuple[float, ...]) -> None:
        if not edges or list(edges) != sorted(edges):
            raise ValueError(f"edges must be sorted and non-empty: {edges}")
        self.edges = tuple(float(edge) for edge in edges)
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        index = len(self.edges)
        for position, edge in enumerate(self.edges):
            if value <= edge:
                index = position
                break
        self.counts[index] += 1
        self.count += 1
        self.total += value

    def as_dict(self) -> dict:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
        }


class MetricsRegistry:
    """Named counters, gauges, and histograms behind one lock.

    All mutators are thread-safe; cross-process aggregation goes
    through :meth:`snapshot` / :meth:`delta_since` / :meth:`merge`
    (see the module docstring).  Metric names are plain dotted
    strings (``"llm.cache.hits"``); the taxonomy lives in
    DESIGN.md §11.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}

    # ------------------------------------------------------------------
    # instruments

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` (>= 0) to the named counter."""
        if value < 0:
            raise ValueError(f"counters only increase: {name}={value}")
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def set_gauge(self, name: str, value: float) -> None:
        """Record the latest value of the named gauge."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        edges: tuple[float, ...] = DEFAULT_BUCKET_EDGES,
    ) -> None:
        """Add one observation to the named histogram.

        The bucket edges are fixed by the first observation; a later
        call with different edges is an error (silently re-bucketing
        would make merged histograms incoherent).
        """
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = _Histogram(tuple(edges))
                self._histograms[name] = histogram
            elif histogram.edges != tuple(float(e) for e in edges):
                raise ValueError(
                    f"histogram {name!r} already registered with edges "
                    f"{histogram.edges}, got {tuple(edges)}"
                )
            histogram.observe(value)

    # ------------------------------------------------------------------
    # snapshots and merging

    def snapshot(self) -> dict:
        """Deterministic (sorted-key) JSON-ready copy of every metric."""
        with self._lock:
            return {
                "counters": {
                    name: self._counters[name]
                    for name in sorted(self._counters)
                },
                "gauges": {
                    name: self._gauges[name] for name in sorted(self._gauges)
                },
                "histograms": {
                    name: self._histograms[name].as_dict()
                    for name in sorted(self._histograms)
                },
            }

    def delta_since(self, before: dict) -> dict:
        """What this registry accumulated after ``before`` was taken.

        Counters and histograms subtract; gauges report their current
        value (a gauge has no meaningful difference).  Metrics that
        did not move are omitted, so an idle registry yields an empty
        delta.
        """
        now = self.snapshot()
        counters = {}
        for name, value in now["counters"].items():
            moved = value - before.get("counters", {}).get(name, 0.0)
            if moved:
                counters[name] = moved
        gauges = {
            name: value
            for name, value in now["gauges"].items()
            if value != before.get("gauges", {}).get(name)
        }
        histograms = {}
        for name, hist in now["histograms"].items():
            prior = before.get("histograms", {}).get(name)
            if prior is None:
                if hist["count"]:
                    histograms[name] = hist
                continue
            if prior.get("edges") != hist["edges"]:
                histograms[name] = hist
                continue
            moved_counts = [
                new - old
                for new, old in zip(hist["counts"], prior["counts"])
            ]
            if any(moved_counts):
                histograms[name] = {
                    "edges": hist["edges"],
                    "counts": moved_counts,
                    "count": hist["count"] - prior["count"],
                    "sum": hist["sum"] - prior["sum"],
                }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-wide default registry.  Instrumented library code reads
#: the active registry through :func:`get_metrics` at call time, so
#: tests, the CLI and the service daemon can scope a registry of their
#: own with :func:`use_metrics`.
_DEFAULT = MetricsRegistry()
_active: contextvars.ContextVar[MetricsRegistry | None] = contextvars.ContextVar(
    "repro_obs_active_metrics", default=None
)


def get_metrics() -> MetricsRegistry:
    """The registry scoped to the current context, else the process default."""
    registry = _active.get()
    return _DEFAULT if registry is None else registry


def reset_metrics() -> None:
    """Clear the active registry (test isolation helper)."""
    get_metrics().reset()


@contextmanager
def use_metrics(registry: MetricsRegistry):
    """Route instrumentation in the current context into ``registry``.

    The scope is a context variable, not a process global: two
    concurrent tasks (two daemon jobs) each see their own registry.
    It reaches every thread that runs in a copy of this context —
    :class:`~repro.parallel.aio.ThreadBridge` and
    :class:`~repro.parallel.executor.ParallelExecutor` workers — but
    not a raw ``threading.Thread``, which starts in an empty context
    and records into the process default unless started through
    ``contextvars.copy_context().run``.
    """
    token = _active.set(registry)
    try:
        yield registry
    finally:
        _active.reset(token)
