"""In-memory spans recorded around library calls, from outside the library.

A :class:`Recorder` replaces a function where its caller looks it up
(a module global such as ``repro.core.pipeline.plan_survey_points``, or
a class attribute such as ``StreetViewClient.fetch_capture``) with a
wrapper that records one span per call: wall time (``perf_counter``),
thread CPU time (``thread_time``), the enclosing span on the same
thread as parent, and a trace id per job or location.  Spans stay in a
list until :func:`fold` turns them into per-name totals, where a span's
self time is its duration minus the part of it its children cover.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections.abc import Callable, Iterable


class Span:
    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "trace_id",
        "start",
        "end",
        "cpu",
        "error",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        trace_id: str,
        start: float,
        end: float,
        cpu: float,
        error: bool = False,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.start = start
        self.end = end
        self.cpu = cpu
        self.error = error

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Recorder:
    """Patch functions with span-recording wrappers; undo with :meth:`restore`."""

    def __init__(self, default_trace: Callable[[], str | None] = lambda: None):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._count_lock = threading.Lock()
        self._default_trace = default_trace
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        # Bumped from engine threads: the read-modify-write needs a lock.
        with self._count_lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        trace_key: Callable[[tuple], str | None] | None = None,
        after: Callable[[tuple, object], None] | None = None,
    ) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``trace_key`` derives a trace id from the call's arguments when
        the span has no parent on its thread; ``after`` sees the
        arguments and the result once the span is closed, so the work
        it does to count bytes or tokens stays out of the span.
        """
        original = _attribute(owner, attr)
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        default_trace = self._default_trace

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            if parent is not None:
                parent_id, trace_id = parent
            else:
                parent_id = None
                trace_id = default_trace() or (
                    trace_key(args) if trace_key is not None else None
                ) or name
            span_id = next(ids)
            stack.append((span_id, trace_id))
            error = False
            cpu0 = time.thread_time()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu0
                stack.pop()
                spans.append(
                    Span(name, span_id, parent_id, trace_id, start, end, cpu, error)
                )
            if after is not None:
                after(args, result)
            return result

        self.patch(owner, attr, wrapper)

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Replace ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, _attribute(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _attribute(owner: object, attr: str) -> object:
    """``owner.attr`` as stored: a class's own function, not a bound method."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def fold(spans: list[Span]) -> dict:
    """Per-name totals of a span list.

    Returns ``{"names": {name: {calls, errors, self_ms, cpu_ms,
    wait_ms}}, "root_wall_ms", "root_cpu_ms"}``.  ``self_ms`` is
    each span's duration minus the union of its children's intervals;
    ``cpu_ms`` is its thread CPU minus its children's (children run on
    the parent's thread, so their CPU nests inside it).  ``wait_ms`` of
    a name sums its ``wait`` children.  The root totals cover spans
    without a parent: the time some thread spent inside the library's
    wrapped layers, and the CPU it burned there.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    names: dict[str, dict] = {}
    root_wall = root_cpu = 0.0
    for span in spans:
        kids = children.get(span.span_id, ())
        duration = span.end - span.start
        row = names.setdefault(
            span.name,
            {
                "calls": 0,
                "errors": 0,
                "self_ms": 0.0,
                "cpu_ms": 0.0,
                "wait_ms": 0.0,
            },
        )
        row["calls"] += 1
        row["errors"] += span.error
        row["self_ms"] += 1000.0 * (
            duration - covered(((k.start, k.end) for k in kids), span.start, span.end)
        )
        row["cpu_ms"] += 1000.0 * max(0.0, span.cpu - sum(k.cpu for k in kids))
        row["wait_ms"] += 1000.0 * sum(k.end - k.start for k in kids if k.name == "wait")
        if span.parent_id is None:
            root_wall += duration
            root_cpu += span.cpu
    return {
        "names": names,
        "root_wall_ms": 1000.0 * root_wall,
        "root_cpu_ms": 1000.0 * root_cpu,
    }
