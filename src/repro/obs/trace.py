"""Spans and tracers: where a survey's wall-clock actually goes.

A :class:`Span` is one timed operation (a GSV fetch, an LLM classify,
a merge step) with a stable id, an optional parent link, and free-form
JSON-able attributes.  A :class:`Tracer` hands out spans as context
managers and records them as they finish; :meth:`Tracer.export_jsonl`
writes one JSON object per line so a trace is greppable and streams
into any tooling.

Parenting is implicit within a thread: the innermost open span is
tracked in a :class:`contextvars.ContextVar`, so library code opening
``tracer.span("gsv.fetch")`` deep inside a worker automatically nests
under the per-location span its caller opened on the same thread.
Cross-thread edges (the survey root → its fan-out locations) pass
``parent=`` explicitly.

The default tracer is :data:`NULL_TRACER`, whose ``span()`` returns a
shared no-op handle — no allocation, no clock reads, no lock — so
instrumented hot paths cost nearly nothing until someone actually
turns tracing on (``repro trace ...`` or :func:`use_tracer`).  Like
the innermost span, the active tracer is a context variable, so
concurrent tasks can trace into different tracers.

Timing uses ``time.perf_counter`` (monotonic); span ids are a
per-tracer counter, so two identical runs produce structurally
identical traces apart from the recorded durations.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]

#: Innermost open span on the current thread (implicit parent).
_current_span: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


class Span:
    """One timed, attributed operation within a trace."""

    __slots__ = (
        "name",
        "span_id",
        "trace_id",
        "parent_id",
        "start_s",
        "end_s",
        "attributes",
        "status",
        "error",
    )

    def __init__(
        self,
        name: str,
        span_id: str,
        trace_id: str,
        parent_id: str | None,
        attributes: dict,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.start_s = time.perf_counter()
        self.end_s: float | None = None
        self.attributes = attributes
        self.status = "ok"
        self.error: str | None = None

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def set(self, **attributes) -> "Span":
        """Attach attributes after the span opened; returns self."""
        self.attributes.update(attributes)
        return self

    def to_dict(self) -> dict:
        payload = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": round(self.start_s, 9),
            "duration_s": round(self.duration_s, 9),
            "status": self.status,
            "attributes": self.attributes,
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, {self.duration_s * 1e3:.2f}ms)"
        )


class Tracer:
    """Recording tracer: hands out spans, keeps every finished one.

    Thread-safe — the survey opens spans from the merge thread and
    every worker concurrently.  Spans are recorded in *finish* order;
    each carries its start time, so consumers can re-sort.
    """

    def __init__(self, trace_id: str = "trace") -> None:
        self.trace_id = trace_id
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._ids = itertools.count(1)

    @property
    def enabled(self) -> bool:
        return True

    @property
    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    @contextmanager
    def span(self, name: str, parent: "Span | None" = None, **attributes):
        """Open a span; closes (and records) when the block exits.

        ``parent`` overrides the implicit current-thread parent —
        required when the child runs on a different thread than the
        span it belongs under.
        """
        if parent is None:
            parent = _current_span.get()
        parent_id = parent.span_id if isinstance(parent, Span) else None
        span = Span(
            name=name,
            span_id=f"s{next(self._ids):06d}",
            trace_id=self.trace_id,
            parent_id=parent_id,
            attributes=attributes,
        )
        token = _current_span.set(span)
        try:
            yield span
        except BaseException as err:
            span.status = "error"
            span.error = f"{type(err).__name__}: {err}"
            raise
        finally:
            span.end_s = time.perf_counter()
            _current_span.reset(token)
            with self._lock:
                self._spans.append(span)

    # ------------------------------------------------------------------
    # export

    def to_jsonl(self) -> str:
        """Every recorded span, one sorted-key JSON object per line."""
        with self._lock:
            spans = list(self._spans)
        return "".join(
            json.dumps(span.to_dict(), sort_keys=True) + "\n"
            for span in spans
        )

    def export_jsonl(self, path: str | Path) -> int:
        """Write the trace to ``path``; returns the span count."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = self.to_jsonl()
        path.write_text(text, encoding="utf-8")
        return text.count("\n")

    def span_tree(self) -> dict[str | None, list[Span]]:
        """Spans grouped by parent id (``None`` groups the roots)."""
        tree: dict[str | None, list[Span]] = {}
        for span in self.spans:
            tree.setdefault(span.parent_id, []).append(span)
        return tree


class _NullSpan(Span):
    """The span nobody records: every mutator is a no-op."""

    def __init__(self) -> None:
        super().__init__(
            name="null", span_id="s0", trace_id="null", parent_id=None,
            attributes={},
        )

    def set(self, **attributes) -> "Span":
        return self


_NULL_SPAN = _NullSpan()


class _NullHandle:
    """Reusable no-op context manager yielding the null span."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return _NULL_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_HANDLE = _NullHandle()


class NullTracer:
    """The default tracer: free to call, records nothing."""

    trace_id = "null"

    @property
    def enabled(self) -> bool:
        return False

    @property
    def spans(self) -> list[Span]:
        return []

    def span(self, name: str, parent: Span | None = None, **attributes):
        return _NULL_HANDLE

    def to_jsonl(self) -> str:
        return ""

    def export_jsonl(self, path: str | Path) -> int:
        Path(path).write_text("", encoding="utf-8")
        return 0

    def span_tree(self) -> dict[str | None, list[Span]]:
        return {}


#: Shared no-op tracer; also the process-wide default.
NULL_TRACER = NullTracer()
_default: Tracer | NullTracer = NULL_TRACER
_scoped: contextvars.ContextVar[Tracer | NullTracer | None] = (
    contextvars.ContextVar("repro_obs_scoped_tracer", default=None)
)


def get_tracer() -> Tracer | NullTracer:
    """The tracer scoped to the current context, else the process default.

    The default is :data:`NULL_TRACER` until :func:`set_tracer`
    installs another.
    """
    tracer = _scoped.get()
    return _default if tracer is None else tracer


def set_tracer(tracer: Tracer | NullTracer | None) -> None:
    """Install the process-wide tracer (``None`` restores the no-op).

    This is the fallback every context without a :func:`use_tracer`
    scope sees, raw threads included.
    """
    global _default
    _default = tracer if tracer is not None else NULL_TRACER


@contextmanager
def use_tracer(tracer: Tracer | NullTracer):
    """Trace the current context into ``tracer`` for the block.

    The scope is a context variable, so concurrent tasks (two daemon
    jobs) each trace into their own tracer.  It reaches threads that
    run in a copy of this context — the
    :class:`~repro.parallel.aio.ThreadBridge` and
    :class:`~repro.parallel.executor.ParallelExecutor` workers — but
    not a raw ``threading.Thread``, which sees the process default.
    """
    token = _scoped.set(tracer)
    try:
        yield tracer
    finally:
        _scoped.reset(token)
