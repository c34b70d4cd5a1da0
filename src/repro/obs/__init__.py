"""Structured observability: tracing, metrics, and determinism audits.

The measurement substrate under the survey pipeline (DESIGN.md §11):

* :mod:`repro.obs.trace` — :class:`Span`/:class:`Tracer` with ids,
  parent links, and monotonic timings; JSONL export; a zero-cost
  :data:`NULL_TRACER` default.
* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry`
  (counters, gauges, fixed-bucket histograms), scoped per context by
  :func:`use_metrics` so pool and bridge workers record into their
  submitter's registry.
* :mod:`repro.obs.scope` — per-location :class:`Tally` books that
  shared objects (usage meter, response cache, retry loop, cascade
  counters) record into through a context variable.
* :mod:`repro.obs.audit` — cross-checks the metrics books against the
  survey report's counters and validates trace structure.

Instrumented code pays almost nothing by default: the tracer is a
no-op until installed (``repro trace ...`` or :func:`use_tracer`) and
metric increments are single locked dict updates.
"""

from .audit import (
    SERVICE_STAGES,
    SURVEY_STAGES,
    audit_trace,
    reconcile_survey,
)
from .metrics import (
    DEFAULT_BUCKET_EDGES,
    MetricsRegistry,
    get_metrics,
    reset_metrics,
    use_metrics,
)
from .scope import Tally, tally, use_tally
from .trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "SERVICE_STAGES",
    "DEFAULT_BUCKET_EDGES",
    "MetricsRegistry",
    "SURVEY_STAGES",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tally",
    "Tracer",
    "audit_trace",
    "get_metrics",
    "get_tracer",
    "reconcile_survey",
    "reset_metrics",
    "set_tracer",
    "tally",
    "use_metrics",
    "use_tally",
    "use_tracer",
]
