"""Determinism audit: metrics must reconcile with report counters.

The survey pipeline keeps two independent sets of books.  The
:class:`~repro.core.pipeline.SurveyReport` carries the *semantic*
counters that have existed since PR 1 (completed/failed locations,
images classified, retry totals, cache/coalescing deltas), and the
observability layer counts the same events again through
:class:`~repro.obs.metrics.MetricsRegistry`.  If the two ever
disagree, either an event went unmeasured or a measurement double
counted — both are bugs worth failing a build over.

:func:`reconcile_survey` cross-checks every counter pair and returns
the mismatches (empty list = books balance).  It assumes the metrics
delta spans exactly one survey on an otherwise-quiet registry, which
is how :meth:`NeighborhoodDecoder.survey` records
``SurveyReport.metrics`` and how the tests drive it.

:func:`audit_trace` validates a recorded trace structurally: every
parent id resolves, span ids are unique, and the expected stage names
are present under a single survey root.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .trace import Span, Tracer

if TYPE_CHECKING:  # import cycle: pipeline itself is instrumented
    from ..core.pipeline import SurveyReport

__all__ = [
    "SURVEY_STAGES",
    "audit_trace",
    "reconcile_survey",
]


def _counter(delta: dict, name: str) -> float:
    return delta.get("counters", {}).get(name, 0.0)


def reconcile_survey(
    report: SurveyReport, delta: dict | None = None
) -> list[str]:
    """Cross-check a survey's report counters against its metrics delta.

    Returns one human-readable line per mismatch; an empty list means
    every pair of books agrees exactly.  ``delta`` defaults to the
    delta the survey recorded on the report itself.
    """
    delta = report.metrics if delta is None else delta
    if not delta:
        return ["no metrics delta recorded on the report"]
    mismatches: list[str] = []

    def check(metric: str, reported: float, label: str) -> None:
        measured = _counter(delta, metric)
        if measured != reported:
            mismatches.append(
                f"{label}: report says {reported}, "
                f"metric {metric} says {measured}"
            )

    check(
        "survey.locations.completed",
        report.completed_locations,
        "completed locations",
    )
    check(
        "survey.locations.failed",
        len(report.failed_locations),
        "failed locations",
    )
    check(
        "survey.images.classified",
        report.images_classified,
        "images classified",
    )
    check("survey.votes.degraded", report.degraded_votes, "degraded votes")
    stats = report.retry_stats
    check("retry.operations", stats.operations, "retry operations")
    check("retry.attempts", stats.attempts, "retry attempts")
    check("retry.retries", stats.retries, "retries")
    check("retry.failures", stats.failures, "retry failures")
    check("retry.breaker_blocks", stats.breaker_blocks, "breaker blocks")
    if report.coalesce_stats:
        check(
            "llm.cache.hits",
            report.coalesce_stats.get("cache_hits", 0),
            "cache hits",
        )
        check(
            "llm.cache.coalesced",
            report.coalesce_stats.get("coalesced", 0),
            "coalesced requests",
        )
    if report.cascade_stats:
        cascade = report.cascade_stats
        check(
            "cascade.images",
            cascade.get("images", 0),
            "cascade images",
        )
        for tier in (0, 1, 2):
            check(
                f"cascade.tier{tier}.indicators",
                cascade.get(f"tier{tier}_indicators", 0),
                f"cascade tier-{tier} indicators",
            )
        check(
            "cascade.fallbacks",
            cascade.get("detector_fallbacks", 0),
            "cascade detector fallbacks",
        )
    return mismatches


#: Stage names a traced survey must exhibit somewhere in its tree.
SURVEY_STAGES = ("survey", "survey.location", "survey.classify",
                 "survey.vote", "survey.merge")

#: Stage names a service-daemon job's span tree must exhibit: the
#: daemon's own ``service.job`` root wrapping the survey tree (each
#: job runs under its own tracer, so the engine's stages nest inside
#: the job span instead of standing alone).  ``survey.vote`` is
#: excluded — vote spans come from the ensemble, and service jobs run
#: the single-classifier or cascade profiles.
SERVICE_STAGES = ("service.job", "survey", "survey.location",
                  "survey.classify", "survey.merge")


def audit_trace(
    tracer: Tracer,
    required_names: tuple[str, ...] = SURVEY_STAGES,
) -> list[str]:
    """Structural validation of a recorded trace.

    Checks that span ids are unique, every ``parent_id`` resolves to a
    recorded span, exactly one root carries the first required name,
    and every required stage name occurs at least once.  Returns the
    problems found (empty list = structurally sound).
    """
    spans: list[Span] = tracer.spans
    problems: list[str] = []
    by_id: dict[str, Span] = {}
    for span in spans:
        if span.span_id in by_id:
            problems.append(f"duplicate span id {span.span_id}")
        by_id[span.span_id] = span
    for span in spans:
        if span.parent_id is not None and span.parent_id not in by_id:
            problems.append(
                f"span {span.span_id} ({span.name}) has unknown parent "
                f"{span.parent_id}"
            )
    names = {span.name for span in spans}
    for required in required_names:
        if required not in names:
            problems.append(f"missing stage span: {required}")
    roots = [
        span
        for span in spans
        if span.parent_id is None and span.name == required_names[0]
    ]
    if required_names and len(roots) != 1:
        problems.append(
            f"expected exactly one {required_names[0]!r} root, "
            f"found {len(roots)}"
        )
    return problems
