"""End-to-end neighborhood decoding: the system a user would deploy.

``NeighborhoodDecoder`` wires the whole paper together: sample
locations from a county's road network, fetch street-view imagery,
classify every capture with an LLM (or a majority-voting ensemble),
and aggregate per-location results into neighborhood-level indicator
statistics — the kind of output public-health studies correlate with
obesity/diabetes prevalence in the work the paper builds on.

The survey path is fault tolerant: street-view fetches run under the
shared :class:`~repro.resilience.retry.RetryPolicy` (optionally behind
a :class:`~repro.resilience.breaker.CircuitBreaker`), ensemble voting
degrades to the surviving quorum when a member is down, a failed
location is recorded and skipped instead of aborting the survey, and
per-location progress can be checkpointed to disk so a rerun resumes
after the last completed location without re-billing fetched imagery.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # cascade imports core; keep the runtime edge one-way
    from ..cascade.router import CascadeClassifier

from ..gsv.api import (
    FEE_PER_IMAGE_USD,
    StreetViewClient,
    StreetViewError,
    TransientNetworkError,
)
from ..gsv.dataset import LabeledImage
from ..geo.county import County
from ..geo.sampling import (
    SamplePoint,
    expand_to_captures,
    plan_survey_points,
)
from ..obs.metrics import get_metrics
from ..obs.scope import Tally, use_tally
from ..obs.trace import get_tracer
from ..parallel.aio import AIMDController, ThreadBridge, imap_async
from ..parallel.executor import TaskOutcome
from ..resilience.breaker import CircuitBreaker, CircuitOpenError
from ..resilience.checkpoint import SurveyCheckpoint
from ..resilience.clock import Clock, WallClock
from ..resilience.retry import RetryPolicy, RetryStats
from .classifier import ClassificationError, LLMIndicatorClassifier
from .indicators import ALL_INDICATORS, Indicator, IndicatorPresence
from .metrics import PresenceAccumulator
from .voting import VotingEnsemble

#: Default window of :meth:`NeighborhoodDecoder.survey_stream_async`.
DEFAULT_STREAM_INFLIGHT = 64

#: ``SurveyReport.coalesce_stats`` key → the cache's tally name.
_COALESCE_TALLIES = {
    "coalesced": "llm.cache.coalesced",
    "cache_hits": "llm.cache.hits",
    "upstream_calls": "llm.cache.misses",
}


@dataclass
class LocationResult:
    """Decoded indicators at one survey location (4 headings)."""

    latitude: float
    longitude: float
    county: str
    zone_kind: str
    presence: IndicatorPresence  # union over the four headings


@dataclass(frozen=True)
class FailedLocation:
    """A survey location that could not be completed."""

    index: int
    latitude: float
    longitude: float
    reason: str


@dataclass
class SurveyReport:
    """Aggregated neighborhood survey output.

    Partial results are first-class: ``coverage`` is the fraction of
    requested locations completed, ``failed_locations`` names the
    rest, ``degraded_votes`` counts images voted on a reduced quorum,
    and ``retry_stats`` totals the fault handling performed.

    A streaming survey in aggregate mode (``keep_locations=False``)
    leaves ``locations`` empty and carries the same statistics in
    ``presence_stats`` / ``zone_stats`` instead — O(1) memory per
    indicator rather than O(locations).  ``completed_locations``
    counts completions in both modes.  ``coalesce_stats`` reports
    request coalescing for observability but is deliberately *not*
    part of :meth:`payload`: whether identical in-flight requests
    shared an upstream call must never change what the survey decoded.
    ``metrics`` — the observability counters this survey moved (see
    :mod:`repro.obs.metrics`) — is excluded for the same reason, and so
    that :func:`repro.obs.audit.reconcile_survey` stays an *independent*
    second set of books rather than part of the payload it audits.
    ``cascade_stats`` (per-tier routing counters of a cascade-backed
    survey) are likewise observability, not decoded output, and stay
    out of the payload — a cascade at threshold 0 must serialize
    byte-identically to a plain ensemble.
    ``batch_stats`` (the locations' batched LLM windows, the requests
    they served and the largest location window) and
    ``pipeline_stats`` (the AIMD window summary) follow the same rule:
    how classify calls were grouped or throttled must never change
    what the survey decoded, so the payload stays byte-identical at
    every window.
    """

    locations: list[LocationResult] = field(default_factory=list)
    images_classified: int = 0
    fees_usd: float = 0.0
    requested_locations: int = 0
    coverage: float = 1.0
    failed_locations: list[FailedLocation] = field(default_factory=list)
    degraded_votes: int = 0
    retry_stats: RetryStats = field(default_factory=RetryStats)
    completed_locations: int = 0
    presence_stats: PresenceAccumulator | None = None
    zone_stats: dict[str, PresenceAccumulator] | None = None
    coalesce_stats: dict[str, int] = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    cascade_stats: dict[str, int] = field(default_factory=dict)
    batch_stats: dict[str, int] = field(default_factory=dict)
    pipeline_stats: dict[str, int] = field(default_factory=dict)

    def indicator_rates(self) -> dict[Indicator, float]:
        """Fraction of locations where each indicator was decoded."""
        if not self.locations:
            if self.presence_stats is not None and self.presence_stats.n:
                return self.presence_stats.rates()
            return {ind: float("nan") for ind in ALL_INDICATORS}
        return {
            ind: float(
                np.mean([loc.presence[ind] for loc in self.locations])
            )
            for ind in ALL_INDICATORS
        }

    def payload(self) -> dict:
        """Canonical JSON-ready dict of the full report.

        The representation is deliberately exhaustive and ordered so
        that two runs of the same survey — serial or parallel — can be
        compared byte-for-byte via :meth:`to_json`.
        """
        return {
            "requested_locations": self.requested_locations,
            "coverage": self.coverage,
            "images_classified": self.images_classified,
            "fees_usd": round(self.fees_usd, 9),
            "degraded_votes": self.degraded_votes,
            "locations": [
                {
                    "latitude": loc.latitude,
                    "longitude": loc.longitude,
                    "county": loc.county,
                    "zone_kind": loc.zone_kind,
                    "present": sorted(ind.value for ind in loc.presence.present),
                }
                for loc in self.locations
            ],
            "failed_locations": [
                {
                    "index": failed.index,
                    "latitude": failed.latitude,
                    "longitude": failed.longitude,
                    "reason": failed.reason,
                }
                for failed in self.failed_locations
            ],
            "retry_stats": self.retry_stats.as_dict(),
        }

    def to_json(self) -> str:
        """Deterministic JSON serialization of :meth:`payload`."""
        return json.dumps(self.payload(), sort_keys=True)

    def rates_by_zone(self) -> dict[str, dict[Indicator, float]]:
        """Indicator rates broken out by land-use zone."""
        if not self.locations and self.zone_stats is not None:
            return {
                zone: acc.rates()
                for zone, acc in sorted(self.zone_stats.items())
            }
        zones: dict[str, list[LocationResult]] = {}
        for location in self.locations:
            zones.setdefault(location.zone_kind, []).append(location)
        return {
            zone: {
                ind: float(
                    np.mean([loc.presence[ind] for loc in group])
                )
                for ind in ALL_INDICATORS
            }
            for zone, group in sorted(zones.items())
        }


@dataclass
class NeighborhoodDecoder:
    """Survey a county with a classifier, voting ensemble, or cascade.

    Exactly one of ``classifier`` / ``ensemble`` / ``cascade`` must be
    provided.  ``retry_policy`` governs street-view fetches
    (classifier retry is configured on the classifiers themselves);
    ``gsv_breaker`` short-circuits a hard-down imagery endpoint.
    """

    street_view: StreetViewClient
    classifier: LLMIndicatorClassifier | None = None
    ensemble: VotingEnsemble | None = None
    cascade: CascadeClassifier | None = None
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    gsv_breaker: CircuitBreaker | None = None
    clock: Clock = field(default_factory=WallClock)
    #: Rasterize during the fetch instead of deferring pixels.  The
    #: survey itself never needs eager pixels (the classifier renders
    #: on demand), but a traced run sets this so ``gsv.render`` spans
    #: land inside their ``gsv.fetch`` parents.
    render_pixels: bool = False

    def __post_init__(self) -> None:
        backends = [self.classifier, self.ensemble, self.cascade]
        if sum(backend is not None for backend in backends) != 1:
            raise ValueError(
                "provide exactly one of classifier, ensemble, or cascade"
            )

    # ------------------------------------------------------------------

    def survey(
        self,
        county: County | None = None,
        n_locations: int | None = None,
        *,
        locations: Iterable[SamplePoint] | None = None,
        seed: int = 0,
        checkpoint: str | Path | None = None,
        checkpoint_store: SurveyCheckpoint | None = None,
        keep_locations: bool = True,
        max_inflight: int = 1,
    ) -> SurveyReport:
        """Decode a county's survey locations, or a location stream.

        The blocking front end of the survey engine: it runs the same
        core as :meth:`survey_async` on a private event loop, so every
        argument means what it means there and in
        :meth:`survey_stream_async`.

        A failed location (exhausted retries, quota, open circuit, all
        ensemble members down) is recorded in ``failed_locations`` and
        the survey continues.  With ``checkpoint`` set, completed
        locations persist to disk and a rerun with the same arguments
        resumes after them — already-billed imagery is never refetched.
        ``max_inflight`` is the pipelined window (1 decodes strictly
        one location at a time); results merge in submission order, so
        the report is byte-identical at any window (DESIGN.md §8).
        ``keep_locations=False`` returns the aggregate report.
        """
        return asyncio.run(
            self._survey(
                county,
                n_locations,
                locations=locations,
                seed=seed,
                checkpoint=checkpoint,
                checkpoint_store=checkpoint_store,
                keep_locations=keep_locations,
                max_inflight=max_inflight,
            )
        )

    async def survey_async(
        self,
        county: County,
        n_locations: int,
        seed: int = 0,
        checkpoint: str | Path | None = None,
        max_inflight: int = 1,
        checkpoint_store: SurveyCheckpoint | None = None,
        bridge: ThreadBridge | None = None,
    ) -> SurveyReport:
        """Pipelined :meth:`survey` on the running event loop.

        Same sampling, same checkpoint key, same report as the blocking
        :meth:`survey`.  ``max_inflight`` bounds the window of locations
        decoded at once (1 decodes one location at a time); each
        location fetches its imagery and then classifies it, so one
        location's fetch overlaps another's LLM calls only inside the
        window, and no imagery is fetched ahead of it.  The classify
        step runs under an AIMD window that narrows on observed rate
        limiting and recovers additively
        (``report.pipeline_stats``).  At every window a location's
        captures go out as one imagery round and a single classifier's
        requests as one batched window (``report.batch_stats``).

        A caller that owns the survey's identity may pass an opened
        ``checkpoint_store`` instead of a ``checkpoint`` path (mutually
        exclusive); the service daemon uses this to observe
        per-location progress through the store's ``record`` calls.
        ``bridge`` lends a caller-owned
        :class:`~repro.parallel.aio.ThreadBridge` (left open on return)
        so a long-lived host multiplexing many surveys does not pay a
        thread-pool spin-up per run.
        """
        return await self._survey(
            county,
            n_locations,
            locations=None,
            seed=seed,
            checkpoint=checkpoint,
            checkpoint_store=checkpoint_store,
            keep_locations=True,
            max_inflight=max_inflight,
            bridge=bridge,
        )

    async def survey_stream_async(
        self,
        county: County | None = None,
        n_locations: int | None = None,
        *,
        locations: Iterable[SamplePoint] | None = None,
        seed: int = 0,
        max_inflight: int = DEFAULT_STREAM_INFLIGHT,
        checkpoint: str | Path | None = None,
        checkpoint_store: SurveyCheckpoint | None = None,
        keep_locations: bool = False,
        bridge: ThreadBridge | None = None,
    ) -> SurveyReport:
        """Memory-bounded pipelined survey over a location *stream*.

        Accepts either ``(county, n_locations)`` — the same sampling
        as :meth:`survey`, point for point — or ``locations=``, any
        iterable of :class:`~repro.geo.sampling.SamplePoint` (a
        generator over a county→state sweep never materializes).  At
        most ``max_inflight`` locations are in flight at once, so the
        window bounds both the pipeline and peak memory.

        With the default ``keep_locations=False`` the report carries
        aggregate statistics only (``presence_stats`` /
        ``zone_stats``): ``indicator_rates()`` and ``rates_by_zone()``
        return *exactly* the values the batch report computes — the
        accumulators reduce to the same integer-sum-over-n division —
        while memory stays flat.  With ``keep_locations=True`` its
        :meth:`SurveyReport.to_json` is byte-identical to the batch
        report for the same county/seed.

        ``checkpoint`` requires county mode (an arbitrary iterable has
        no stable identity to key resumption on) and shares its key
        with :meth:`survey`.  A caller that *does* own a stable
        identity for its stream — the service daemon, which keys each
        job's checkpoint by its durable spec — passes an already-opened
        ``checkpoint_store`` instead.  ``bridge``
        follows :meth:`survey_async`.
        """
        return await self._survey(
            county,
            n_locations,
            locations=locations,
            seed=seed,
            checkpoint=checkpoint,
            checkpoint_store=checkpoint_store,
            keep_locations=keep_locations,
            max_inflight=max_inflight,
            bridge=bridge,
        )

    # ------------------------------------------------------------------

    async def _survey(
        self,
        county: County | None,
        n_locations: int | None,
        *,
        locations: Iterable[SamplePoint] | None,
        seed: int,
        checkpoint: str | Path | None,
        checkpoint_store: SurveyCheckpoint | None,
        keep_locations: bool,
        max_inflight: int,
        bridge: ThreadBridge | None = None,
    ) -> SurveyReport:
        """The one survey engine behind every public entry point.

        Validates and normalizes the arguments once — every entry
        rejects a bad window, a mixed or missing location source, and
        a conflicting checkpoint with the same ``ValueError`` — then
        runs :meth:`_decode_points_async` over the sampled points or
        the caller's stream.  ``keep_locations`` picks the batch
        report (every :class:`LocationResult`) or the aggregate one.
        """
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be positive: {max_inflight}"
            )
        county_mode = locations is None
        if any((arg is None) == county_mode for arg in (county, n_locations)):
            raise ValueError(
                "provide either (county, n_locations) or locations=..."
            )
        if checkpoint is not None and checkpoint_store is not None:
            raise ValueError(
                "provide at most one of checkpoint / checkpoint_store"
            )
        if checkpoint is not None and not county_mode:
            raise ValueError(
                "checkpointing a location iterable is not supported: "
                "an arbitrary stream has no stable identity to key "
                "resumption on — use (county, n_locations) mode, or "
                "pass checkpoint_store= if the caller owns a stable "
                "identity for the stream"
            )
        report = SurveyReport()
        if not keep_locations:
            report.presence_stats = PresenceAccumulator()
            report.zone_stats = {}

        store = checkpoint_store
        if county_mode:
            assert county is not None and n_locations is not None
            report.requested_locations = max(n_locations, 0)
            points = (
                self._select_points(county, n_locations, seed)
                if n_locations > 0
                else None
            )
            if points is None:
                report.coverage = 0.0
                return report
            if store is None:
                store = self._open_checkpoint(
                    checkpoint, county, n_locations, seed
                )
            locations = points

        drawn = await self._decode_points_async(
            locations,
            report,
            store=store,
            max_inflight=max_inflight,
            keep_locations=keep_locations,
            bridge=bridge,
        )
        if not county_mode:
            report.requested_locations = drawn
        report.coverage = (
            report.completed_locations / report.requested_locations
            if report.requested_locations
            else 0.0
        )
        return report

    async def _decode_points_async(
        self,
        points: Iterable[SamplePoint],
        report: SurveyReport,
        *,
        store: SurveyCheckpoint | None,
        max_inflight: int,
        keep_locations: bool,
        bridge: ThreadBridge | None = None,
    ) -> int:
        """Fan out fetch+classify over ``points``; returns points drawn.

        Each location is a coroutine that fetches (and renders) its
        imagery, then classifies (and votes) behind the AIMD
        controller's slot.  ``imap_async`` keeps at most
        ``max_inflight`` of these coroutines alive, and that is the only
        bound on the fetch step.  Both steps execute the sync client
        helpers on a capped
        :class:`~repro.parallel.aio.ThreadBridge`, so client APIs and
        retry/breaker semantics are untouched.  Merging happens on the
        event loop, strictly in submission order, through
        :meth:`_merge_one` — the ordering discipline that keeps the
        report byte-identical at every window.  Each location runs in
        its own :class:`~repro.obs.scope.Tally` scope, and the report's
        fees, retries, cache and cascade counters are the sum of those
        tallies, so surveys overlapping on one decoder (or one daemon
        stack) never see each other's work.  Only the window's
        points are held at once: it is the whole memory footprint of a
        streamed survey.

        The merge loop doubles as the congestion observer: after each
        merge it reads the deltas of ``retry.rate_limited`` and
        ``llm.throttle_wait_seconds`` and feeds the controller, which
        narrows the classify window multiplicatively under throttle
        storms and re-widens additively when the path is clear.
        """
        tracer = get_tracer()
        registry = get_metrics()
        metrics_before = registry.snapshot()
        report.coalesce_stats = dict.fromkeys(_COALESCE_TALLIES, 0)
        report.batch_stats = dict.fromkeys(
            ("batches", "batched_requests", "max_batch_size"), 0
        )
        if self.cascade is not None:
            report.cascade_stats = dict.fromkeys(self.cascade.stats.FIELDS, 0)
        controller = AIMDController(
            initial=max_inflight, max_limit=max_inflight
        )
        # The window is the thread cap: ``imap_async`` keeps at most
        # ``max_inflight`` locations alive, and each awaits one bridge
        # call at a time, its fetch and then its classify.  Each call's
        # batched dispatch (the location's imagery round, its LLM
        # window) and its retries run on that one thread, so a
        # location never parks a second sync call.
        # A caller-owned bridge (the service daemon reusing one pool
        # across concurrent jobs) is used as handed over; its owner
        # keeps the windows it lends within the bridge's threads.
        owned_bridge = bridge is None
        if bridge is None:
            bridge = ThreadBridge(max_threads=max_inflight)

        window: dict[int, SamplePoint] = {}
        drawn = 0

        def tracked() -> Iterator[tuple[int, SamplePoint]]:
            nonlocal drawn
            for index, point in enumerate(points):
                window[index] = point
                drawn += 1
                yield index, point

        def throttle_level() -> float:
            return registry.counter("retry.rate_limited") + registry.counter(
                "llm.throttle_wait_seconds"
            )

        with contextlib.ExitStack() as stack:
            if owned_bridge:
                stack.enter_context(bridge)
            root_span = stack.enter_context(
                tracer.span("survey", max_inflight=max_inflight)
            )

            async def decode_one(
                indexed: tuple[int, SamplePoint]
            ) -> tuple[LocationResult, int, int, Tally] | dict:
                index, point = indexed
                # The location's own books: every shared object it runs
                # through tallies into this scope, on whichever bridge
                # thread the work lands.
                scope = Tally()
                with use_tally(scope), tracer.span(
                    "survey.location", parent=root_span, index=index
                ) as loc_span:
                    if store is not None and store.has(index):
                        loc_span.set(checkpointed=True)
                        return store.get(index)
                    try:
                        images = await bridge.run(
                            self._fetch_location, index, point
                        )
                        async with controller.slot():
                            with tracer.span(
                                "survey.classify",
                                parent=loc_span,
                                images=len(images),
                            ):
                                presences, degraded = await bridge.run(
                                    self._predict_location, images
                                )
                    except (
                        StreetViewError,
                        CircuitOpenError,
                        ClassificationError,
                    ) as err:
                        err.tally = scope  # type: ignore[attr-defined]
                        raise
                    return (
                        self._location_result(point, presences),
                        len(images),
                        degraded,
                        scope,
                    )

            throttle_base = throttle_level()
            async for task in imap_async(
                decode_one, tracked(), max_inflight=max_inflight
            ):
                point = window.pop(task.index)
                self._merge_one(
                    task,
                    point,
                    report,
                    store=store,
                    keep_locations=keep_locations,
                    tracer=tracer,
                    root_span=root_span,
                )
                throttle_now = throttle_level()
                if throttle_now > throttle_base:
                    controller.on_throttle()
                else:
                    controller.on_success()
                throttle_base = throttle_now

            report.pipeline_stats = controller.stats()
        report.metrics = registry.delta_since(metrics_before)
        return drawn

    # ------------------------------------------------------------------

    @staticmethod
    def _select_points(
        county: County, n_locations: int, seed: int
    ) -> list[SamplePoint] | None:
        """The survey's sampling plan for ``(county, n_locations)``.

        Delegates to :func:`~repro.geo.sampling.plan_survey_points`,
        the same planner multi-county callers use — one sampling code
        path, so points a caller plans itself for ``locations=`` are
        exactly the survey's frame.
        """
        points = plan_survey_points([county], n_locations, seed)
        return points or None

    @staticmethod
    def _open_checkpoint(
        checkpoint: str | Path | None,
        county: County,
        n_locations: int,
        seed: int,
    ) -> SurveyCheckpoint | None:
        if checkpoint is None:
            return None
        return SurveyCheckpoint(
            checkpoint,
            key={
                "county": county.name,
                "n_locations": n_locations,
                "seed": seed,
            },
        )

    @staticmethod
    def _location_result(
        point: SamplePoint, presences: list[IndicatorPresence]
    ) -> LocationResult:
        """One location's result: the union over its headings."""
        union = [
            ind
            for ind in ALL_INDICATORS
            if any(presence[ind] for presence in presences)
        ]
        return LocationResult(
            latitude=point.location.lat,
            longitude=point.location.lon,
            county=point.county,
            zone_kind=point.zone_kind.value,
            presence=IndicatorPresence(union),
        )

    def _merge_one(
        self,
        task: TaskOutcome,
        point: SamplePoint,
        report: SurveyReport,
        *,
        store: SurveyCheckpoint | None,
        keep_locations: bool,
        tracer,
        root_span,
    ) -> None:
        """Merge one outcome, in submission order, on the calling thread.

        Failure recording, checkpoint restoration, tally folding and
        checkpoint writes all happen here, in submission order, which
        is what keeps the report byte-identical at every window.
        """
        registry = get_metrics()
        with tracer.span(
            "survey.merge", parent=root_span, index=task.index
        ):
            try:
                outcome = task.result()
            except (
                StreetViewError,
                CircuitOpenError,
                ClassificationError,
            ) as err:
                # A failed location still spent fees and retries.
                scope = getattr(err, "tally", None)
                if scope is not None:
                    self._fold_tally(report, scope)
                registry.inc("survey.locations.failed")
                report.failed_locations.append(
                    FailedLocation(
                        index=task.index,
                        latitude=point.location.lat,
                        longitude=point.location.lon,
                        reason=f"{type(err).__name__}: {err}",
                    )
                )
                return
            if isinstance(outcome, dict):
                self._restore_location(report, outcome, keep_locations)
                return
            result, n_images, degraded, scope = outcome
            self._fold_tally(report, scope)
            self._record_result(
                report, result, n_images, degraded, keep_locations
            )
            if store is not None:
                store.record(
                    task.index,
                    self._location_payload(result, n_images, degraded),
                )

    @staticmethod
    def _fold_tally(report: SurveyReport, scope: Tally) -> None:
        """Add one location's tally to the report.

        Imagery fees, retries, cache traffic, LLM windows and cascade
        routing each come from the location's own :class:`~repro.obs.scope.Tally`,
        never from the shared meter, classifiers or cache, so a survey
        that overlaps another (two daemon jobs on one stack) reports
        exactly its own work.
        """
        report.retry_stats.merge(RetryStats.from_dict(scope.section("retry")))
        # One addition per image, in location order: the same float
        # sum a fresh meter accumulates and the daemon's settlement
        # rebuilds from the checkpoint, not images * fee.
        for _ in range(int(scope.get("gsv.images_billed"))):
            report.fees_usd += FEE_PER_IMAGE_USD
        for key, name in _COALESCE_TALLIES.items():
            report.coalesce_stats[key] += int(scope.get(name))
        for name, value in scope.section("cascade").items():
            report.cascade_stats[name] += int(value)
        batch = scope.section("llm.microbatch")
        stats = report.batch_stats
        stats["batches"] += int(batch.get("batches", 0))
        stats["batched_requests"] += int(batch.get("requests", 0))
        stats["max_batch_size"] = max(
            stats["max_batch_size"], int(batch.get("seats", 0))
        )

    # ------------------------------------------------------------------

    def _fetch_location(
        self, index: int, point: SamplePoint
    ) -> list[LabeledImage]:
        """Fetch all headings of one location under the retry policy.

        Attempt 1 of every heading goes out as one
        :meth:`~repro.gsv.api.StreetViewClient.fetch_captures` round,
        gated once by the breaker, so the location pays one imagery
        round trip at any window.  The round feeds the breaker as soon
        as it returns: a success per served seat, then a failure per
        failed one.  Each heading then runs its own retry loop with its
        seat as attempt 1, and later attempts fetch one by one.  The
        first heading that gives up fails the location; the round has
        already served and billed the others (DESIGN.md §8, "Imagery
        batching").
        """
        captures = expand_to_captures([point])
        seats: list = [None] * len(captures)
        breaker = self.gsv_breaker
        if breaker is None or breaker.allow():
            served = self.street_view.fetch_captures(
                captures, render=self.render_pixels
            )
            if breaker is not None:
                failed = sum(seat.exception() is not None for seat in served)
                for _ in range(len(served) - failed):
                    breaker.record_success()
                for _ in range(failed):
                    breaker.record_failure()
            seats = [seat.result for seat in served]
        images: list[LabeledImage] = []
        for offset, (capture, seat) in enumerate(zip(captures, seats)):
            outcome = self.retry_policy.execute(
                lambda capture=capture: self.street_view.fetch_capture(
                    capture, render=self.render_pixels
                ),
                first=seat,
                retryable=(TransientNetworkError,),
                giveup=(StreetViewError,),
                clock=self.clock,
                breaker=self.gsv_breaker,
            )
            served = outcome.result()
            images.append(
                LabeledImage(
                    image_id=f"survey_{index:05d}_{offset}",
                    scene=served.scene,
                    annotations=tuple(
                        (obj.indicator, obj.box)
                        for obj in served.scene.objects
                    ),
                )
            )
        return images

    def _predict_location(
        self, images: Sequence[LabeledImage]
    ) -> tuple[list[IndicatorPresence], int]:
        """Predict one location's images.

        Returns ``(presences, degraded votes)``.
        """
        if self.classifier is not None:
            return self.classifier.predictions(images), 0
        if self.cascade is not None:
            return self.cascade.predict_location(images)
        assert self.ensemble is not None
        records = self.ensemble.resilient_predictions(images)
        return (
            [record.presence for record in records],
            sum(1 for record in records if record.degraded),
        )

    @staticmethod
    def _location_payload(
        result: LocationResult, images: int, degraded: int
    ) -> dict:
        return {
            "latitude": result.latitude,
            "longitude": result.longitude,
            "county": result.county,
            "zone_kind": result.zone_kind,
            "present": sorted(ind.value for ind in result.presence.present),
            "images": images,
            "degraded_votes": degraded,
        }

    @staticmethod
    def _record_result(
        report: SurveyReport,
        result: LocationResult,
        images: int,
        degraded: int,
        keep_locations: bool,
    ) -> None:
        """Fold one completed location into the report.

        The single merge point for both modes: batch/keep retains the
        :class:`LocationResult`, aggregate mode folds its presence
        into the accumulators and drops it.  It is also the single
        metrics tap for completions, which keeps the global books
        reconcilable with the report (see :mod:`repro.obs.audit`).
        """
        metrics = get_metrics()
        metrics.inc("survey.locations.completed")
        metrics.inc("survey.images.classified", images)
        if degraded:
            metrics.inc("survey.votes.degraded", degraded)
        report.images_classified += images
        report.degraded_votes += degraded
        report.completed_locations += 1
        if keep_locations:
            report.locations.append(result)
            return
        assert report.presence_stats is not None
        assert report.zone_stats is not None
        report.presence_stats.update(result.presence)
        zone = report.zone_stats.setdefault(
            result.zone_kind, PresenceAccumulator()
        )
        zone.update(result.presence)

    @classmethod
    def _restore_location(
        cls, report: SurveyReport, payload: dict, keep_locations: bool = True
    ) -> None:
        cls._record_result(
            report,
            location_from_payload(payload),
            payload["images"],
            payload["degraded_votes"],
            keep_locations,
        )


def location_from_payload(payload: dict) -> LocationResult:
    """Rebuild a :class:`LocationResult` from its checkpoint payload.

    The inverse of :meth:`NeighborhoodDecoder._location_payload`,
    used by in-run checkpoint restoration.
    """
    return LocationResult(
        latitude=payload["latitude"],
        longitude=payload["longitude"],
        county=payload["county"],
        zone_kind=payload["zone_kind"],
        presence=IndicatorPresence(
            Indicator.from_string(value) for value in payload["present"]
        ),
    )
