"""Simulated Google Street View Static API.

The paper accessed GSV imagery "lawfully through an API fee": each
request names a location, a heading, and an image size, and is billed
per image.  This module reproduces that request surface against the
synthetic world — the response pixels come from the procedural scene
generator and rasterizer instead of Google's servers.

The client enforces the behaviours downstream code must survive in
production: API-key validation, per-key daily quotas, transient
transport failures (for retry-path testing), fee metering, and
metadata lookups that report whether imagery exists at a location.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from ..geo.coordinates import CARDINAL_HEADINGS, LatLon, normalize_heading
from ..obs.metrics import get_metrics
from ..obs.scope import tally
from ..obs.trace import get_tracer
from ..geo.county import County
from ..geo.roadnet import RoadClass
from ..geo.sampling import CaptureRequest, SamplePoint
from ..resilience.clock import Clock, WallClock
from ..resilience.faults import FaultSchedule
from ..scene.generator import SceneGenerator
from ..scene.model import Scene
from ..scene.render import DEFAULT_SIZE, render_scene
from ..scene.seeding import stable_seed


class StreetViewError(Exception):
    """Base class for simulated GSV API failures."""


class AuthenticationError(StreetViewError):
    """Missing or invalid API key."""


class QuotaExceededError(StreetViewError):
    """The key's daily request quota is exhausted."""


class TransientNetworkError(StreetViewError):
    """A retryable transport failure (HTTP 5xx / timeout analog)."""


class NoImageryError(StreetViewError):
    """No street-view imagery exists at the requested location."""


#: Billing rate mirroring the GSV Static API price sheet (USD/image).
FEE_PER_IMAGE_USD = 0.007


@dataclass(frozen=True)
class StreetViewImage:
    """One successfully served street-view capture."""

    location: LatLon
    heading: int
    size: int
    pixels: np.ndarray | None
    scene: Scene
    pano_id: str

    def require_pixels(self) -> np.ndarray:
        """Pixels, rendering on demand if the fetch deferred them."""
        if self.pixels is not None:
            return self.pixels
        return render_scene(self.scene, self.size)


@dataclass
class StageUsage:
    """One labeled bucket of metered usage (requests/fees/tokens)."""

    requests: int = 0
    images: int = 0
    fees_usd: float = 0.0
    prompt_tokens: int = 0
    completion_tokens: int = 0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "images": self.images,
            "fees_usd": round(self.fees_usd, 9),
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
        }


#: Stage label for plain imagery billing (the only stage GSV itself
#: records; cascade tiers add their own labels on their own meters).
IMAGERY_STAGE = "imagery"


@dataclass
class UsageMeter:
    """Tracks request counts and accumulated fees for one API key.

    Metering is lock-guarded: parallel surveys hit one meter from
    every worker, and billing must not lose increments to races.

    Usage additionally lands in per-stage labeled buckets
    (``stages``): previously every consumer's spend collapsed into one
    undifferentiated pot, so a frontier table could not attribute fees
    to detector vs LLM vs ensemble tiers, and
    :func:`repro.obs.audit.reconcile_survey` had nothing to reconcile
    the split against.  The headline totals (``requests`` /
    ``images_served`` / ``fees_usd``) remain the sum over imagery
    exactly as before — stage buckets are attribution, not new billing.

    Each billed image is also tallied (``gsv.images_billed``) into the
    caller's :class:`~repro.obs.scope.Tally`: the per-location bill a
    survey report sums, however many surveys share the meter.

    Quota admission is a reservation on the same lock: a request holds
    a slot (:meth:`reserve`) before its round trip and either bills it
    (:meth:`record_image`) or gives it back (:meth:`release`), so
    images served plus slots in flight never exceed a key's quota,
    however many fetches wait on the network at once.
    """

    requests: int = 0
    images_served: int = 0
    fees_usd: float = 0.0
    stages: dict[str, StageUsage] = field(default_factory=dict)
    _held: int = field(default=0, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(
        init=False, repr=False, compare=False, default_factory=threading.Lock
    )

    def reserve(self, quota: int | None) -> bool:
        """Hold one image slot under ``quota`` (``None`` = unlimited).

        Returns ``False``, holding nothing, when served images plus
        held slots already reach the quota.
        """
        with self._lock:
            if quota is not None and self.images_served + self._held >= quota:
                return False
            self._held += 1
            return True

    def release(self) -> None:
        """Give back a slot :meth:`reserve` held for an unserved request."""
        with self._lock:
            self._held -= 1

    def record_image(self, stage: str = IMAGERY_STAGE) -> None:
        """Bill one served image against the slot :meth:`reserve` held."""
        with self._lock:
            self._held -= 1
            self.requests += 1
            self.images_served += 1
            self.fees_usd += FEE_PER_IMAGE_USD
            bucket = self.stages.setdefault(stage, StageUsage())
            bucket.requests += 1
            bucket.images += 1
            bucket.fees_usd += FEE_PER_IMAGE_USD
        tally("gsv.images_billed")

    def record_metadata(self) -> None:
        # Metadata requests are free, matching the real API.
        with self._lock:
            self.requests += 1

    def record_stage(
        self,
        stage: str,
        *,
        requests: int = 0,
        images: int = 0,
        fees_usd: float = 0.0,
        prompt_tokens: int = 0,
        completion_tokens: int = 0,
    ) -> None:
        """Book non-imagery usage into a labeled stage bucket.

        Used by the cascade router to attribute per-tier LLM fees and
        tokens; stage fees never touch ``fees_usd`` (which remains the
        imagery bill the survey report carries).
        """
        with self._lock:
            bucket = self.stages.setdefault(stage, StageUsage())
            bucket.requests += requests
            bucket.images += images
            bucket.fees_usd += fees_usd
            bucket.prompt_tokens += prompt_tokens
            bucket.completion_tokens += completion_tokens

    def stage_totals(self) -> dict[str, dict]:
        """JSON-ready snapshot of the stage buckets, sorted by label."""
        with self._lock:
            return {
                stage: self.stages[stage].as_dict()
                for stage in sorted(self.stages)
            }


@dataclass
class StreetViewClient:
    """Simulated GSV Static API client bound to a synthetic world.

    Parameters
    ----------
    counties:
        The synthetic counties with imagery coverage.
    api_key:
        Any non-empty string is a valid key; each key has its own
        quota and usage meter.
    daily_quota:
        Maximum billable images per key (``None`` = unlimited).
    failure_rate:
        Probability that a request raises ``TransientNetworkError``
        before being served; exercises caller retry logic.
    fault_schedule:
        Optional scripted faults (deterministic bursts, sustained
        outages, quota cliffs) consulted before ``failure_rate``; see
        :class:`~repro.resilience.faults.FaultSchedule`.
    generator_seed:
        Seed for the procedural world behind the camera.
    latency_s:
        Simulated transport latency of one dispatch, slept through
        ``clock`` after admission and before anything is served.
        Models the network round trip of the real Static API.
        :meth:`fetch` pays it once per request; :meth:`fetch_captures`
        pays it once for all the captures it admitted, which is how a
        pipelined survey fetches a location's four headings in one
        round trip.  A refused request (key, quota, fault) fails
        before the wait and pays none.
    """

    counties: list[County]
    api_key: str = "test-key"
    daily_quota: int | None = None
    failure_rate: float = 0.0
    fault_schedule: FaultSchedule | None = None
    generator_seed: int = 0
    latency_s: float = 0.0
    clock: Clock = field(default_factory=WallClock)
    _meters: dict[str, UsageMeter] = field(default_factory=dict)
    _generator: SceneGenerator = field(init=False)
    _failure_rng: np.random.Generator = field(init=False)
    _fault_lock: threading.Lock = field(
        init=False, repr=False, compare=False, default_factory=threading.Lock
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_rate < 1.0:
            raise ValueError(f"failure rate out of range: {self.failure_rate}")
        if self.latency_s < 0:
            raise ValueError(f"latency must be non-negative: {self.latency_s}")
        self._generator = SceneGenerator(seed=self.generator_seed)
        self._failure_rng = np.random.default_rng(
            stable_seed("gsv-failures", self.generator_seed)
        )

    # ------------------------------------------------------------------

    def usage(self, api_key: str | None = None) -> UsageMeter:
        """The usage meter for a key (default: the client's own key)."""
        key = api_key if api_key is not None else self.api_key
        return self._meters.setdefault(key, UsageMeter())

    def metadata(self, location: LatLon) -> dict:
        """Free metadata lookup: is imagery available here?

        Mirrors the GSV metadata endpoint's ``status`` field.
        """
        self._check_key()
        self.usage().record_metadata()
        county = self._county_for(location)
        if county is None:
            return {"status": "ZERO_RESULTS"}
        return {
            "status": "OK",
            "copyright": "© synthetic imagery",
            "location": {"lat": location.lat, "lng": location.lon},
        }

    def fetch(
        self,
        location: LatLon,
        heading: int,
        size: int = DEFAULT_SIZE,
        road_class: RoadClass = RoadClass.LOCAL,
        road_bearing: float | None = None,
        render: bool = True,
    ) -> StreetViewImage:
        """Serve one street-view image.

        ``road_class``/``road_bearing`` describe the roadway the
        camera stands on; when fetching from a sampling frame prefer
        :meth:`fetch_capture`, which carries them automatically.
        With ``render=False`` the response defers rasterization (the
        scene and billing are identical; call ``require_pixels`` when
        the pixels are actually needed).
        """
        (seat,) = self._dispatch(
            [(location, heading, road_class, road_bearing)], size, render
        )
        return seat.result()

    def fetch_capture(
        self,
        capture: CaptureRequest,
        size: int = DEFAULT_SIZE,
        render: bool = True,
    ) -> StreetViewImage:
        """Serve the image for a sampling-frame capture request."""
        point: SamplePoint = capture.point
        return self.fetch(
            location=point.location,
            heading=capture.heading,
            size=size,
            road_class=point.road_class,
            road_bearing=point.road_bearing,
            render=render,
        )

    def fetch_captures(
        self,
        captures: Sequence[CaptureRequest],
        size: int = DEFAULT_SIZE,
        render: bool = True,
    ) -> list[Future]:
        """Serve ``captures`` as one dispatch that pays one round trip.

        Each capture's key, quota and fault checks run in order, as
        :meth:`fetch_capture` runs them; the admitted captures then
        share one ``latency_s`` wait and are served and billed in
        order.  Returns one finished :class:`~concurrent.futures.Future`
        per capture: ``result()`` gives its image or raises its own
        error, so a refused capture never costs the others theirs.
        """
        return self._dispatch(
            [
                (
                    capture.point.location,
                    capture.heading,
                    capture.point.road_class,
                    capture.point.road_bearing,
                )
                for capture in captures
            ],
            size,
            render,
        )

    # ------------------------------------------------------------------

    def _dispatch(
        self,
        requests: Sequence[tuple[LatLon, int, RoadClass, float | None]],
        size: int,
        render: bool,
    ) -> list[Future]:
        """Admit, wait once, then serve: the one request path.

        Every ``(location, heading, road_class, road_bearing)`` request
        passes the key, quota and fault checks in order, under the
        fault lock: the fault schedule and the failure RNG are shared
        by every worker, and one dispatch draws its faults as one
        contiguous run.  An admitted request holds a quota slot until
        it is billed or released.  If any request was admitted, the
        dispatch pays one round trip, timed inside the first admitted
        request's ``gsv.fetch`` span, so the spans' summed wall time
        stays the imagery time.  Each request gets its own span and a
        finished seat holding its image or its own error.
        """
        metrics = get_metrics()
        meter = self.usage()
        refusals: list[Exception | None] = []
        with self._fault_lock:
            for _ in requests:
                metrics.inc("gsv.requests")
                try:
                    self._check_key()
                    if not meter.reserve(self.daily_quota):
                        raise QuotaExceededError(
                            f"daily quota of {self.daily_quota} images "
                            f"exhausted"
                        )
                    try:
                        self._maybe_fail()
                    except Exception:
                        meter.release()
                        raise
                except Exception as err:  # noqa: BLE001 - per request
                    refusals.append(err)
                else:
                    refusals.append(None)

        tracer = get_tracer()
        waiting = any(refusal is None for refusal in refusals)
        seats: list[Future] = []
        for request, refusal in zip(requests, refusals):
            seat: Future = Future()
            seats.append(seat)
            try:
                with tracer.span(
                    "gsv.fetch",
                    heading=request[1],
                    render=render,
                    batch=len(requests),
                ) as span:
                    if refusal is not None:
                        raise refusal
                    if waiting:
                        metrics.inc("gsv.round_trips")
                        if self.latency_s > 0:
                            self.clock.sleep(self.latency_s)
                        waiting = False
                    seat.set_result(self._serve(span, *request, size, render))
            except Exception as err:  # noqa: BLE001 - re-raised per seat
                seat.set_exception(err)
        return seats

    def _serve(
        self,
        span,
        location: LatLon,
        heading: int,
        road_class: RoadClass,
        road_bearing: float | None,
        size: int,
        render: bool,
    ) -> StreetViewImage:
        """Answer one admitted request and bill the quota slot it holds."""
        metrics = get_metrics()
        try:
            heading = int(normalize_heading(heading))
            if heading not in CARDINAL_HEADINGS:
                raise ValueError(
                    f"heading must be one of {CARDINAL_HEADINGS}: {heading}"
                )
            county = self._county_for(location)
            if county is None:
                raise NoImageryError(
                    f"no imagery at ({location.lat:.5f}, {location.lon:.5f})"
                )
            zone = county.zone_at(location)
            pano_id = self._pano_id(location, heading)
            span.set(pano_id=pano_id)
            scene = self._generator.generate(
                scene_id=pano_id,
                zone_kind=zone.kind,
                road_class=road_class,
                heading=heading,
                road_bearing=(
                    road_bearing
                    if road_bearing is not None
                    else float(heading)
                ),
                county=county.name,
                latitude=location.lat,
                longitude=location.lon,
            )
            if not render:
                pixels = None
            else:
                with get_tracer().span("gsv.render", size=size):
                    metrics.inc("gsv.renders")
                    pixels = render_scene(scene, size)
        except BaseException:
            self.usage().release()
            raise
        self.usage().record_image()
        metrics.inc("gsv.images_served")
        return StreetViewImage(
            location=location,
            heading=heading,
            size=size,
            pixels=pixels,
            scene=scene,
            pano_id=pano_id,
        )

    def _check_key(self) -> None:
        if not self.api_key or not self.api_key.strip():
            raise AuthenticationError("missing API key")

    def _maybe_fail(self) -> None:
        # Both the fault schedule and the failure RNG are stateful and
        # shared by every worker; the caller holds the fault lock.
        if self.fault_schedule is not None:
            self.fault_schedule.check()
        if (
            self.failure_rate > 0
            and self._failure_rng.random() < self.failure_rate
        ):
            get_metrics().inc("gsv.transient_failures")
            raise TransientNetworkError("simulated transport failure")

    #: Imagery coverage extends slightly past the county rectangle —
    #: road-network jitter can push boundary nodes just outside it.
    _COVERAGE_MARGIN_DEG = 0.03

    def _county_for(self, location: LatLon) -> County | None:
        margin = self._COVERAGE_MARGIN_DEG
        for county in self.counties:
            if (
                county.south - margin <= location.lat <= county.north + margin
                and county.west - margin <= location.lon <= county.east + margin
            ):
                return county
        return None

    @staticmethod
    def _pano_id(location: LatLon, heading: int) -> str:
        return (
            f"pano_{location.lat:.6f}_{location.lon:.6f}_{heading:03d}"
        )
