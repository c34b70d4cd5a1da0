"""A survey location's four captures share one imagery dispatch.

At every window ``NeighborhoodDecoder._fetch_location`` sends attempt
1 of every heading through ``StreetViewClient.fetch_captures``, which
pays one round trip for all of them; each heading then retries on its
own.  These tests pin the dispatch shape, that quota admission stays
atomic however many requests wait on the network, the failure-billing
and breaker rules of DESIGN.md §8 ("Imagery batching") and that they
read the same at every window, and that a location still parks at
most one sync call on the thread bridge.
"""

from __future__ import annotations

import asyncio
import sys
import threading
from dataclasses import dataclass, field

import pytest

from repro.core import LLMIndicatorClassifier, NeighborhoodDecoder
from repro.geo import make_durham_like
from repro.geo.sampling import expand_to_captures, plan_survey_points
from repro.gsv import (
    FEE_PER_IMAGE_USD,
    QuotaExceededError,
    StreetViewClient,
    TransientNetworkError,
)
from repro.obs.audit import SERVICE_STAGES, audit_trace
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.trace import Tracer, use_tracer
from repro.parallel import ThreadBridge
from repro.perf import LatencyChatClient
from repro.resilience import (
    CircuitBreaker,
    CircuitState,
    RetryPolicy,
    VirtualClock,
)
from repro.resilience.faults import FaultSchedule
from repro.service import (
    JobSpec,
    JobState,
    ServiceStack,
    SurveyService,
    canonical_fees_usd,
    checkpoint_key,
)

MODEL = "gemini-1.5-pro"


@pytest.fixture(scope="module")
def county():
    return make_durham_like(seed=3)


@pytest.fixture(scope="module")
def captures(county):
    return expand_to_captures(plan_survey_points([county], 1, 0))


def _decoder(county, clients, **kwargs) -> NeighborhoodDecoder:
    street_view = kwargs.pop(
        "street_view", None
    ) or StreetViewClient(counties=[county], api_key="imagery")
    return NeighborhoodDecoder(
        street_view=street_view,
        classifier=LLMIndicatorClassifier(clients[MODEL]),
        **kwargs,
    )


def _cliff_survey(county, clients, heading: int, window: int):
    """A one-location survey whose ``heading`` capture hits a quota cliff.

    Returns the report and the imagery meter.
    """
    schedule = FaultSchedule().burst(
        lambda: QuotaExceededError("cliff"), start=heading + 1, length=1
    )
    street_view = StreetViewClient(
        counties=[county], api_key="giveup", fault_schedule=schedule
    )
    report = _decoder(county, clients, street_view=street_view).survey(
        county, 1, seed=5, max_inflight=window
    )
    return report, street_view.usage()


def _fee(images: int) -> float:
    """``images`` fees summed one by one, as meters and reports do."""
    fees = 0.0
    for _ in range(images):
        fees += FEE_PER_IMAGE_USD
    return fees


class TestFetchCaptures:
    def test_one_round_trip_serves_every_capture(self, county, captures):
        clock = VirtualClock()
        client = StreetViewClient(
            counties=[county], latency_s=0.02, clock=clock
        )
        registry = MetricsRegistry()
        with use_metrics(registry):
            seats = client.fetch_captures(captures, render=False)
        assert clock.sleeps == [0.02]
        assert registry.counter("gsv.round_trips") == 1
        assert registry.counter("gsv.requests") == len(captures)
        alone = StreetViewClient(counties=[county])
        for capture, seat in zip(captures, seats):
            served = seat.result()
            expected = alone.fetch_capture(capture, render=False)
            assert served.pano_id == expected.pano_id
            assert served.scene == expected.scene
        assert client.usage().images_served == len(captures)
        assert client.usage().fees_usd == _fee(len(captures))

    def test_a_refused_capture_keeps_its_neighbours_images(
        self, county, captures
    ):
        schedule = FaultSchedule().burst(
            lambda: TransientNetworkError("503"), start=2, length=1
        )
        client = StreetViewClient(counties=[county], fault_schedule=schedule)
        seats = client.fetch_captures(captures, render=False)
        with pytest.raises(TransientNetworkError):
            seats[1].result()
        assert [seat.exception() is None for seat in seats] == [
            True,
            False,
            True,
            True,
        ]
        assert client.usage().images_served == 3

    def test_a_dispatch_never_serves_past_the_quota(self, county, captures):
        client = StreetViewClient(counties=[county], daily_quota=2)
        seats = client.fetch_captures(captures, render=False)
        served = [seat for seat in seats if seat.exception() is None]
        assert served == seats[:2]
        for seat in seats[2:]:
            assert isinstance(seat.exception(), QuotaExceededError)
        assert client.usage().images_served == 2

    def test_concurrent_fetches_never_overrun_the_quota(
        self, county, captures
    ):
        """Admission reserves a slot before the round trip.

        Eight threads pass the quota check together and then wait on
        the network; only three may be served."""
        client = StreetViewClient(
            counties=[county], daily_quota=3, latency_s=0.02
        )
        start = threading.Barrier(8)
        outcomes: list = [None] * 8

        def fetch(slot: int) -> None:
            start.wait()
            try:
                outcomes[slot] = client.fetch_capture(
                    captures[slot % len(captures)], render=False
                )
            except QuotaExceededError as err:
                outcomes[slot] = err

        threads = [
            threading.Thread(target=fetch, args=(slot,)) for slot in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        refused = [o for o in outcomes if isinstance(o, QuotaExceededError)]
        assert len(refused) == 5
        assert client.usage().images_served == 3

    def test_an_unserved_request_gives_its_slot_back(self, county, captures):
        schedule = FaultSchedule().burst(
            lambda: TransientNetworkError("503"), start=1, length=1
        )
        client = StreetViewClient(
            counties=[county], daily_quota=1, fault_schedule=schedule
        )
        with pytest.raises(TransientNetworkError):
            client.fetch_capture(captures[0], render=False)
        client.fetch_capture(captures[0], render=False)
        with pytest.raises(QuotaExceededError):
            client.fetch_capture(captures[1], render=False)
        assert client.usage().images_served == 1


class TestLocationDispatch:
    def test_every_window_pays_one_round_trip_per_location(
        self, county, clients
    ):
        reports = {}
        for window in (1, 2):
            registry = MetricsRegistry()
            with use_metrics(registry):
                reports[window] = _decoder(county, clients).survey(
                    county, 4, seed=5, max_inflight=window
                )
            counters = reports[window].metrics["counters"]
            assert counters["gsv.round_trips"] == 4
            assert counters["gsv.requests"] == 16
        assert reports[2].to_json() == reports[1].to_json()

    @pytest.mark.parametrize("heading", range(4))
    def test_a_give_up_bills_what_the_dispatch_served(
        self, county, clients, heading
    ):
        """The location fails at ``heading``, but its round already
        served and billed the other three headings: the report's fees
        still equal the meter's, because the failed location's tally
        travels on its error."""
        serial, serial_meter = _cliff_survey(county, clients, heading, 1)
        report, meter = _cliff_survey(county, clients, heading, 2)
        assert serial_meter.images_served == 3
        assert meter.images_served == 3
        for got, usage in ((report, meter), (serial, serial_meter)):
            assert got.completed_locations == 0
            (failed,) = got.failed_locations
            assert failed.reason.startswith("QuotaExceededError")
            assert got.fees_usd == usage.fees_usd
        # Same headings consumed, same fault handling recorded.
        assert report.retry_stats.as_dict() == serial.retry_stats.as_dict()
        assert report.retry_stats.operations == heading + 1

    @pytest.mark.parametrize("heading", range(4))
    def test_a_give_up_reports_the_same_bytes_at_every_window(
        self, county, clients, heading
    ):
        """Under one fault script the payload, fees included, does not
        depend on the window: every window sends the same round."""
        runs = {
            window: _cliff_survey(county, clients, heading, window)
            for window in (1, 2, 8)
        }
        payloads = {report.to_json() for report, _ in runs.values()}
        assert len(payloads) == 1
        for report, meter in runs.values():
            assert meter.images_served == 3
            assert report.fees_usd == _fee(3)

    @pytest.mark.parametrize("heading", range(4))
    def test_daemon_settles_the_checkpoint_after_a_give_up(
        self, clients, tmp_path, heading
    ):
        """Two locations at window 2; the first dispatch gives up at
        ``heading``.  The report's fees match the meter (both count the
        failed location's three served images), and settlement is the
        canonical fee of the checkpoint (the completed location only)."""
        schedule = FaultSchedule().burst(
            lambda: QuotaExceededError("cliff"), start=heading + 1, length=1
        )
        spec = JobSpec(tenant="acme", n_locations=2, seed=8, max_inflight=2)

        async def session():
            stack = ServiceStack(
                clients=clients, clock=VirtualClock(), fault_schedule=schedule
            )
            meter = stack.usage()
            async with SurveyService(stack, tmp_path / "state") as service:
                job_id = await service.submit(spec)
                await service.run_until_idle()
                record = await service.status(job_id)
                report = await service.result(job_id)
                key = checkpoint_key(spec, stack.county(spec.county_seed).name)
                canonical = canonical_fees_usd(
                    service.store.checkpoint_path(job_id), key
                )
            return record, report, canonical, meter

        record, report, canonical, meter = asyncio.run(session())
        assert record.state is JobState.DONE
        assert len(report["failed_locations"]) == 1
        assert meter.images_served == 7
        assert report["fees_usd"] == round(meter.fees_usd, 9)
        assert record.fees_settled_usd == canonical == round(_fee(4), 9)


@dataclass
class _WatchedBreaker(CircuitBreaker):
    """Records the state each success found the circuit in."""

    successes: list = field(default_factory=list)

    def record_success(self) -> None:
        self.successes.append(self.state)
        super().record_success()


class TestBreaker:
    def _breaker(self) -> _WatchedBreaker:
        return _WatchedBreaker(
            name="gsv",
            failure_threshold=1,
            recovery_time_s=30.0,
            clock=VirtualClock(),
        )

    def test_a_breaker_that_opens_after_dispatch_drops_no_served_seat(
        self, county, clients
    ):
        """Another location's failure trips the breaker while this
        location's dispatch is in flight.  Its seats were served and
        paid for: each is still read, and each feeds the breaker."""
        breaker = self._breaker()
        decoder = _decoder(county, clients, gsv_breaker=breaker)
        street_view = decoder.street_view
        dispatch = street_view.fetch_captures

        def trip_after_dispatch(captures, **kwargs):
            seats = dispatch(captures, **kwargs)
            breaker.record_failure()
            return seats

        street_view.fetch_captures = trip_after_dispatch
        report = decoder.survey(county, 1, seed=5, max_inflight=2)
        assert report.completed_locations == 1
        assert report.retry_stats.breaker_blocks == 0
        assert street_view.usage().images_served == 4
        assert len(breaker.successes) == 4
        assert breaker.successes[0] is CircuitState.OPEN
        assert breaker.state is CircuitState.CLOSED

    def test_an_open_breaker_gates_the_dispatch_once(self, county, clients):
        breaker = self._breaker()
        breaker.record_failure()
        reports = {}
        for window in (1, 2):
            decoder = _decoder(county, clients, gsv_breaker=breaker)
            reports[window] = decoder.survey(
                county, 1, seed=5, max_inflight=window
            )
            assert decoder.street_view.usage().images_served == 0
        assert reports[2].to_json() == reports[1].to_json()
        assert reports[2].retry_stats.breaker_blocks == 1
        (failed,) = reports[2].failed_locations
        assert failed.reason.startswith("CircuitOpenError")

    @pytest.mark.parametrize("window", [1, 2])
    def test_a_round_feeds_the_breaker_at_dispatch(
        self, county, clients, window
    ):
        """A hard-down endpoint behind a breaker: each round books its
        failed seats as soon as it returns, so the breaker opens after
        the first round; only rounds already in flight by then (at most
        ``window - 1`` other locations) reach the endpoint."""
        schedule = FaultSchedule().after(
            TransientNetworkError("regional outage"), start=1
        )
        clock = VirtualClock()
        breaker = CircuitBreaker(
            name="gsv", failure_threshold=4, recovery_time_s=1e9, clock=clock
        )
        decoder = _decoder(
            county,
            clients,
            street_view=StreetViewClient(
                counties=[county], api_key="down", fault_schedule=schedule
            ),
            retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.1),
            gsv_breaker=breaker,
            clock=clock,
        )
        report = decoder.survey(county, 10, seed=0, max_inflight=window)
        assert len(report.failed_locations) == 10
        assert breaker.state is CircuitState.OPEN
        assert schedule.calls <= breaker.failure_threshold + (window - 1) * 4
        assert report.retry_stats.breaker_blocks > 0

    def test_a_failing_seat_trips_the_breaker_for_its_retry(
        self, county, clients
    ):
        schedule = FaultSchedule().burst(
            lambda: TransientNetworkError("503"), start=3, length=1
        )
        breaker = self._breaker()
        street_view = StreetViewClient(
            counties=[county], api_key="trip", fault_schedule=schedule
        )
        decoder = _decoder(
            county,
            clients,
            street_view=street_view,
            gsv_breaker=breaker,
            retry_policy=RetryPolicy(base_delay_s=0.0),
        )
        report = decoder.survey(county, 1, seed=5, max_inflight=2)
        (failed,) = report.failed_locations
        assert failed.reason.startswith("CircuitOpenError")
        assert report.retry_stats.breaker_blocks == 1
        assert breaker.state is CircuitState.OPEN
        assert report.fees_usd == street_view.usage().fees_usd == _fee(3)


class _TracingBridge(ThreadBridge):
    """A bridge that counts the sync calls running on it at once.

    Its pool is wider than the budget it advertises, so only the
    engine's and the daemon's own rules keep the count within it.
    """

    def __init__(self, budget: int) -> None:
        super().__init__(max_threads=2 * budget)
        self.max_threads = budget
        self._lock = threading.Lock()
        self.running = 0
        self.peak = 0

    async def run(self, fn, *args):
        def counted():
            with self._lock:
                self.running += 1
                self.peak = max(self.peak, self.running)
            try:
                return fn(*args)
            finally:
                with self._lock:
                    self.running -= 1

        return await super().run(counted)


def _assert_fetch_spans_nest(tracer: Tracer, n_locations: int) -> None:
    spans = tracer.spans
    locations = {s.span_id for s in spans if s.name == "survey.location"}
    fetches = {s.span_id for s in spans if s.name == "gsv.fetch"}
    renders = [s for s in spans if s.name == "gsv.render"]
    assert len(fetches) == len(renders) == 4 * n_locations
    assert all(
        s.parent_id in locations for s in spans if s.name == "gsv.fetch"
    )
    assert all(s.parent_id in fetches for s in renders)


class TestThreadBudget:
    @pytest.mark.parametrize("window", [2, 4])
    def test_a_survey_parks_at_most_its_window_on_the_bridge(
        self, county, clients, window
    ):
        street_view = StreetViewClient(
            counties=[county], api_key="budget", latency_s=0.01
        )
        decoder = NeighborhoodDecoder(
            street_view=street_view,
            classifier=LLMIndicatorClassifier(
                LatencyChatClient(clients[MODEL], latency_s=0.01)
            ),
            render_pixels=True,
        )
        tracer = Tracer(trace_id="budget")

        async def survey():
            with _TracingBridge(budget=window) as bridge:
                report = await decoder.survey_async(
                    county, 8, seed=2, max_inflight=window, bridge=bridge
                )
            return report, bridge.peak

        with use_tracer(tracer), use_metrics(MetricsRegistry()):
            report, peak = asyncio.run(survey())
        assert report.completed_locations == 8
        assert 2 <= peak <= window
        # The engine's stages (a single-classifier survey casts no votes).
        assert audit_trace(tracer, SERVICE_STAGES[1:]) == []
        _assert_fetch_spans_nest(tracer, 8)

    def test_concurrent_daemon_jobs_stay_within_the_bridge(
        self, clients, tmp_path
    ):
        budget = 4
        specs = [
            JobSpec(tenant=tenant, n_locations=4, seed=seed, max_inflight=2)
            for tenant, seed in (("acme", 1), ("beta", 2), ("acme", 3))
        ]

        async def session():
            stack = ServiceStack(clients=clients, gsv_latency_s=0.01)
            stack.bridge.close()
            stack.bridge = _TracingBridge(budget=budget)
            stack.decoder("survey", specs[0].county_seed).render_pixels = True
            async with SurveyService(stack, tmp_path / "state") as service:
                ids = [await service.submit(spec) for spec in specs]
                await service.run_until_idle()
                records = [await service.status(job_id) for job_id in ids]
                books = [service.observability[job_id] for job_id in ids]
                return records, books, service.peak_running, stack.bridge.peak

        records, books, peak_running, peak = asyncio.run(session())
        assert [r.state for r in records] == [JobState.DONE] * len(specs)
        assert peak_running == 2
        assert peak <= budget
        for book in books:
            assert book["audit_trace"] == []
            assert audit_trace(book["tracer"], SERVICE_STAGES) == []
            _assert_fetch_spans_nest(book["tracer"], 4)

