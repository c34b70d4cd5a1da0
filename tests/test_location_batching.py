"""A survey location's images share one batched LLM dispatch.

``LLMIndicatorClassifier.classify`` sends the images it is given (a
survey location's captures, at every window) as one
:func:`~repro.llm.base.complete_seats` window; each image then retries
on its own, straight to the client, as does every lone request
(``classify_image``, ensemble and cascade member calls).  These tests
pin the dispatch shape, that it changes nothing a report or an outcome
records, and that a window failing part-way never re-bills the seats
it already served.
"""

from __future__ import annotations

import asyncio
import contextvars
import threading

import pytest

from repro.core import ClassifierConfig, LLMIndicatorClassifier, NeighborhoodDecoder
from repro.core.indicators import Indicator
from repro.core.voting import VotingEnsemble
from repro.geo import make_durham_like
from repro.gsv import StreetViewClient
from repro.llm import (
    BatchError,
    ChatClient,
    ChatResponse,
    ServerError,
    UnsentError,
    Usage,
)
from repro.llm.base import complete_seats
from repro.llm.batch import TokenBucket
from repro.llm.cache import CachingChatClient, _Flight, request_fingerprint
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.scope import Tally, use_tally
from repro.perf import LatencyChatClient
from repro.resilience.faults import FaultSchedule, FaultyChatClient
from repro.service import RateLimitedChatClient

MODEL = "gemini-1.5-pro"


def _billed(client: ChatClient) -> tuple[int, int, int]:
    stats = client.stats
    return stats.requests, stats.prompt_tokens, stats.completion_tokens


def _fails_on_call(clients, call: int) -> FaultyChatClient:
    """The model behind a scheduled 503 on its ``call``-th request."""
    schedule = FaultSchedule().burst(
        lambda: ServerError("503"), start=call, length=1
    )
    return FaultyChatClient(clients[MODEL], schedule)


class _GarbleOnce(ChatClient):
    """Answers the first request about one scene with an unparseable reply."""

    def __init__(self, inner: ChatClient, scene_id: str) -> None:
        super().__init__(inner.model_name)
        self.inner = inner
        self.scene_id = scene_id
        self.garbled = False

    def complete(self, request):
        response = self.inner.complete(request)
        self.stats.record(response.usage)
        if request.images[0].image_id == self.scene_id and not self.garbled:
            self.garbled = True
            return ChatResponse(
                model=response.model,
                content="I think maybe?",
                usage=response.usage,
            )
        return response


class _Counting(ChatClient):
    """Forwards to ``inner``, logging which entry point each call used."""

    def __init__(self, inner: ChatClient) -> None:
        super().__init__(inner.model_name)
        self.inner = inner
        self.calls: list[str] = []

    def complete(self, request):
        self.calls.append("complete")
        response = self.inner.complete(request)
        self.stats.record(response.usage)
        return response

    def complete_batch(self, requests):
        self.calls.append("complete_batch")
        return super().complete_batch(requests)


class TestLocationDispatch:
    @pytest.fixture(scope="class")
    def county(self):
        return make_durham_like(seed=3)

    def _decoder(self, county, clients) -> NeighborhoodDecoder:
        return NeighborhoodDecoder(
            street_view=StreetViewClient(counties=[county], api_key="batch"),
            classifier=LLMIndicatorClassifier(
                CachingChatClient(clients[MODEL])
            ),
        )

    def test_window_two_sends_each_location_in_one_dispatch(
        self, county, clients
    ):
        serial = asyncio.run(
            self._decoder(county, clients).survey_async(
                county, 4, seed=5, max_inflight=1
            )
        )
        report = asyncio.run(
            self._decoder(county, clients).survey_async(
                county, 4, seed=5, max_inflight=2
            )
        )
        stats = report.batch_stats
        # Wider than the window of 2: the location's four captures went
        # out together.
        assert stats["max_batch_size"] >= 4
        assert stats["batched_requests"] == report.images_classified
        assert stats["batches"] == 4
        # Window 1 sends each location the same way.
        assert serial.batch_stats == stats
        assert report.to_json() == serial.to_json()

    def test_parse_failure_retries_only_that_image(
        self, clients, small_dataset
    ):
        images = small_dataset.images[:4]
        target = images[2].scene.scene_id

        serial = LLMIndicatorClassifier(
            _GarbleOnce(clients[MODEL], target)
        )
        expected = [serial.classify_image(image) for image in images]

        garbling = _GarbleOnce(clients[MODEL], target)
        batched = LLMIndicatorClassifier(garbling)
        with use_tally(Tally()) as scope:
            outcomes = batched.classify(images)

        assert [o.attempts for o in outcomes] == [1, 1, 2, 1]
        for got, want in zip(outcomes, expected):
            assert got.attempts == want.attempts
            assert got.usage == want.usage
            assert got.presence == want.presence
            assert got.raw_response == want.raw_response
        assert batched.retry_stats.as_dict() == serial.retry_stats.as_dict()
        # One window for the location; the image's retry went straight
        # to the client.
        assert scope.section("llm.microbatch") == {
            "batches": 1,
            "requests": 4,
            "seats": 4,
        }
        assert _billed(garbling) == _billed(serial.client)

    @pytest.mark.parametrize("indicators", [(), (Indicator.SIDEWALK,)])
    def test_bad_indicator_set_raises_before_any_request(
        self, clients, small_dataset, indicators
    ):
        upstream = FaultyChatClient(clients[MODEL], FaultSchedule())
        classifier = LLMIndicatorClassifier(
            upstream,
            ClassifierConfig(indicators=(Indicator.POWERLINE,)),
        )
        with use_tally(Tally()) as scope, pytest.raises(ValueError):
            classifier.classify(small_dataset.images[:4], indicators=indicators)
        assert upstream.schedule.calls == 0
        assert _billed(upstream) == (0, 0, 0)
        assert scope.section("llm.microbatch") == {}

    def test_ensemble_members_go_straight_to_their_clients(
        self, county, clients
    ):
        """Every member call is a lone request: no window at any width."""

        def survey(max_inflight):
            members = {
                name: _Counting(clients[name])
                for name in ("gemini-1.5-pro", "claude-3.7", "gpt-4o-mini")
            }
            decoder = NeighborhoodDecoder(
                street_view=StreetViewClient(counties=[county], api_key="e"),
                ensemble=VotingEnsemble(
                    classifiers={
                        name: LLMIndicatorClassifier(client)
                        for name, client in members.items()
                    }
                ),
            )
            report = decoder.survey(
                county, n_locations=4, seed=5, max_inflight=max_inflight
            )
            return report, members

        serial, _ = survey(1)
        report, members = survey(2)
        for client in members.values():
            assert client.calls
            assert set(client.calls) == {"complete"}
        assert report.batch_stats["batches"] == 0
        assert report.to_json() == serial.to_json()


@pytest.mark.parametrize("cached", [False, True], ids=["bare", "cached"])
def test_failed_window_bills_each_request_once(clients, small_dataset, cached):
    """A 503 mid-window keeps the answers the window already served.

    One location's four images go out as one window; the third
    upstream call fails.  The two seats served before it keep their
    answers, and only the failed and unsent seats retry, so the model
    bills exactly what the one-by-one path bills.
    """
    images = small_dataset.images[:4]

    def classifier_over(upstream):
        client = CachingChatClient(upstream) if cached else upstream
        return LLMIndicatorClassifier(client)

    serial_upstream = _fails_on_call(clients, 3)
    serial = classifier_over(serial_upstream)
    expected = [serial.classify_image(image) for image in images]

    upstream = _fails_on_call(clients, 3)
    classifier = classifier_over(upstream)
    with use_tally(Tally()) as scope:
        outcomes = classifier.classify(images)

    assert scope.get("llm.microbatch.seats") == len(images)
    assert upstream.schedule.injected == 1
    assert _billed(upstream) == _billed(serial_upstream)
    assert [outcome.presence for outcome in outcomes] == [
        outcome.presence for outcome in expected
    ]
    if cached:
        assert len(classifier.client) == len(images)
        assert not classifier.client._inflight


@pytest.mark.parametrize("cached", [False, True], ids=["bare", "cached"])
def test_unsent_seats_do_not_burn_a_retry(clients, small_dataset, cached):
    """Seats behind a window's failure were never sent: no attempt spent.

    Twenty images go out as one window and upstream call 2 fails, so
    the window stops there: one seat served, one failed, eighteen
    unsent.  The failed seat retries once; each unsent one is sent
    fresh as its attempt 1.  That is 21 upstream calls and exactly one
    retry, with the one-by-one path's answers.
    """
    images = small_dataset.images[:20]
    upstream = _fails_on_call(clients, 2)
    client = CachingChatClient(upstream) if cached else upstream
    classifier = LLMIndicatorClassifier(client)
    outcomes = classifier.classify(images)

    assert upstream.schedule.calls == 21
    assert upstream.schedule.injected == 1
    assert classifier.retry_stats.retries == 1
    assert classifier.retry_stats.attempts == 21
    assert [outcome.attempts for outcome in outcomes] == [1, 2] + [1] * 18
    serial = LLMIndicatorClassifier(clients[MODEL])
    assert [outcome.presence for outcome in outcomes] == [
        serial.classify_image(image).presence for image in images
    ]
    if cached:
        assert not client._inflight and client.coalesced == 0


def test_a_follower_of_an_unsent_flight_sends_it_itself(
    clients, small_dataset
):
    """A lone request waiting on a flight its window never sent leads it."""
    classifier = LLMIndicatorClassifier(clients[MODEL])
    request = classifier._request(
        small_dataset.images[0], classifier.config.indicators
    )

    class _Watched(threading.Event):
        """An event that reports when somebody starts waiting on it."""

        def __init__(self):
            super().__init__()
            self.waiting = threading.Event()

        def wait(self, timeout=None):
            self.waiting.set()
            return super().wait(timeout)

    cache = CachingChatClient(clients[MODEL])
    key = request_fingerprint(request)
    flight = _Flight()
    flight.done = _Watched()
    cache._inflight[key] = flight
    answer = []
    follower = threading.Thread(
        target=contextvars.copy_context().run,
        args=(lambda: answer.append(cache.complete(request)),),
    )
    follower.start()
    assert flight.done.waiting.wait(timeout=10)  # it follows the flight
    cache._resolve_flight(
        key, flight, error=UnsentError(ServerError("503"))
    )
    follower.join(timeout=10)
    assert not follower.is_alive()
    assert answer == [clients[MODEL].complete(request)]
    assert cache.misses == 1 and cache.coalesced == 0
    assert not cache._inflight


class _PartialUpstream(ChatClient):
    """Serves the first request of a batch, then fails."""

    def complete(self, request):
        raise AssertionError("batched path only")

    def complete_batch(self, requests):
        served = ChatResponse(self.model_name, "ok", Usage(1, 1))
        error = ServerError("503")
        raise BatchError([served, *[error] * (len(requests) - 1)])


def test_cache_keeps_served_seats_and_releases_failed_flights(
    clients, small_dataset
):
    classifier = LLMIndicatorClassifier(clients[MODEL])
    requests = [
        classifier._request(image, classifier.config.indicators)
        for image in small_dataset.images[:3]
    ]
    cache = CachingChatClient(_PartialUpstream(MODEL))
    with pytest.raises(BatchError) as caught:
        cache.complete_batch(requests)
    outcomes = caught.value.outcomes
    assert outcomes[0].content == "ok"
    assert all(isinstance(o, ServerError) for o in outcomes[1:])
    assert isinstance(caught.value.__cause__, ServerError)
    assert len(cache) == 1 and not cache._inflight
    # The served request is now a hit; the failed ones re-lead.
    assert cache.complete(requests[0]).content == "ok"
    assert cache.hits == 1


def test_wrappers_book_only_the_served_part_of_a_failed_window(
    clients, small_dataset
):
    classifier = LLMIndicatorClassifier(clients[MODEL])
    requests = [
        classifier._request(image, classifier.config.indicators)
        for image in small_dataset.images[:3]
    ]
    faulty = _fails_on_call(clients, 2)
    latency = LatencyChatClient(faulty, latency_s=0.0)
    limited = RateLimitedChatClient(
        latency, TokenBucket(rate=100.0, capacity=10.0)
    )
    with pytest.raises(BatchError) as caught:
        limited.complete_batch(requests)
    first, failed, unsent = caught.value.outcomes
    assert isinstance(first, ChatResponse)
    assert isinstance(failed, ServerError)
    assert isinstance(unsent, UnsentError) and unsent.__cause__ is failed
    for client in (faulty, latency, limited):
        assert _billed(client) == (
            1,
            first.usage.prompt_tokens,
            first.usage.completion_tokens,
        )


class _ScriptedBatchClient:
    """Counts batched dispatches; answers ``ans:<request>`` per seat."""

    def __init__(self, error: Exception | None = None):
        self.batch_calls = []
        self.error = error

    def complete_batch(self, requests):
        self.batch_calls.append(list(requests))
        if self.error is not None:
            raise self.error
        return [f"ans:{request}" for request in requests]


class TestCompleteSeats:
    def test_plain_failure_fans_out_to_every_seat(self):
        client = _ScriptedBatchClient(error=RuntimeError("window down"))
        with use_tally(Tally()) as scope:
            seats = complete_seats(client, ["a", "b"])
        # Nobody is left without an outcome; everybody sees the error.
        assert [str(seat) for seat in seats] == ["window down"] * 2
        assert all(isinstance(seat, RuntimeError) for seat in seats)
        assert scope.section("llm.microbatch") == {}  # nothing was served

    def test_batch_error_settles_each_seat_on_its_own(self):
        """Seats a failed window served keep their answers."""

        class _Partial(_ScriptedBatchClient):
            def complete_batch(self, requests):
                self.batch_calls.append(list(requests))
                outcomes = [f"ans:{r}" for r in requests]
                outcomes[1] = RuntimeError("seat down")
                raise BatchError(outcomes)

        with use_metrics(MetricsRegistry()) as registry, use_tally(
            Tally()
        ) as scope:
            seats = complete_seats(_Partial(), ["a", "b", "c"])
            assert registry.counter("llm.microbatch.batches") == 1
            assert registry.counter("llm.microbatch.requests") == 2
        assert seats[0] == "ans:a"
        assert isinstance(seats[1], RuntimeError)
        assert seats[2] == "ans:c"
        assert scope.section("llm.microbatch") == {
            "batches": 1,
            "requests": 2,
            "seats": 3,
        }

    def test_one_call_is_one_window(self):
        client = _ScriptedBatchClient()
        seats = complete_seats(client, ["a", "b", "c", "d"])
        assert seats == ["ans:a", "ans:b", "ans:c", "ans:d"]
        assert client.batch_calls == [["a", "b", "c", "d"]]
        # An empty call sends nothing.
        assert complete_seats(client, []) == []
        assert len(client.batch_calls) == 1
