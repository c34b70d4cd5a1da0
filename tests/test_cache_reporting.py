"""Tests for the response cache and survey exports."""

import json

import pytest

from repro.core import (
    LLMIndicatorClassifier,
    NeighborhoodDecoder,
    build_parallel_prompt,
)
from repro.geo import make_durham_like
from repro.gsv import StreetViewClient
from repro.llm import ImageAttachment
from repro.llm.cache import CachingChatClient, request_fingerprint
from repro.llm.base import ChatMessage, ChatRequest
from repro.reporting import (
    export_survey,
    survey_to_csv,
    survey_to_geojson,
    survey_to_markdown,
)


@pytest.fixture()
def attachment(urban_scene):
    return ImageAttachment(scene=urban_scene)


def _request(attachment, text="Is there a sidewalk visible in the image?"):
    return ChatRequest(
        model="gpt-4o-mini",
        messages=(
            ChatMessage(role="user", text=text, images=(attachment,)),
        ),
    )


class TestFingerprint:
    def test_identical_requests_same_key(self, attachment):
        assert request_fingerprint(_request(attachment)) == request_fingerprint(
            _request(attachment)
        )

    def test_different_text_different_key(self, attachment):
        a = request_fingerprint(_request(attachment, "sidewalk?"))
        b = request_fingerprint(_request(attachment, "powerline?"))
        assert a != b

    def test_different_temperature_different_key(self, attachment):
        base = _request(attachment)
        warm = ChatRequest(
            model=base.model, messages=base.messages, temperature=0.2
        )
        assert request_fingerprint(base) != request_fingerprint(warm)

    def test_different_image_different_key(self, urban_scene, rural_scene):
        a = _request(ImageAttachment(scene=urban_scene))
        b = _request(ImageAttachment(scene=rural_scene))
        assert request_fingerprint(a) != request_fingerprint(b)

    def test_different_model_different_key(self, attachment):
        """Ensemble members may share a cache path; the model name in
        the fingerprint keeps them from cross-serving responses."""
        base = _request(attachment)
        other = ChatRequest(model="gemini-1.5-pro", messages=base.messages)
        assert request_fingerprint(base) != request_fingerprint(other)


class TestCachingClient:
    def test_second_call_hits_cache(self, clients, attachment):
        caching = CachingChatClient(clients["gpt-4o-mini"])
        request = _request(attachment)
        first = caching.complete(request)
        inner_requests = clients["gpt-4o-mini"].stats.requests
        second = caching.complete(request)
        assert second.content == first.content
        assert caching.hits == 1 and caching.misses == 1
        # The inner client was not called again.
        assert clients["gpt-4o-mini"].stats.requests == inner_requests

    def test_persistence_round_trip(self, clients, attachment, tmp_path):
        path = tmp_path / "cache.json"
        request = _request(attachment)
        first = CachingChatClient(clients["gpt-4o-mini"], cache_path=path)
        original = first.complete(request)
        assert path.exists()

        reloaded = CachingChatClient(
            clients["gpt-4o-mini"], cache_path=path
        )
        cached = reloaded.complete(request)
        assert cached.content == original.content
        assert reloaded.hits == 1

    def test_clear(self, clients, attachment, tmp_path):
        path = tmp_path / "cache.json"
        caching = CachingChatClient(clients["gpt-4o-mini"], cache_path=path)
        caching.complete(_request(attachment))
        assert len(caching) == 1
        caching.clear()
        assert len(caching) == 0
        assert not path.exists()

    def test_works_under_classifier(self, clients, small_dataset):
        caching = CachingChatClient(clients["gemini-1.5-pro"])
        classifier = LLMIndicatorClassifier(caching)
        first = classifier.predictions(small_dataset.images[:8])
        second = classifier.predictions(small_dataset.images[:8])
        assert first == second
        assert caching.hits == 8

    def test_warm_survey_rerun_is_all_hits_and_byte_identical(
        self, clients, tmp_path
    ):
        county = make_durham_like(seed=3)
        caching = CachingChatClient(
            clients["gemini-1.5-pro"], cache_path=tmp_path / "cache.jsonl"
        )
        decoder = NeighborhoodDecoder(
            street_view=StreetViewClient(counties=[county], api_key="x"),
            classifier=LLMIndicatorClassifier(caching),
        )
        cold = decoder.survey(county, 4, seed=0, max_inflight=2)
        misses = caching.misses
        warm = decoder.survey(county, 4, seed=0, max_inflight=2)
        assert caching.misses == misses
        assert caching.hits == misses == cold.images_classified
        assert warm.to_json() == cold.to_json()
        caching.close()

    def test_hit_rate(self, clients, attachment):
        caching = CachingChatClient(clients["claude-3.7"])
        prompt = build_parallel_prompt()
        request = ChatRequest(
            model="claude-3.7",
            messages=(
                ChatMessage(role="user", text=prompt, images=(attachment,)),
            ),
        )
        caching.complete(request)
        caching.complete(request)
        caching.complete(request)
        assert caching.hit_rate == pytest.approx(2 / 3)


class TestJournalPersistence:
    """The JSONL write-behind journal and its compaction."""

    def test_each_miss_appends_one_jsonl_line(
        self, clients, small_dataset, tmp_path
    ):
        path = tmp_path / "cache.jsonl"
        caching = CachingChatClient(clients["gpt-4o-mini"], cache_path=path)
        for image in small_dataset.images[:5]:
            caching.complete(_request(ImageAttachment(scene=image.scene)))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 5
        for line in lines:
            record = json.loads(line)
            assert "key" in record and "content" in record

    def test_hits_do_not_touch_the_journal(self, clients, attachment, tmp_path):
        path = tmp_path / "cache.jsonl"
        caching = CachingChatClient(clients["gpt-4o-mini"], cache_path=path)
        request = _request(attachment)
        caching.complete(request)
        size_after_miss = path.stat().st_size
        caching.complete(request)
        assert caching.hits == 1
        assert path.stat().st_size == size_after_miss

    def test_compaction_dedups_newest_wins(self, clients, attachment, tmp_path):
        path = tmp_path / "cache.jsonl"
        key = request_fingerprint(_request(attachment))
        stale = {"key": key, "model": "gpt-4o-mini", "content": "stale",
                 "prompt_tokens": 1, "completion_tokens": 1}
        fresh = dict(stale, content="fresh")
        path.write_text(json.dumps(stale) + "\n" + json.dumps(fresh) + "\n")

        caching = CachingChatClient(clients["gpt-4o-mini"], cache_path=path)
        assert len(caching) == 1
        assert caching.complete(_request(attachment)).content == "fresh"
        caching.close()
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1
        assert json.loads(lines[0])["content"] == "fresh"

    def test_legacy_map_format_loads_and_migrates(
        self, clients, attachment, tmp_path
    ):
        path = tmp_path / "cache.json"
        request = _request(attachment)
        legacy = {
            request_fingerprint(request): {
                "model": "gpt-4o-mini",
                "content": "NO.",
                "prompt_tokens": 2,
                "completion_tokens": 1,
            }
        }
        path.write_text(json.dumps(legacy))

        caching = CachingChatClient(clients["gpt-4o-mini"], cache_path=path)
        response = caching.complete(request)
        assert caching.hits == 1 and response.content == "NO."
        # Compaction migrates the legacy map to JSONL.
        caching.close()
        migrated = json.loads(path.read_text().strip())
        assert migrated["key"] == request_fingerprint(request)

    def test_legacy_map_with_appended_lines(self, clients, tmp_path, attachment):
        """An interrupted migration: old map first, journal lines after."""
        path = tmp_path / "cache.json"
        request = _request(attachment)
        legacy = {
            request_fingerprint(request): {
                "model": "gpt-4o-mini",
                "content": "legacy",
                "prompt_tokens": 1,
                "completion_tokens": 1,
            }
        }
        appended = {"key": "deadbeef", "model": "gpt-4o-mini",
                    "content": "appended", "prompt_tokens": 1,
                    "completion_tokens": 1}
        path.write_text(json.dumps(legacy) + "\n" + json.dumps(appended) + "\n")
        caching = CachingChatClient(clients["gpt-4o-mini"], cache_path=path)
        assert len(caching) == 2
        assert caching.complete(request).content == "legacy"

    def test_two_models_share_path_without_cross_serving(
        self, clients, attachment, tmp_path
    ):
        path = tmp_path / "shared.jsonl"
        request_a = _request(attachment)
        request_b = ChatRequest(
            model="gemini-1.5-pro", messages=request_a.messages
        )
        with CachingChatClient(
            clients["gpt-4o-mini"], cache_path=path
        ) as first:
            first.complete(request_a)
        with CachingChatClient(
            clients["gemini-1.5-pro"], cache_path=path
        ) as second:
            second.complete(request_b)
            assert second.misses == 1  # model differs → not served from A
            assert len(second) == 2  # but A's entry was loaded alongside

    def test_close_is_reusable(self, clients, attachment, tmp_path):
        path = tmp_path / "cache.jsonl"
        caching = CachingChatClient(clients["gpt-4o-mini"], cache_path=path)
        caching.complete(_request(attachment))
        caching.close()
        caching.complete(_request(attachment, "Any powerlines?"))
        caching.close()
        assert len(path.read_text().strip().split("\n")) == 2


@pytest.fixture(scope="module")
def survey_report(clients):
    county = make_durham_like(seed=3)
    decoder = NeighborhoodDecoder(
        street_view=StreetViewClient(counties=[county], api_key="x"),
        classifier=LLMIndicatorClassifier(clients["gemini-1.5-pro"]),
    )
    return decoder.survey(county, n_locations=6, seed=0)


class TestExports:
    def test_csv_shape(self, survey_report):
        text = survey_to_csv(survey_report)
        rows = text.strip().split("\n")
        assert len(rows) == 7  # header + 6 locations
        assert rows[0].startswith("latitude,longitude,county,zone")

    def test_geojson_valid(self, survey_report):
        geojson = survey_to_geojson(survey_report)
        assert geojson["type"] == "FeatureCollection"
        assert len(geojson["features"]) == 6
        feature = geojson["features"][0]
        lon, lat = feature["geometry"]["coordinates"]
        assert -180 <= lon <= 180 and -90 <= lat <= 90
        assert "sidewalk" in feature["properties"]

    def test_markdown_contains_rates(self, survey_report):
        text = survey_to_markdown(survey_report)
        assert "## Indicator rates" in text
        assert "Sidewalk" in text

    def test_export_writes_all_files(self, survey_report, tmp_path):
        paths = export_survey(survey_report, tmp_path)
        assert set(paths) == {"csv", "geojson", "markdown"}
        for path in paths.values():
            assert path.exists()
            assert path.stat().st_size > 0
        parsed = json.loads(paths["geojson"].read_text())
        assert parsed["type"] == "FeatureCollection"


class TestSingleFlight:
    """Concurrent identical misses must share one upstream call."""

    class _Gated:
        """Client whose first call blocks until the test releases it."""

        def __init__(self, inner):
            import threading

            self.inner = inner
            self.model_name = inner.model_name
            self.stats = inner.stats
            self.calls = 0
            self.entered = threading.Event()
            self.release = threading.Event()

        def complete(self, request):
            self.calls += 1
            self.entered.set()
            assert self.release.wait(10.0), "test never released the gate"
            return self.inner.complete(request)

    def test_identical_in_flight_requests_pay_once(self, clients, attachment):
        import threading

        gated = self._Gated(clients["gpt-4o-mini"])
        caching = CachingChatClient(gated)
        request = _request(attachment)
        responses = []

        def call():
            responses.append(caching.complete(request))

        leader = threading.Thread(target=call)
        leader.start()
        assert gated.entered.wait(10.0)
        followers = [threading.Thread(target=call) for _ in range(7)]
        for thread in followers:
            thread.start()
        import time

        time.sleep(0.2)  # let followers reach the flight wait
        gated.release.set()
        leader.join()
        for thread in followers:
            thread.join()

        assert gated.calls == 1  # one billable upstream call for 8 requests
        assert caching.misses == 1
        assert caching.coalesced + caching.hits == 7
        assert caching.coalesced >= 1
        assert len({response.content for response in responses}) == 1

    def test_leader_failure_propagates_and_clears_flight(self, attachment):
        import threading

        class _Failing:
            model_name = "gpt-4o-mini"
            calls = 0

            def complete(self, request):
                type(self).calls += 1
                raise RuntimeError("upstream down")

        caching = CachingChatClient(_Failing())
        request = _request(attachment)
        errors = []

        def call():
            try:
                caching.complete(request)
            except RuntimeError as err:
                errors.append(err)

        threads = [threading.Thread(target=call) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(errors) == 4  # nobody hangs, everybody sees the failure
        assert not caching._inflight  # flight cleared: next call can lead
        with pytest.raises(RuntimeError):
            caching.complete(request)

    def test_slow_leader_journal_failure_still_releases_followers(
        self, clients, attachment, tmp_path
    ):
        """Regression: journaling must never strand a waiting follower.

        The leader's miss bookkeeping (stats, journal append) used to
        run *before* the flight was resolved, so a journal write that
        raised left the follower parked on the flight event forever.
        Here the journal path is a directory — the append raises
        ``IsADirectoryError`` mid-resolution while a follower is
        already waiting — and everything must still come home: the
        follower gets the leader's response, the fee is paid once,
        and the broken journal only costs persistence.
        """
        import contextvars
        import threading

        from repro.obs.metrics import MetricsRegistry, use_metrics

        journal_path = tmp_path / "cache.jsonl"
        gated = self._Gated(clients["gpt-4o-mini"])
        caching = CachingChatClient(gated, cache_path=journal_path)
        journal_path.mkdir()  # open("a") on a directory raises OSError
        request = _request(attachment)
        responses = []

        def call():
            responses.append(caching.complete(request))

        with use_metrics(MetricsRegistry()) as registry:
            leader = threading.Thread(
                target=contextvars.copy_context().run, args=(call,)
            )
            leader.start()
            assert gated.entered.wait(10.0)
            follower = threading.Thread(
                target=contextvars.copy_context().run, args=(call,)
            )
            follower.start()
            import time

            time.sleep(0.2)  # let the follower reach the flight wait
            gated.release.set()
            leader.join(10.0)
            follower.join(10.0)
            assert not leader.is_alive() and not follower.is_alive()

            assert gated.calls == 1  # one billable call despite the fault
            assert caching.misses == 1
            assert caching.coalesced + caching.hits == 1
            assert len({response.content for response in responses}) == 1
            assert not caching._inflight  # flight fully resolved
            assert caching._journal_broken
            assert registry.counter("llm.cache.journal_errors") == 1
            assert registry.counter("llm.cache.journal_writes") == 0

        # Persistence is gone but service continues: a fresh request
        # (cache miss) neither raises nor retries the dead journal.
        caching.complete(_request(attachment, text="Any streetlights?"))
        assert caching.misses == 2

    def test_clear_resets_coalesced_counter(self, clients, attachment):
        caching = CachingChatClient(clients["gpt-4o-mini"])
        caching.complete(_request(attachment))
        caching.coalesced = 3  # as if followers had shared flights
        caching.clear()
        assert caching.coalesced == 0
        assert caching.hits == caching.misses == 0
