"""Tests for the end-to-end NeighborhoodDecoder."""

import asyncio

import pytest

from repro.core import (
    ClassifierConfig,
    LLMIndicatorClassifier,
    NeighborhoodDecoder,
    VotingEnsemble,
)
from repro.core.indicators import ALL_INDICATORS, Indicator
from repro.geo import make_durham_like, make_robeson_like
from repro.gsv import StreetViewClient
from repro.resilience import SurveyCheckpoint


@pytest.fixture(scope="module")
def street_view():
    return StreetViewClient(
        counties=[make_robeson_like(seed=2), make_durham_like(seed=3)],
        api_key="survey",
    )


class TestNeighborhoodDecoder:
    def test_requires_exactly_one_predictor(self, street_view, clients):
        classifier = LLMIndicatorClassifier(clients["gemini-1.5-pro"])
        with pytest.raises(ValueError):
            NeighborhoodDecoder(street_view=street_view)
        with pytest.raises(ValueError):
            NeighborhoodDecoder(
                street_view=street_view,
                classifier=classifier,
                ensemble=VotingEnsemble(
                    {
                        "a": classifier,
                        "b": LLMIndicatorClassifier(clients["grok-2"]),
                    }
                ),
            )

    def test_survey_with_single_classifier(self, street_view, clients):
        decoder = NeighborhoodDecoder(
            street_view=street_view,
            classifier=LLMIndicatorClassifier(clients["gemini-1.5-pro"]),
        )
        report = decoder.survey(make_robeson_like(seed=2), n_locations=8, seed=0)
        assert len(report.locations) == 8
        assert report.images_classified == 32
        assert report.fees_usd > 0

    def test_survey_rates_in_unit_interval(self, street_view, clients):
        decoder = NeighborhoodDecoder(
            street_view=street_view,
            classifier=LLMIndicatorClassifier(clients["claude-3.7"]),
        )
        report = decoder.survey(make_durham_like(seed=3), n_locations=6, seed=1)
        for rate in report.indicator_rates().values():
            assert 0.0 <= rate <= 1.0

    def test_survey_with_ensemble(self, street_view, clients):
        ensemble = VotingEnsemble(
            {
                name: LLMIndicatorClassifier(clients[name])
                for name in ("gemini-1.5-pro", "claude-3.7", "grok-2")
            }
        )
        decoder = NeighborhoodDecoder(
            street_view=street_view, ensemble=ensemble
        )
        report = decoder.survey(make_durham_like(seed=3), n_locations=5, seed=2)
        assert len(report.locations) == 5

    def test_rates_by_zone_keys(self, street_view, clients):
        decoder = NeighborhoodDecoder(
            street_view=street_view,
            classifier=LLMIndicatorClassifier(clients["gpt-4o-mini"]),
        )
        report = decoder.survey(
            make_durham_like(seed=3), n_locations=10, seed=3
        )
        by_zone = report.rates_by_zone()
        assert by_zone
        for zone_rates in by_zone.values():
            assert set(zone_rates) == set(ALL_INDICATORS)

    def test_urban_county_decodes_more_sidewalks(self, street_view, clients):
        decoder = NeighborhoodDecoder(
            street_view=street_view,
            classifier=LLMIndicatorClassifier(clients["gemini-1.5-pro"]),
        )
        rural = decoder.survey(make_robeson_like(seed=2), 25, seed=5)
        urban = decoder.survey(make_durham_like(seed=3), 25, seed=5)
        assert (
            urban.indicator_rates()[Indicator.SIDEWALK]
            > rural.indicator_rates()[Indicator.SIDEWALK]
        )


class TestSurveyStream:
    """The aggregate report must be observably identical to batch."""

    def _decoder(self, street_view, clients, name="gemini-1.5-pro"):
        return NeighborhoodDecoder(
            street_view=street_view,
            classifier=LLMIndicatorClassifier(clients[name]),
        )

    def test_keep_locations_is_byte_identical_to_batch(
        self, street_view, clients
    ):
        county = make_durham_like(seed=3)
        batch = self._decoder(street_view, clients).survey(
            county, n_locations=9, seed=4
        )
        stream = self._decoder(street_view, clients).survey(
            county, 9, seed=4, max_inflight=3
        )
        assert stream.to_json() == batch.to_json()
        assert stream.completed_locations == batch.completed_locations == 9

    def test_aggregate_mode_rates_equal_batch_exactly(
        self, street_view, clients
    ):
        county = make_robeson_like(seed=2)
        batch = self._decoder(street_view, clients).survey(
            county, n_locations=8, seed=6
        )
        stream = self._decoder(street_view, clients).survey(
            county, 8, seed=6, max_inflight=3, keep_locations=False
        )
        assert stream.locations == []  # memory-bounded: nothing retained
        assert stream.indicator_rates() == batch.indicator_rates()
        assert stream.rates_by_zone() == batch.rates_by_zone()
        assert stream.coverage == batch.coverage

    def test_iterable_mode_consumes_a_generator(self, street_view, clients):
        county = make_durham_like(seed=3)
        points = NeighborhoodDecoder._select_points(county, 7, seed=1)
        report = self._decoder(street_view, clients).survey(
            locations=iter(points), max_inflight=2, keep_locations=False
        )
        assert report.requested_locations == 7
        assert report.completed_locations == 7
        for rate in report.indicator_rates().values():
            assert 0.0 <= rate <= 1.0

    def test_mode_arguments_are_mutually_exclusive(
        self, street_view, clients
    ):
        county = make_durham_like(seed=3)
        decoder = self._decoder(street_view, clients)
        points = NeighborhoodDecoder._select_points(county, 2, seed=1)
        with pytest.raises(ValueError):
            decoder.survey(county, 2, locations=iter(points))
        with pytest.raises(ValueError):
            decoder.survey()
        with pytest.raises(ValueError):
            decoder.survey(
                locations=iter(points), checkpoint="somewhere.json"
            )

    def test_coalesce_stats_reported_but_not_in_payload(
        self, street_view, clients
    ):
        county = make_durham_like(seed=3)
        report = self._decoder(street_view, clients).survey(
            county, 4, seed=2, max_inflight=2, keep_locations=False
        )
        assert set(report.coalesce_stats) >= {"coalesced"}
        assert "coalesce_stats" not in report.payload()


def _run_sync(decoder, *args, **kwargs):
    return decoder.survey(*args, **kwargs)


def _run_async(decoder, *args, **kwargs):
    return asyncio.run(decoder.survey_async(*args, **kwargs))


def _run_stream(decoder, *args, **kwargs):
    return asyncio.run(decoder.survey_stream_async(*args, **kwargs))


#: Every public survey entry, called to completion.
ENTRIES = {
    "survey": _run_sync,
    "survey_async": _run_async,
    "survey_stream_async": _run_stream,
}

#: Invalid argument sets: name -> (needs ``locations=``, expected
#: message prefix).  ``survey_async`` takes no ``locations=``, so the
#: cases that need it run on the other two entries only.
INVALID_ARGUMENTS = {
    "zero-window": (False, "max_inflight must be positive"),
    "zero-window-empty-survey": (False, "max_inflight must be positive"),
    "no-location-source": (False, "provide either (county, n_locations)"),
    "county-without-count": (False, "provide either (county, n_locations)"),
    "both-location-sources": (True, "provide either (county, n_locations)"),
    "checkpoint-and-store": (False, "provide at most one of checkpoint"),
    "checkpoint-on-iterable": (True, "checkpointing a location iterable"),
}


def _invalid_call(case, county, points, tmp_path):
    """Positional and keyword arguments of one invalid call."""
    path = tmp_path / "survey.ckpt.json"
    if case == "zero-window":
        return (county, 2), {"max_inflight": 0}
    if case == "zero-window-empty-survey":
        return (county, 0), {"max_inflight": 0}
    if case == "no-location-source":
        return (None, None), {}
    if case == "county-without-count":
        return (county, None), {}
    if case == "both-location-sources":
        return (county, 2), {"locations": points}
    if case == "checkpoint-and-store":
        store = SurveyCheckpoint(tmp_path / "store.json", key={"k": 1})
        return (county, 2), {"checkpoint": path, "checkpoint_store": store}
    assert case == "checkpoint-on-iterable"
    return (), {"locations": points, "checkpoint": path}


@pytest.mark.parametrize(
    ("entry", "case"),
    [
        (entry, case)
        for entry in ENTRIES
        for case, (needs_locations, _) in INVALID_ARGUMENTS.items()
        if not (needs_locations and entry == "survey_async")
    ],
)
def test_every_entry_rejects_invalid_arguments_up_front(
    street_view, clients, tmp_path, entry, case
):
    county = make_durham_like(seed=3)
    points = NeighborhoodDecoder._select_points(county, 2, seed=1)
    decoder = NeighborhoodDecoder(
        street_view=street_view,
        classifier=LLMIndicatorClassifier(clients["gemini-1.5-pro"]),
    )
    args, kwargs = _invalid_call(case, county, points, tmp_path)
    served = street_view.usage().images_served
    with pytest.raises(ValueError) as raised:
        ENTRIES[entry](decoder, *args, **kwargs)
    assert str(raised.value).startswith(INVALID_ARGUMENTS[case][1])
    assert street_view.usage().images_served == served
    assert not (tmp_path / "survey.ckpt.json").exists()


class TestCheckpointPayload:
    """A location's checkpoint record holds its result and image count."""

    KEY = {"county": "Durham", "n_locations": 3, "seed": 5}

    def _survey(self, street_view, clients, path):
        decoder = NeighborhoodDecoder(
            street_view=street_view,
            classifier=LLMIndicatorClassifier(clients["gemini-1.5-pro"]),
        )
        return decoder.survey(
            make_durham_like(seed=3), n_locations=3, seed=5, checkpoint=path
        )

    def test_window_one_record_has_no_retry_key(
        self, street_view, clients, tmp_path
    ):
        path = tmp_path / "survey.ckpt"
        self._survey(street_view, clients, path)
        store = SurveyCheckpoint(path, self.KEY)
        assert store.completed_indices == (0, 1, 2)
        for index in store.completed_indices:
            assert "retry" not in store.get(index)

    def test_legacy_record_with_retry_restores_the_same_report(
        self, street_view, clients, tmp_path
    ):
        fresh = tmp_path / "fresh.ckpt"
        first = self._survey(street_view, clients, fresh)
        legacy = SurveyCheckpoint(tmp_path / "legacy.ckpt", self.KEY)
        source = SurveyCheckpoint(fresh, self.KEY)
        for index in sorted(source.completed_indices):
            legacy.record(
                index,
                {
                    **source.get(index),
                    "retry": {
                        "operations": 4,
                        "attempts": 5,
                        "retries": 1,
                        "failures": 0,
                        "slept_s": 0.05,
                        "breaker_blocks": 0,
                    },
                },
            )
        served = street_view.usage().images_served
        restored = self._survey(street_view, clients, fresh)
        from_legacy = self._survey(
            street_view, clients, tmp_path / "legacy.ckpt"
        )
        assert street_view.usage().images_served == served
        assert from_legacy.to_json() == restored.to_json()
        # Restoring bills nothing and retries nothing; every other
        # key is the original survey's.
        work = ("fees_usd", "retry_stats")
        payload = {
            k: v for k, v in from_legacy.payload().items() if k not in work
        }
        assert payload == {
            k: v for k, v in first.payload().items() if k not in work
        }
