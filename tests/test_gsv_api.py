"""Tests for the simulated Street View API."""

import pytest

from repro.geo import LatLon, study_counties
from repro.gsv import (
    FEE_PER_IMAGE_USD,
    AuthenticationError,
    NoImageryError,
    QuotaExceededError,
    StreetViewClient,
    TransientNetworkError,
)
from repro.gsv.api import IMAGERY_STAGE, UsageMeter


@pytest.fixture(scope="module")
def counties():
    return study_counties(seed=1)


@pytest.fixture()
def client(counties):
    return StreetViewClient(counties=counties, api_key="k")


@pytest.fixture()
def in_county(counties):
    county = counties[0]
    return county.center


class TestAuthAndQuota:
    def test_empty_key_rejected(self, counties, in_county):
        client = StreetViewClient(counties=counties, api_key="")
        with pytest.raises(AuthenticationError):
            client.fetch(in_county, heading=0)

    def test_quota_enforced(self, counties, in_county):
        client = StreetViewClient(
            counties=counties, api_key="k", daily_quota=2
        )
        client.fetch(in_county, heading=0, render=False)
        client.fetch(in_county, heading=90, render=False)
        with pytest.raises(QuotaExceededError):
            client.fetch(in_county, heading=180, render=False)

    def test_metadata_does_not_consume_quota(self, counties, in_county):
        client = StreetViewClient(
            counties=counties, api_key="k", daily_quota=1
        )
        for _ in range(5):
            assert client.metadata(in_county)["status"] == "OK"
        client.fetch(in_county, heading=0, render=False)

    def test_fee_accounting(self, client, in_county):
        for heading in (0, 90, 270):
            client.fetch(in_county, heading=heading, render=False)
        usage = client.usage()
        assert usage.images_served == 3
        assert usage.fees_usd == pytest.approx(3 * FEE_PER_IMAGE_USD)


class TestImagery:
    def test_fetch_returns_scene_and_pixels(self, client, in_county):
        served = client.fetch(in_county, heading=0, size=256)
        assert served.pixels.shape == (256, 256, 3)
        assert served.scene.scene_id == served.pano_id

    def test_deferred_render(self, client, in_county):
        served = client.fetch(in_county, heading=0, size=256, render=False)
        assert served.pixels is None
        pixels = served.require_pixels()
        assert pixels.shape == (256, 256, 3)

    def test_same_request_same_scene(self, client, in_county):
        a = client.fetch(in_county, heading=0, render=False)
        b = client.fetch(in_county, heading=0, render=False)
        assert a.scene == b.scene

    def test_different_headings_different_panos(self, client, in_county):
        a = client.fetch(in_county, heading=0, render=False)
        b = client.fetch(in_county, heading=90, render=False)
        assert a.pano_id != b.pano_id

    def test_non_cardinal_heading_rejected(self, client, in_county):
        with pytest.raises(ValueError):
            client.fetch(in_county, heading=45)

    def test_heading_normalized(self, client, in_county):
        served = client.fetch(in_county, heading=360 + 90, render=False)
        assert served.heading == 90

    def test_no_imagery_outside_counties(self, client):
        with pytest.raises(NoImageryError):
            client.fetch(LatLon(0.0, 0.0), heading=0)

    def test_metadata_outside_counties(self, client):
        assert client.metadata(LatLon(0.0, 0.0))["status"] == "ZERO_RESULTS"


class TestFailureInjection:
    def test_transient_failures(self, counties, in_county):
        client = StreetViewClient(
            counties=counties, api_key="k", failure_rate=0.5, generator_seed=3
        )
        failures = 0
        successes = 0
        for heading in (0, 90, 180, 270) * 10:
            try:
                client.fetch(in_county, heading=heading, render=False)
                successes += 1
            except TransientNetworkError:
                failures += 1
        assert failures > 5
        assert successes > 5

    def test_failure_rate_validated(self, counties):
        with pytest.raises(ValueError):
            StreetViewClient(counties=counties, failure_rate=1.5)


class TestStageAttribution:
    def test_imagery_fills_the_imagery_bucket(self, client, in_county):
        for heading in (0, 90):
            client.fetch(in_county, heading=heading, render=False)
        stages = client.usage().stage_totals()
        assert stages == {
            IMAGERY_STAGE: {
                "requests": 2,
                "images": 2,
                "fees_usd": round(2 * FEE_PER_IMAGE_USD, 9),
                "prompt_tokens": 0,
                "completion_tokens": 0,
            }
        }

    def test_record_stage_books_tokens_without_touching_headline_fees(self):
        meter = UsageMeter()
        meter.record_stage(
            "tier1.scout",
            requests=3,
            fees_usd=0.25,
            prompt_tokens=100,
            completion_tokens=40,
        )
        meter.record_stage("tier1.scout", requests=1, fees_usd=0.05)
        # Stage fees are attribution, not billing: the imagery bill
        # (which golden fixtures pin) must be untouched.
        assert meter.fees_usd == 0.0
        assert meter.requests == 0
        bucket = meter.stage_totals()["tier1.scout"]
        assert bucket["requests"] == 4
        assert bucket["fees_usd"] == pytest.approx(0.30)
        assert bucket["prompt_tokens"] == 100
        assert bucket["completion_tokens"] == 40

    def test_stage_totals_sorted_by_label(self):
        meter = UsageMeter()
        meter.record_stage("tier2.ensemble", requests=1)
        meter.record_stage("tier0.detector", requests=1)
        assert list(meter.stage_totals()) == [
            "tier0.detector",
            "tier2.ensemble",
        ]
