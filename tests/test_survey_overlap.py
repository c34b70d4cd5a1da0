"""Overlapping surveys on one decoder report only their own work.

Two pipelined surveys sharing a decoder share its usage meter, its
classifier (with its retry stats) and its response cache.  Each
location tallies what it spent into its own scope, so a survey's
report must be exactly the report it produces alone — fees, retries,
cache traffic and micro-batches included — however the two overlap.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import LLMIndicatorClassifier, NeighborhoodDecoder
from repro.geo import make_durham_like
from repro.gsv import StreetViewClient
from repro.llm.cache import CachingChatClient

WINDOW = 2
N_LOCATIONS = 4
SEEDS = (3, 8)


@pytest.fixture(scope="module")
def county():
    return make_durham_like(seed=3)


def _decoder(county, clients) -> NeighborhoodDecoder:
    return NeighborhoodDecoder(
        street_view=StreetViewClient(counties=[county], api_key="overlap"),
        classifier=LLMIndicatorClassifier(
            CachingChatClient(clients["gemini-1.5-pro"])
        ),
    )


def _survey(decoder, county, seed):
    return decoder.survey_async(
        county, N_LOCATIONS, seed=seed, max_inflight=WINDOW
    )


def test_gathered_surveys_match_their_standalone_runs(county, clients):
    standalone = [
        asyncio.run(_survey(_decoder(county, clients), county, seed))
        for seed in SEEDS
    ]

    decoder = _decoder(county, clients)
    client = decoder.classifier.client

    async def overlapped():
        return await asyncio.gather(
            *(_survey(decoder, county, seed) for seed in SEEDS)
        )

    reports = asyncio.run(overlapped())

    for alone, report in zip(standalone, reports):
        assert report.to_json() == alone.to_json()
        assert report.fees_usd == alone.fees_usd
        assert report.batch_stats["batched_requests"] == (
            report.images_classified
        )
        assert sum(report.coalesce_stats.values()) == report.images_classified
    assert decoder.classifier.client is client
    # Between them the two reports account for the whole shared meter.
    assert sum(r.fees_usd for r in reports) == pytest.approx(
        decoder.street_view.usage().fees_usd
    )
