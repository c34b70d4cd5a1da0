"""Parallel execution through the pipeline layers: a pipelined survey
is byte-identical to the serial one, keeps several locations in flight
under network latency, and resumes from its checkpoint."""

from __future__ import annotations

import asyncio

import pytest

from repro.core import LLMIndicatorClassifier, NeighborhoodDecoder
from repro.geo import make_durham_like
from repro.gsv import StreetViewClient
from repro.perf import LatencyChatClient


@pytest.fixture(scope="module")
def county():
    return make_durham_like(seed=3)


def _decoder(county, clients, model="gemini-1.5-pro"):
    return NeighborhoodDecoder(
        street_view=StreetViewClient(counties=[county], api_key="x"),
        classifier=LLMIndicatorClassifier(clients[model]),
    )


class TestParallelSurvey:
    def test_parallel_report_byte_identical_to_serial(self, county, clients):
        serial = _decoder(county, clients).survey(
            county, n_locations=8, seed=0
        )
        parallel = _decoder(county, clients).survey(
            county, n_locations=8, seed=0, max_inflight=4
        )
        assert parallel.to_json() == serial.to_json()
        assert parallel.payload() == serial.payload()
        assert parallel.fees_usd == serial.fees_usd

    def test_window_opens_under_latency(self, county, clients):
        """With every location waiting on the network, the engine keeps
        locations in flight together instead of one at a time."""
        decoder = NeighborhoodDecoder(
            street_view=StreetViewClient(
                counties=[county], api_key="x", latency_s=0.01
            ),
            classifier=LLMIndicatorClassifier(
                LatencyChatClient(clients["gemini-1.5-pro"], latency_s=0.01)
            ),
        )
        report = asyncio.run(
            decoder.survey_async(county, 8, seed=0, max_inflight=4)
        )
        assert report.coverage == 1.0
        assert report.pipeline_stats["peak_inflight"] >= 2

    def test_parallel_resume_from_checkpoint(self, county, clients, tmp_path):
        path = tmp_path / "survey.ckpt.json"
        first = _decoder(county, clients).survey(
            county, n_locations=6, seed=0, checkpoint=path, max_inflight=4
        )
        assert first.fees_usd > 0

        resumed = _decoder(county, clients).survey(
            county, n_locations=6, seed=0, checkpoint=path, max_inflight=4
        )
        # Every location restored: same results, nothing re-billed.
        assert resumed.payload()["locations"] == first.payload()["locations"]
        assert resumed.coverage == first.coverage
        assert resumed.images_classified == first.images_classified
        assert resumed.fees_usd == 0.0

