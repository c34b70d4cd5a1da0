"""Parallel execution through the pipeline layers: pipelined survey
determinism and ensemble member fan-out."""

from __future__ import annotations

import pytest

from repro.core import LLMIndicatorClassifier, NeighborhoodDecoder
from repro.core.voting import VotingEnsemble
from repro.geo import make_durham_like
from repro.gsv import StreetViewClient
from repro.parallel import ParallelExecutor


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


class TestParallelEnsemble:
    def test_executor_votes_match_serial(self, clients, small_dataset):
        members = {
            name: LLMIndicatorClassifier(clients[name])
            for name in ("gemini-1.5-pro", "claude-3.7", "gpt-4o-mini")
        }
        serial = VotingEnsemble(classifiers=dict(members))
        parallel = VotingEnsemble(
            classifiers=dict(members),
            executor=ParallelExecutor(workers=3),
        )
        for image in small_dataset.images[:6]:
            a = serial.vote_image(image)
            b = parallel.vote_image(image)
            assert b.presence == a.presence
            assert b.members_voted == a.members_voted
            assert b.members_failed == a.members_failed
