"""Parallel execution through the pipeline layers: pipelined survey
determinism, batch running, and ensemble member fan-out."""

from __future__ import annotations

import pytest

from repro.core import LLMIndicatorClassifier, NeighborhoodDecoder
from repro.core.voting import VotingEnsemble
from repro.geo import make_durham_like
from repro.gsv import StreetViewClient
from repro.llm import ImageAttachment
from repro.llm.base import ChatMessage, ChatRequest
from repro.llm.batch import BatchRunner, TokenBucket
from repro.parallel import ParallelExecutor
from repro.resilience import WallClock


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


class TestParallelBatchRunner:
    def _requests(self, small_dataset, n=12):
        return [
            ChatRequest(
                model="gpt-4o-mini",
                messages=(
                    ChatMessage(
                        role="user",
                        text="Is there a sidewalk visible in the image?",
                        images=(ImageAttachment(scene=image.scene),),
                    ),
                ),
            )
            for image in small_dataset.images[:n]
        ]

    def test_parallel_run_matches_serial(self, clients, small_dataset):
        requests = self._requests(small_dataset)
        serial, _ = BatchRunner(clients["gpt-4o-mini"]).run(requests)

        limiter = TokenBucket(rate=10_000.0, capacity=64.0, clock=WallClock())
        runner = BatchRunner(
            clients["gpt-4o-mini"], limiter=limiter, workers=4
        )
        parallel, stats = runner.run(requests)

        assert [outcome.index for outcome in parallel] == list(
            range(len(requests))
        )
        assert all(outcome.ok for outcome in parallel)
        assert [outcome.response.content for outcome in parallel] == [
            outcome.response.content for outcome in serial
        ]
        assert stats.succeeded == len(requests)

    def test_progress_reported_in_order(self, clients, small_dataset):
        seen: list[int] = []
        runner = BatchRunner(
            clients["gpt-4o-mini"],
            workers=4,
            on_progress=lambda done, total: seen.append(done),
        )
        runner.run(self._requests(small_dataset, n=8))
        assert seen == list(range(1, 9))


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
