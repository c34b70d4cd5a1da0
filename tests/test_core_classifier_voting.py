"""Tests for the LLM classifier driver and majority voting."""

import pytest

from repro.core import (
    ClassifierConfig,
    LLMIndicatorClassifier,
    agreement_rate,
    majority_vote,
    vote_predictions,
)
from repro.core.indicators import Indicator, IndicatorPresence
from repro.core.voting import VotingEnsemble
from repro.llm import Language, RateLimitError, build_clients
from repro.llm.base import ChatClient, ChatResponse, Usage


def _presence(*indicators):
    return IndicatorPresence(indicators)


class TestMajorityVote:
    def test_two_of_three(self):
        votes = [
            _presence(Indicator.SIDEWALK),
            _presence(Indicator.SIDEWALK, Indicator.POWERLINE),
            _presence(),
        ]
        result = majority_vote(votes)
        assert result[Indicator.SIDEWALK]
        assert not result[Indicator.POWERLINE]

    def test_quorum_override(self):
        votes = [
            _presence(Indicator.APARTMENT),
            _presence(),
            _presence(),
        ]
        assert majority_vote(votes, quorum=1)[Indicator.APARTMENT]
        assert not majority_vote(votes, quorum=2)[Indicator.APARTMENT]

    def test_empty_votes_rejected(self):
        with pytest.raises(ValueError):
            majority_vote([])

    def test_bad_quorum_rejected(self):
        with pytest.raises(ValueError):
            majority_vote([_presence()], quorum=5)

    def test_vote_predictions_alignment(self):
        per_model = {
            "a": [_presence(Indicator.SIDEWALK), _presence()],
            "b": [_presence(Indicator.SIDEWALK), _presence()],
            "c": [_presence(), _presence(Indicator.SIDEWALK)],
        }
        voted = vote_predictions(per_model)
        assert voted[0][Indicator.SIDEWALK]
        assert not voted[1][Indicator.SIDEWALK]

    def test_vote_predictions_length_mismatch(self):
        with pytest.raises(ValueError):
            vote_predictions({"a": [_presence()], "b": []})

    def test_agreement_rate(self):
        per_model = {
            "a": [_presence(Indicator.SIDEWALK), _presence()],
            "b": [_presence(Indicator.SIDEWALK), _presence(Indicator.SIDEWALK)],
        }
        assert agreement_rate(per_model, Indicator.SIDEWALK) == 0.5


class TestClassifier:
    def test_classifies_dataset(self, clients, small_dataset):
        classifier = LLMIndicatorClassifier(clients["gemini-1.5-pro"])
        outcomes = classifier.classify(small_dataset.images[:10])
        assert len(outcomes) == 10
        for outcome in outcomes:
            assert outcome.attempts == 1
            assert isinstance(outcome.presence, IndicatorPresence)

    def test_subset_indicators(self, clients, small_dataset):
        config = ClassifierConfig(
            indicators=(Indicator.SIDEWALK, Indicator.POWERLINE)
        )
        classifier = LLMIndicatorClassifier(
            clients["gpt-4o-mini"], config
        )
        outcome = classifier.classify_image(small_dataset[0])
        assert not outcome.presence[Indicator.APARTMENT]

    def test_language_config_changes_prompt(self, clients):
        classifier = LLMIndicatorClassifier(
            clients["gemini-1.5-pro"],
            ClassifierConfig(language=Language.CHINESE),
        )
        assert "人行道" in classifier.prompt

    def test_retries_rate_limits(self, calibration_dataset, small_dataset):
        limited = build_clients(
            [im.scene for im in calibration_dataset.images[:40]],
            model_ids=("gpt-4o-mini",),
            rate_limit_every=2,
        )["gpt-4o-mini"]
        classifier = LLMIndicatorClassifier(
            limited, ClassifierConfig(max_attempts=3)
        )
        outcomes = classifier.classify(small_dataset.images[:6])
        assert any(o.attempts > 1 for o in outcomes)

    def test_gives_up_after_max_attempts(self, small_dataset):
        class AlwaysLimited(ChatClient):
            def complete(self, request):
                raise RateLimitError("nope")

        classifier = LLMIndicatorClassifier(
            AlwaysLimited("gpt-4o-mini"),
            ClassifierConfig(max_attempts=2),
        )
        with pytest.raises(RuntimeError):
            classifier.classify_image(small_dataset[0])

    def test_recovers_from_garbage_responses(self, small_dataset):
        class FlakyFormat(ChatClient):
            def __init__(self):
                super().__init__("gpt-4o-mini")
                self.calls = 0

            def complete(self, request):
                self.calls += 1
                content = (
                    "I think maybe?"
                    if self.calls == 1
                    else "Yes, No, No, Yes, No, Yes"
                )
                return ChatResponse(
                    model=self.model_name,
                    content=content,
                    usage=Usage(1, 1),
                )

        classifier = LLMIndicatorClassifier(FlakyFormat())
        outcome = classifier.classify_image(small_dataset[0])
        assert outcome.attempts == 2

    def test_config_validates_attempts(self):
        with pytest.raises(ValueError):
            ClassifierConfig(max_attempts=0)


class TestVotingEnsemble:
    def test_needs_two_members(self, clients):
        with pytest.raises(ValueError):
            VotingEnsemble(
                {"solo": LLMIndicatorClassifier(clients["grok-2"])}
            )

    def test_ensemble_predictions(self, clients, small_dataset):
        ensemble = VotingEnsemble(
            {
                name: LLMIndicatorClassifier(clients[name])
                for name in ("gemini-1.5-pro", "claude-3.7", "grok-2")
            }
        )
        voted, members = ensemble.predictions_with_members(
            small_dataset.images[:15]
        )
        assert len(voted) == 15
        assert set(members) == {"gemini-1.5-pro", "claude-3.7", "grok-2"}
        # The vote must equal recomputing it from the member outputs.
        assert voted == vote_predictions(members)
