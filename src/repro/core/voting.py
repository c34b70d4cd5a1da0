"""Majority voting across multiple LLMs (§IV-C2).

The paper's final accuracy boost comes from a majority vote over the
top three models (Gemini, Claude, Grok): an indicator is declared
present when at least two of the three agree.  This module provides
both the pure vote combinator (usable on any prediction lists) and an
ensemble classifier that drives several
:class:`~repro.core.classifier.LLMIndicatorClassifier` instances and
votes their outputs.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from ..gsv.dataset import LabeledImage
from ..obs.trace import get_tracer
from ..resilience.breaker import CircuitBreaker
from .classifier import ClassificationError, LLMIndicatorClassifier
from .indicators import ALL_INDICATORS, Indicator, IndicatorPresence


def majority_vote(
    votes: Sequence[IndicatorPresence],
    quorum: int | None = None,
    indicators: Sequence[Indicator] = ALL_INDICATORS,
) -> IndicatorPresence:
    """Combine presence votes for one image.

    ``quorum`` defaults to a strict majority (two of three, three of
    four, ...).  Ties under an even vote count with the default quorum
    resolve to *present* only when the quorum is met.  ``indicators``
    restricts the vote to a subset (partial-indicator escalation: the
    cascade only brings the doubted indicators to the ensemble).
    """
    if not votes:
        raise ValueError("no votes to combine")
    threshold = quorum if quorum is not None else len(votes) // 2 + 1
    if not 1 <= threshold <= len(votes):
        raise ValueError(
            f"quorum {threshold} invalid for {len(votes)} voters"
        )
    present = []
    for indicator in indicators:
        agreement = sum(1 for vote in votes if vote[indicator])
        if agreement >= threshold:
            present.append(indicator)
    return IndicatorPresence(present)


def vote_predictions(
    per_model: Mapping[str, Sequence[IndicatorPresence]],
    quorum: int | None = None,
) -> list[IndicatorPresence]:
    """Vote aligned per-model prediction lists into one list."""
    if not per_model:
        raise ValueError("no model predictions")
    lengths = {len(preds) for preds in per_model.values()}
    if len(lengths) != 1:
        raise ValueError(f"prediction lists differ in length: {lengths}")
    names = sorted(per_model)
    n_images = lengths.pop()
    return [
        majority_vote(
            [per_model[name][index] for name in names], quorum=quorum
        )
        for index in range(n_images)
    ]


@dataclass(frozen=True)
class VoteRecord:
    """One image's vote with degradation provenance.

    ``members_failed`` lists members whose classification failed (or
    whose circuit was open); the vote then proceeded on the surviving
    quorum — the graceful-degradation path a production survey needs
    when one of three commercial APIs is down.  ``prompt_tokens`` /
    ``completion_tokens`` total the usage of the members that did vote.
    """

    image_id: str
    presence: IndicatorPresence
    members_voted: tuple[str, ...]
    members_failed: tuple[str, ...]
    prompt_tokens: int = 0
    completion_tokens: int = 0

    @property
    def degraded(self) -> bool:
        return bool(self.members_failed)


@dataclass
class VotingEnsemble:
    """Drive several classifiers and majority-vote their predictions.

    ``breakers`` optionally maps member names to per-endpoint
    :class:`~repro.resilience.breaker.CircuitBreaker` instances; a
    member whose circuit is open is skipped without burning attempts,
    and repeated member failures trip it.
    """

    classifiers: dict[str, LLMIndicatorClassifier]
    quorum: int | None = None
    breakers: dict[str, CircuitBreaker] | None = None

    def __post_init__(self) -> None:
        if len(self.classifiers) < 2:
            raise ValueError("an ensemble needs at least two classifiers")
        if self.breakers:
            unknown = set(self.breakers) - set(self.classifiers)
            if unknown:
                raise ValueError(
                    f"breakers for unknown members: {sorted(unknown)}"
                )

    def predictions(
        self, images: Sequence[LabeledImage]
    ) -> list[IndicatorPresence]:
        per_model = {
            name: classifier.predictions(images)
            for name, classifier in self.classifiers.items()
        }
        return vote_predictions(per_model, quorum=self.quorum)

    def predictions_with_members(
        self, images: Sequence[LabeledImage]
    ) -> tuple[list[IndicatorPresence], dict[str, list[IndicatorPresence]]]:
        """Voted predictions plus each member's own predictions."""
        per_model = {
            name: classifier.predictions(images)
            for name, classifier in self.classifiers.items()
        }
        return vote_predictions(per_model, quorum=self.quorum), per_model

    # -- graceful degradation ------------------------------------------

    def vote_image(
        self,
        image: LabeledImage,
        indicators: tuple[Indicator, ...] | None = None,
    ) -> VoteRecord:
        """Vote one image, dropping members that fail.

        The quorum adapts to the survivors: the configured ``quorum``
        applies while enough members voted, otherwise it falls back to
        a strict majority of the survivors.  ``indicators`` restricts
        both the member prompts and the vote to a subset (the cascade
        escalates only the doubted indicators).  Raises
        :class:`~repro.core.classifier.ClassificationError` only when
        *every* member fails.
        """
        with get_tracer().span(
            "survey.vote", image_id=image.image_id
        ) as span:
            record = self._vote_image(image, indicators)
            span.set(
                members=len(record.members_voted),
                degraded=record.degraded,
            )
            return record

    def _vote_image(
        self,
        image: LabeledImage,
        indicators: tuple[Indicator, ...] | None = None,
    ) -> VoteRecord:
        member_votes = [
            self._member_vote(name, image, indicators)
            for name in sorted(self.classifiers)
        ]
        votes: dict[str, IndicatorPresence] = {}
        failed: list[str] = []
        prompt_tokens = completion_tokens = 0
        for name, presence, usage in member_votes:
            if presence is None:
                failed.append(name)
            else:
                votes[name] = presence
            if usage is not None:
                prompt_tokens += usage.prompt_tokens
                completion_tokens += usage.completion_tokens
        if not votes:
            raise ClassificationError(
                f"all {len(self.classifiers)} ensemble members failed "
                f"on {image.image_id}"
            )
        threshold = len(votes) // 2 + 1
        if self.quorum is not None and self.quorum <= len(votes):
            threshold = self.quorum
        presence = majority_vote(
            [votes[name] for name in sorted(votes)],
            quorum=threshold,
            indicators=(
                ALL_INDICATORS if indicators is None else indicators
            ),
        )
        return VoteRecord(
            image_id=image.image_id,
            presence=presence,
            members_voted=tuple(sorted(votes)),
            members_failed=tuple(failed),
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
        )

    def _member_vote(
        self,
        name: str,
        image: LabeledImage,
        indicators: tuple[Indicator, ...] | None = None,
    ) -> tuple[str, IndicatorPresence | None, object]:
        """One member's vote on one image; ``None`` marks a failure.

        The third element is the member's token
        :class:`~repro.llm.base.Usage` (``None`` on failure — tokens a
        failed member burned are still visible in its client stats).
        """
        classifier = self.classifiers[name]
        breaker = (self.breakers or {}).get(name)
        if breaker is not None and not breaker.allow():
            return name, None, None
        try:
            outcome = classifier.classify_image(image, indicators=indicators)
        except ClassificationError:
            if breaker is not None:
                breaker.record_failure()
            return name, None, None
        if breaker is not None:
            breaker.record_success()
        return name, outcome.presence, outcome.usage

    def resilient_predictions(
        self, images: Sequence[LabeledImage]
    ) -> list[VoteRecord]:
        """Vote a batch image-by-image, surviving member outages."""
        return [self.vote_image(image) for image in images]
