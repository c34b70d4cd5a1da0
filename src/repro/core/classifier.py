"""Driving an LLM over survey images: prompt → request → parsed answers.

``LLMIndicatorClassifier`` is the workhorse of the paper's evaluation:
it builds the prompt for the configured style/language, attaches the
image, calls the chat client with bounded retry (rate limits and
transient server errors are real failure modes of the commercial
APIs), parses the Yes/No answers, and returns per-image
:class:`~repro.core.indicators.IndicatorPresence` predictions.

Retry is delegated to the shared
:class:`~repro.resilience.retry.RetryPolicy`, so backoff never sleeps
after the final failed attempt and all waiting goes through an
injectable clock.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from ..gsv.dataset import LabeledImage
from ..llm.base import (
    DEFAULT_TEMPERATURE,
    DEFAULT_TOP_P,
    ChatClient,
    ChatMessage,
    ChatRequest,
    ChatResponse,
    ImageAttachment,
    UnsentError,
    Usage,
    complete_seats,
)
from ..llm.errors import RateLimitError, ServerError
from ..llm.language import Language
from ..resilience.clock import Clock, WallClock
from ..resilience.retry import RetryPolicy, RetryStats
from .indicators import Indicator, IndicatorPresence
from .languages import PAPER_QUESTION_ORDER
from .parsing import ResponseParseError, answers_to_presence, parse_answers
from .prompts import PromptStyle, prompt_for_style


class ClassificationError(RuntimeError):
    """An image could not be classified within the retry budget."""


@dataclass
class ClassifierConfig:
    """Prompting and retry configuration.

    ``few_shot_exemplars`` prepends labeled example images to every
    request (the §V cross-lingual mitigation); it requires the
    parallel prompt style.

    ``retry`` overrides ``max_attempts``/``backoff_s`` with a fully
    configured policy; when absent a policy is derived from them
    (full-jitter exponential backoff scaled by ``backoff_s``).
    """

    style: PromptStyle = PromptStyle.PARALLEL
    language: Language = Language.ENGLISH
    indicators: tuple[Indicator, ...] = PAPER_QUESTION_ORDER
    temperature: float = DEFAULT_TEMPERATURE
    top_p: float = DEFAULT_TOP_P
    max_attempts: int = 4
    backoff_s: float = 0.0  # keep zero in tests/benches; >0 in production
    few_shot_exemplars: tuple = ()
    retry: RetryPolicy | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.few_shot_exemplars and self.style is not PromptStyle.PARALLEL:
            raise ValueError(
                "few-shot exemplars require the parallel prompt style"
            )

    def retry_policy(self) -> RetryPolicy:
        """The configured policy, or one derived from the legacy knobs."""
        if self.retry is not None:
            return self.retry
        return RetryPolicy(
            max_attempts=self.max_attempts, base_delay_s=self.backoff_s
        )


@dataclass
class ClassificationOutcome:
    """Per-image prediction with provenance.

    ``usage`` totals the tokens this classification spent across *all*
    attempts (a parse-failed reply still billed its tokens), so
    per-call attribution — the cascade router's per-tier cost books —
    never undercounts retries.  ``indicators`` records which questions
    were actually asked (the full configured set, or the escalated
    subset on a partial-indicator call).
    """

    image_id: str
    presence: IndicatorPresence
    raw_response: str
    attempts: int
    usage: Usage | None = None
    indicators: tuple[Indicator, ...] = ()


@dataclass
class LLMIndicatorClassifier:
    """Classify images with one LLM under one prompting configuration."""

    client: ChatClient
    config: ClassifierConfig = field(default_factory=ClassifierConfig)
    clock: Clock = field(default_factory=WallClock)
    retry_stats: RetryStats = field(default_factory=RetryStats)

    RETRYABLE = (RateLimitError, ServerError, ResponseParseError)

    @property
    def prompt(self) -> str:
        return prompt_for_style(
            self.config.style, self.config.language, self.config.indicators
        )

    def prompt_for(self, indicators: tuple[Indicator, ...]) -> str:
        """The configured prompt restricted to an indicator subset."""
        return prompt_for_style(
            self.config.style, self.config.language, indicators
        )

    def classify_image(
        self,
        image: LabeledImage,
        indicators: tuple[Indicator, ...] | None = None,
    ) -> ClassificationOutcome:
        """Classify a single image, retrying transient failures.

        ``indicators`` restricts the questions to a subset of the
        configured ones (the cascade's partial-indicator escalation:
        ask only about the doubted indicators instead of all six).
        The simulated models answer each question independently of the
        others in the prompt, so a subset answer for an indicator is
        bit-equal to the full-prompt answer for it.

        Raises :class:`ClassificationError` (a ``RuntimeError``) when
        the retry budget is exhausted.
        """
        return self._classify(image, self._asked(indicators))

    def _asked(
        self, indicators: tuple[Indicator, ...] | None
    ) -> tuple[Indicator, ...]:
        """The questions to ask: the configured set or a subset of it."""
        asked = self.config.indicators if indicators is None else indicators
        if not asked:
            raise ValueError("no indicators to classify")
        unknown = set(asked) - set(self.config.indicators)
        if unknown:
            raise ValueError(
                f"indicators outside the configured set: {sorted(unknown)}"
            )
        return asked

    def _classify(
        self,
        image: LabeledImage,
        asked: tuple[Indicator, ...],
        first: ChatResponse | Exception | None = None,
    ) -> ClassificationOutcome:
        """Classify ``image`` on validated indicators under the retry policy.

        ``first`` is attempt 1 when it was already sent — the image's
        seat of a batched window, holding its response or its error.
        Every later attempt sends a fresh request straight to the
        client, so retries, usage and attempt counts are what the
        one-by-one path records.
        """
        spent: list[Usage] = []

        def settle(response: ChatResponse) -> tuple[str, IndicatorPresence]:
            if response.usage is not None:
                spent.append(response.usage)
            parsed = parse_answers(
                response.content,
                expected=len(asked),
                language=self.config.language,
            )
            return response.content, answers_to_presence(parsed, asked)

        outcome = self.config.retry_policy().execute(
            lambda: settle(self.client.complete(self._request(image, asked))),
            first=None if first is None else lambda: settle(_seat(first)),
            retryable=self.RETRYABLE,
            clock=self.clock,
            stats=self.retry_stats,
        )
        if not outcome.ok:
            raise ClassificationError(
                f"classification of {image.image_id} failed after "
                f"{outcome.attempts} attempts"
            ) from outcome.error
        text, presence = outcome.value
        usage = (
            Usage(
                prompt_tokens=sum(u.prompt_tokens for u in spent),
                completion_tokens=sum(u.completion_tokens for u in spent),
            )
            if spent
            else None
        )
        return ClassificationOutcome(
            image_id=image.image_id,
            presence=presence,
            raw_response=text,
            attempts=outcome.attempts,
            usage=usage,
            indicators=tuple(asked),
        )

    def _request(
        self,
        image: LabeledImage,
        indicators: tuple[Indicator, ...],
    ) -> ChatRequest:
        """The chat request for ``image`` (zero- or few-shot).

        The request built for the full indicator set is identical to
        what ``ChatClient.ask`` would build, so responses stay
        bit-equal to the legacy path.  Building it bills nothing: the
        caller sends it, alone or in a location's batched window.
        """
        if self.config.few_shot_exemplars:
            from .fewshot import build_few_shot_request

            return build_few_shot_request(
                model=self.client.model_name,
                image=image,
                exemplars=self.config.few_shot_exemplars,
                language=self.config.language,
                indicators=indicators,
                temperature=self.config.temperature,
                top_p=self.config.top_p,
            )
        return ChatRequest(
            model=self.client.model_name,
            messages=(
                ChatMessage(
                    role="user",
                    text=self.prompt_for(indicators),
                    images=(ImageAttachment(scene=image.scene),),
                ),
            ),
            temperature=self.config.temperature,
            top_p=self.config.top_p,
        )

    def classify(
        self,
        images: Sequence[LabeledImage],
        indicators: tuple[Indicator, ...] | None = None,
    ) -> list[ClassificationOutcome]:
        """Classify a batch of images (one survey location's captures).

        The indicator set is validated, every image's request is built
        up front and the whole set goes out as one window
        (:func:`~repro.llm.base.complete_seats`), so a survey location
        pays one LLM round trip instead of one per image.  Each image
        then runs its own retry loop with its seat as attempt 1, and
        every retry goes straight to the client's ``complete``.  A seat
        the window never sent (an :class:`~repro.llm.base.UnsentError`
        behind an earlier failure) spent no attempt: its image sends
        attempt 1 fresh.
        """
        asked = self._asked(indicators)
        seats = complete_seats(
            self.client, [self._request(image, asked) for image in images]
        )
        return [
            self._classify(
                image,
                asked,
                first=None if isinstance(seat, UnsentError) else seat,
            )
            for image, seat in zip(images, seats)
        ]

    def predictions(
        self, images: Sequence[LabeledImage]
    ) -> list[IndicatorPresence]:
        """Batch classify, returning just the presence predictions."""
        return [outcome.presence for outcome in self.classify(images)]


def _seat(outcome: ChatResponse | Exception) -> ChatResponse:
    """A batched seat's response, or raise the error it failed with."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
