"""Core contribution: LLM-based neighborhood environment decoding."""

from .classifier import (
    ClassificationError,
    ClassificationOutcome,
    ClassifierConfig,
    LLMIndicatorClassifier,
)
from .fewshot import (
    EXAMPLE_MARKERS,
    build_few_shot_messages,
    build_few_shot_request,
)
from .indicators import (
    ALL_INDICATORS,
    Indicator,
    IndicatorPresence,
    PAPER_OBJECT_COUNTS,
)
from .languages import (
    CONJUNCTIONS,
    FORMAT_HEADERS,
    PAPER_QUESTION_ORDER,
    QUESTIONS,
    SEQUENTIAL_CLAUSES,
    SEQUENTIAL_LEADS,
)
from .metrics import (
    ClassificationReport,
    ConfusionCounts,
    PresenceAccumulator,
    accuracy_by_indicator,
)
from .parsing import (
    ParsedAnswers,
    ResponseParseError,
    answers_to_presence,
    extract_decisions,
    parse_answers,
    presence_to_answer_text,
)
from .pipeline import (
    FailedLocation,
    LocationResult,
    NeighborhoodDecoder,
    SurveyReport,
)
from .prompts import (
    PromptStyle,
    build_parallel_prompt,
    build_sequential_prompt,
    build_single_prompt,
    prompt_for_style,
)
from .voting import (
    VoteRecord,
    VotingEnsemble,
    majority_vote,
    vote_predictions,
)

__all__ = [
    "EXAMPLE_MARKERS",
    "build_few_shot_messages",
    "build_few_shot_request",
    "ClassificationError",
    "ClassificationOutcome",
    "ClassifierConfig",
    "LLMIndicatorClassifier",
    "ALL_INDICATORS",
    "Indicator",
    "IndicatorPresence",
    "PAPER_OBJECT_COUNTS",
    "CONJUNCTIONS",
    "FORMAT_HEADERS",
    "PAPER_QUESTION_ORDER",
    "QUESTIONS",
    "SEQUENTIAL_CLAUSES",
    "SEQUENTIAL_LEADS",
    "ClassificationReport",
    "ConfusionCounts",
    "PresenceAccumulator",
    "accuracy_by_indicator",
    "ParsedAnswers",
    "ResponseParseError",
    "answers_to_presence",
    "extract_decisions",
    "parse_answers",
    "presence_to_answer_text",
    "FailedLocation",
    "LocationResult",
    "NeighborhoodDecoder",
    "SurveyReport",
    "PromptStyle",
    "build_parallel_prompt",
    "build_sequential_prompt",
    "build_single_prompt",
    "prompt_for_style",
    "VoteRecord",
    "VotingEnsemble",
    "majority_vote",
    "vote_predictions",
]
