"""repro — reproduction of "Decoding Neighborhood Environments with
Large Language Models" (DSN 2025).

The package decodes six environmental indicators (streetlight,
sidewalk, single-lane road, multilane road, powerline, apartment) from
street-view imagery two ways and compares them:

* a supervised YOLO-style detector trained from scratch
  (:mod:`repro.detect`), and
* zero-shot prompting of four (simulated, calibration-fitted)
  commercial vision LLMs (:mod:`repro.llm`), combined with prompt
  engineering, multilingual prompts, and majority voting
  (:mod:`repro.core`).

Quick start::

    from repro import build_survey_dataset, build_clients
    from repro import LLMIndicatorClassifier, ClassificationReport

    dataset = build_survey_dataset(n_images=200, seed=0)
    clients = build_clients([im.scene for im in dataset])
    classifier = LLMIndicatorClassifier(clients["gemini-1.5-pro"])
    predictions = classifier.predictions(dataset.images)
    report = ClassificationReport.from_predictions(
        [im.presence for im in dataset], predictions
    )
    print(report.rows())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from .core import (
    ALL_INDICATORS,
    ClassificationReport,
    ClassifierConfig,
    Indicator,
    IndicatorPresence,
    LLMIndicatorClassifier,
    NeighborhoodDecoder,
    PromptStyle,
    VotingEnsemble,
    build_parallel_prompt,
    build_sequential_prompt,
    majority_vote,
)
from .detect import (
    EvaluationReport,
    ModelConfig,
    NanoDetector,
    TrainConfig,
    evaluate_detector,
    train_detector,
)
from .gsv import (
    StreetViewClient,
    SurveyDataset,
    build_survey_dataset,
)
from .health import (
    HealthModel,
    build_tract_survey,
    fit_logistic,
    run_association_study,
)
from .llm import (
    ALL_MODEL_IDS,
    CachingChatClient,
    EvidenceModel,
    Language,
    SimulatedVLM,
    build_clients,
    calibrate_profiles,
)
from .parallel import ParallelExecutor
from .resilience import (
    CircuitBreaker,
    FaultSchedule,
    RetryPolicy,
    SurveyCheckpoint,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_INDICATORS",
    "ClassificationReport",
    "ClassifierConfig",
    "Indicator",
    "IndicatorPresence",
    "LLMIndicatorClassifier",
    "NeighborhoodDecoder",
    "PromptStyle",
    "VotingEnsemble",
    "build_parallel_prompt",
    "build_sequential_prompt",
    "majority_vote",
    "EvaluationReport",
    "ModelConfig",
    "NanoDetector",
    "TrainConfig",
    "evaluate_detector",
    "train_detector",
    "StreetViewClient",
    "SurveyDataset",
    "build_survey_dataset",
    "ALL_MODEL_IDS",
    "CachingChatClient",
    "EvidenceModel",
    "Language",
    "SimulatedVLM",
    "build_clients",
    "calibrate_profiles",
    "HealthModel",
    "build_tract_survey",
    "fit_logistic",
    "run_association_study",
    "ParallelExecutor",
    "CircuitBreaker",
    "FaultSchedule",
    "RetryPolicy",
    "SurveyCheckpoint",
    "__version__",
]
