"""The experiment suite: one runner per paper table/figure.

``ExperimentSuite`` lazily builds and caches the shared inputs — the
survey dataset, its splits, the calibrated LLM clients, and the
trained detector — then exposes one method per published result:

=================  ===========================================
``run_table1``     detector P/R/F1/mAP50 per class
``run_fig2``       augmentation ablation
``run_fig3``       Gaussian-noise SNR sweep
``run_table2``     example prompt/response matrix
``run_fig4``       parallel vs sequential prompting
``run_fig5``       per-LLM accuracy + majority voting
``run_tables3to6`` per-LLM per-class confusion tables
``run_fig6``       prompt-language sweep
``run_param``      temperature / top-p sweep
``run_prior``      prior-work comparison
=================  ===========================================

Each returns an :class:`~repro.experiments.results.ExperimentResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.classifier import ClassifierConfig, LLMIndicatorClassifier
from ..core.indicators import ALL_INDICATORS, Indicator
from ..core.languages import PAPER_QUESTION_ORDER
from ..core.metrics import ClassificationReport, accuracy_by_indicator
from ..core.prompts import PromptStyle, build_single_prompt
from ..core.voting import vote_predictions
from ..detect.evaluate import EvaluationReport, evaluate_detector
from ..detect.train import train_detector
from ..gsv.dataset import (
    DatasetSplits,
    SurveyDataset,
    augment_training_set,
    build_survey_dataset,
)
from ..llm.base import ImageAttachment
from ..llm.language import Language
from ..llm.models import SimulatedVLM
from ..llm.paper_targets import (
    ALL_MODEL_IDS,
    DISPLAY_NAMES,
    GEMINI_15_PRO,
    GPT_4O_MINI,
    PAPER_LANGUAGE_RECALL,
    PAPER_LLM_METRICS,
    PAPER_MODEL_ACCURACY,
    PAPER_PROMPT_STYLE_RECALL,
    PAPER_TEMPERATURE_F1,
    PAPER_TOP_P_F1,
    PAPER_VOTING_ACCURACY,
    VOTING_MODEL_IDS,
)
from ..llm.registry import build_clients
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from ..scene.noise import PAPER_SNR_LEVELS_DB, add_gaussian_noise
from .config import ExperimentConfig, paper_config
from .prior_work import prior_work_comparison
from .results import ExperimentResult

#: Paper Table I reference values (precision, recall, f1, mAP50).
PAPER_TABLE1 = {
    Indicator.STREETLIGHT: (0.993, 0.995, 0.994, 0.995),
    Indicator.SIDEWALK: (1.0, 0.890, 0.942, 0.989),
    Indicator.SINGLE_LANE_ROAD: (0.938, 0.871, 0.903, 0.980),
    Indicator.MULTILANE_ROAD: (0.949, 1.0, 0.974, 0.994),
    Indicator.POWERLINE: (1.0, 0.981, 0.990, 0.995),
    Indicator.APARTMENT: (0.954, 1.0, 0.977, 0.995),
}


@dataclass
class ExperimentSuite:
    """Caches shared inputs and runs every experiment.

    ``workers`` parallelizes the CPU-bound detector paths (tensor
    building, evaluation) across threads and, via :meth:`run_all`,
    runs independent experiments concurrently.  ``artifacts`` is an
    optional :class:`~repro.artifacts.ArtifactCache`: feature tensors,
    trained weights, and per-image detector predictions persist there,
    making a rerun of the suite near-instant.
    """

    config: ExperimentConfig = field(default_factory=paper_config)
    workers: int | str = 1
    artifacts: object | None = None
    _dataset: SurveyDataset | None = None
    _splits: DatasetSplits | None = None
    _clients: dict[str, SimulatedVLM] | None = None
    _detector_report: EvaluationReport | None = None
    _trained_model: object | None = None
    _predictions: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # shared inputs

    @property
    def dataset(self) -> SurveyDataset:
        if self._dataset is None:
            self._dataset = build_survey_dataset(
                n_images=self.config.n_images,
                size=self.config.image_size,
                seed=self.config.dataset_seed,
            )
        return self._dataset

    @property
    def splits(self) -> DatasetSplits:
        if self._splits is None:
            self._splits = self.dataset.split(seed=self.config.split_seed)
        return self._splits

    @property
    def clients(self) -> dict[str, SimulatedVLM]:
        if self._clients is None:
            calibration = build_survey_dataset(
                n_images=self.config.n_calibration_images,
                size=self.config.image_size,
                seed=self.config.calibration_seed,
            )
            self._clients = build_clients(
                [image.scene for image in calibration],
                evidence_seed=self.config.evidence_seed,
            )
        return self._clients

    @property
    def trained_detector(self):
        if self._trained_model is None:
            result = train_detector(
                self.splits.train,
                model_config=self.config.detector_model,
                train_config=self.config.detector_train,
                workers=self.workers,
                cache=self.artifacts,
            )
            self._trained_model = result.model
        return self._trained_model

    def cache_stats(self) -> dict:
        """Artifact-cache hit/miss counters (empty when caching is off)."""
        if self.artifacts is None:
            return {}
        return self.artifacts.stats()

    @property
    def truths(self):
        return [image.presence for image in self.dataset]

    def model_predictions(
        self,
        model_id: str,
        style: PromptStyle = PromptStyle.PARALLEL,
        language: Language = Language.ENGLISH,
        temperature: float = 1.0,
        top_p: float = 0.95,
    ):
        """Cached LLM predictions over the full dataset."""
        key = (model_id, style, language, temperature, top_p)
        if key not in self._predictions:
            classifier = LLMIndicatorClassifier(
                self.clients[model_id],
                ClassifierConfig(
                    style=style,
                    language=language,
                    temperature=temperature,
                    top_p=top_p,
                ),
            )
            self._predictions[key] = classifier.predictions(
                self.dataset.images
            )
        return self._predictions[key]

    # ------------------------------------------------------------------
    # Table I

    def run_table1(self) -> ExperimentResult:
        """Detector per-class metrics on the held-out test split."""
        if self._detector_report is None:
            self._detector_report = evaluate_detector(
                self.trained_detector,
                self.splits.test,
                workers=self.workers,
                cache=self.artifacts,
            )
        report = self._detector_report
        result = ExperimentResult(
            experiment_id="Table I",
            title="YOLO-analog detector accuracy",
            columns=[
                "label", "precision", "recall", "f1", "map50",
                "paper_f1", "paper_map50",
            ],
        )
        for indicator in ALL_INDICATORS:
            metrics = report.per_class[indicator]
            _, _, paper_f1, paper_map = PAPER_TABLE1[indicator]
            result.add_row(
                label=indicator.display_name,
                precision=metrics.precision,
                recall=metrics.recall,
                f1=metrics.f1,
                map50=metrics.ap50,
                paper_f1=paper_f1,
                paper_map50=paper_map,
            )
        result.add_row(
            label="Average",
            precision=report.mean_precision,
            recall=report.mean_recall,
            f1=report.mean_f1,
            map50=report.map50,
            paper_f1=0.963,
            paper_map50=0.991,
        )
        return result

    # ------------------------------------------------------------------
    # Fig. 2

    def run_fig2(self) -> ExperimentResult:
        """Augmentation ablation: baseline vs +rotations vs +crops.

        With an artifact cache attached, the sweep only pays for what
        is new: the augmented training sets contain every base image,
        whose feature tensors are already cached from the baseline
        run, so only the rotated/cropped copies are extracted.
        """
        baseline = evaluate_detector(
            self.trained_detector,
            self.splits.test,
            workers=self.workers,
            cache=self.artifacts,
        )

        rotated = augment_training_set(self.splits.train, add_crops=False)
        rotated_model = train_detector(
            rotated,
            model_config=self.config.detector_model,
            train_config=self.config.detector_train,
            workers=self.workers,
            cache=self.artifacts,
        ).model
        rotated_report = evaluate_detector(
            rotated_model,
            self.splits.test,
            workers=self.workers,
            cache=self.artifacts,
        )

        cropped = augment_training_set(
            self.splits.train, add_crops=True, seed=7
        )
        cropped_model = train_detector(
            cropped,
            model_config=self.config.detector_model,
            train_config=self.config.detector_train,
            workers=self.workers,
            cache=self.artifacts,
        ).model
        cropped_report = evaluate_detector(
            cropped_model,
            self.splits.test,
            workers=self.workers,
            cache=self.artifacts,
        )

        result = ExperimentResult(
            experiment_id="Fig. 2",
            title="Accuracy with augmentation (per-class F1)",
            columns=["label", "baseline", "rotations", "rot_plus_crop"],
        )
        for indicator in ALL_INDICATORS:
            result.add_row(
                label=indicator.display_name,
                baseline=baseline.per_class[indicator].f1,
                rotations=rotated_report.per_class[indicator].f1,
                rot_plus_crop=cropped_report.per_class[indicator].f1,
            )
        result.add_row(
            label="Average",
            baseline=baseline.mean_f1,
            rotations=rotated_report.mean_f1,
            rot_plus_crop=cropped_report.mean_f1,
        )
        result.notes.append(
            "paper: augmentation does not improve the average and hurts "
            "direction-bound classes (streetlight, apartment)"
        )
        return result

    # ------------------------------------------------------------------
    # Fig. 3

    def run_fig3(self) -> ExperimentResult:
        """Gaussian-noise robustness across SNR levels."""
        model = self.trained_detector
        result = ExperimentResult(
            experiment_id="Fig. 3",
            title="Impact of SNR on detector F1",
            columns=["snr_db", "f1", "map50"],
        )
        for snr_db in PAPER_SNR_LEVELS_DB:
            rng = np.random.default_rng(1000 + snr_db)
            report = evaluate_detector(
                model,
                self.splits.test,
                image_transform=lambda px, s=snr_db, r=rng: add_gaussian_noise(
                    px, s, r
                ),
            )
            result.add_row(snr_db=snr_db, f1=report.mean_f1, map50=report.map50)
        result.notes.append(
            "paper: >0.90 at SNR 25-30 dB, dropping to ≈0.60 at SNR 5 dB"
        )
        return result

    # ------------------------------------------------------------------
    # Table II

    def run_table2(self, image_index: int = 0) -> ExperimentResult:
        """Example per-question responses from all four models."""
        image = self.dataset[image_index]
        attachment = ImageAttachment(scene=image.scene)
        result = ExperimentResult(
            experiment_id="Table II",
            title=f"Example responses ({image.image_id})",
            columns=["question"] + [DISPLAY_NAMES[m] for m in ALL_MODEL_IDS],
        )
        for indicator in PAPER_QUESTION_ORDER:
            prompt = build_single_prompt(indicator)
            row: dict[str, object] = {"question": indicator.display_name}
            for model_id in ALL_MODEL_IDS:
                row[DISPLAY_NAMES[model_id]] = self.clients[model_id].ask(
                    prompt, attachment
                )
            result.add_row(**row)
        truth = ", ".join(
            ind.abbreviation
            for ind in ALL_INDICATORS
            if image.presence[ind]
        )
        result.notes.append(f"ground truth: {truth or 'none'}")
        return result

    # ------------------------------------------------------------------
    # Fig. 4

    def run_fig4(self) -> ExperimentResult:
        """Parallel vs sequential prompting (average recall)."""
        result = ExperimentResult(
            experiment_id="Fig. 4",
            title="Recall under parallel vs sequential prompts",
            columns=["model", "parallel", "sequential", "paper_parallel",
                     "paper_sequential"],
        )
        for model_id in (GEMINI_15_PRO, GPT_4O_MINI):
            recalls = {}
            for style in (PromptStyle.PARALLEL, PromptStyle.SEQUENTIAL):
                predictions = self.model_predictions(model_id, style=style)
                report = ClassificationReport.from_predictions(
                    self.truths, predictions
                )
                recalls[style] = report.mean_recall
            paper = PAPER_PROMPT_STYLE_RECALL[model_id]
            result.add_row(
                model=DISPLAY_NAMES[model_id],
                parallel=recalls[PromptStyle.PARALLEL],
                sequential=recalls[PromptStyle.SEQUENTIAL],
                paper_parallel=paper["parallel"],
                paper_sequential=paper["sequential"],
            )
        return result

    # ------------------------------------------------------------------
    # Fig. 5 + §IV-C2

    def run_fig5(self) -> ExperimentResult:
        """Per-LLM average accuracy and the top-3 majority vote."""
        result = ExperimentResult(
            experiment_id="Fig. 5",
            title="Accuracy of LLMs and majority voting",
            columns=["model"]
            + [ind.abbreviation for ind in ALL_INDICATORS]
            + ["average", "paper_average"],
        )
        per_model = {}
        for model_id in ALL_MODEL_IDS:
            predictions = self.model_predictions(model_id)
            per_model[model_id] = predictions
            accuracy = accuracy_by_indicator(self.truths, predictions)
            row: dict[str, object] = {"model": DISPLAY_NAMES[model_id]}
            for indicator in ALL_INDICATORS:
                row[indicator.abbreviation] = accuracy[indicator]
            row["average"] = float(
                np.mean([accuracy[ind] for ind in ALL_INDICATORS])
            )
            row["paper_average"] = PAPER_MODEL_ACCURACY[model_id]
            result.add_row(**row)

        voted = vote_predictions(
            {m: per_model[m] for m in VOTING_MODEL_IDS}
        )
        accuracy = accuracy_by_indicator(self.truths, voted)
        row = {"model": "Majority vote (top 3)"}
        for indicator in ALL_INDICATORS:
            row[indicator.abbreviation] = accuracy[indicator]
        row["average"] = float(
            np.mean([accuracy[ind] for ind in ALL_INDICATORS])
        )
        row["paper_average"] = 0.885
        result.add_row(**row)
        result.notes.append(
            "paper voting per-class: "
            + ", ".join(
                f"{ind.abbreviation}={PAPER_VOTING_ACCURACY[ind]:.3f}"
                for ind in ALL_INDICATORS
            )
        )
        return result

    # ------------------------------------------------------------------
    # Tables III-VI

    def run_tables3to6(self) -> dict[str, ExperimentResult]:
        """Per-class confusion tables for each model."""
        out = {}
        for model_id in ALL_MODEL_IDS:
            predictions = self.model_predictions(model_id)
            report = ClassificationReport.from_predictions(
                self.truths, predictions
            )
            result = ExperimentResult(
                experiment_id=f"Table {_table_number(model_id)}",
                title=f"Accuracy of {DISPLAY_NAMES[model_id]}",
                columns=[
                    "label", "precision", "recall", "f1", "accuracy",
                    "paper_precision", "paper_recall",
                ],
            )
            for indicator in ALL_INDICATORS:
                counts = report.counts[indicator]
                target = PAPER_LLM_METRICS[model_id][indicator]
                result.add_row(
                    label=indicator.display_name,
                    precision=counts.precision,
                    recall=counts.recall,
                    f1=counts.f1,
                    accuracy=counts.accuracy,
                    paper_precision=target.precision,
                    paper_recall=target.recall,
                )
            result.add_row(
                label="Average",
                precision=report.mean_precision,
                recall=report.mean_recall,
                f1=report.mean_f1,
                accuracy=report.mean_accuracy,
                paper_precision=float(
                    np.mean(
                        [
                            PAPER_LLM_METRICS[model_id][i].precision
                            for i in ALL_INDICATORS
                        ]
                    )
                ),
                paper_recall=float(
                    np.mean(
                        [
                            PAPER_LLM_METRICS[model_id][i].recall
                            for i in ALL_INDICATORS
                        ]
                    )
                ),
            )
            out[model_id] = result
        return out

    # ------------------------------------------------------------------
    # Fig. 6

    def run_fig6(self) -> ExperimentResult:
        """Prompt-language sweep on Gemini 1.5 Pro."""
        result = ExperimentResult(
            experiment_id="Fig. 6",
            title="Gemini recall by prompt language",
            columns=["language", "recall", "paper_recall", "SW_recall",
                     "SR_recall"],
        )
        for language in (
            Language.ENGLISH,
            Language.BENGALI,
            Language.SPANISH,
            Language.CHINESE,
        ):
            predictions = self.model_predictions(
                GEMINI_15_PRO, language=language
            )
            report = ClassificationReport.from_predictions(
                self.truths, predictions
            )
            result.add_row(
                language=language.value,
                recall=report.mean_recall,
                paper_recall=PAPER_LANGUAGE_RECALL[language],
                SW_recall=report.counts[Indicator.SIDEWALK].recall,
                SR_recall=report.counts[
                    Indicator.SINGLE_LANE_ROAD
                ].recall,
            )
        result.notes.append(
            "paper: zh sidewalk recall ≈ 0.01; es single-lane recall ≈ 0.18"
        )
        return result

    # ------------------------------------------------------------------
    # §IV-C4

    def run_param(self) -> ExperimentResult:
        """Temperature and top-p sweeps on Gemini 1.5 Pro."""
        result = ExperimentResult(
            experiment_id="§IV-C4",
            title="Parameter tuning (Gemini F1)",
            columns=["parameter", "value", "f1", "paper_f1"],
        )
        for temperature, paper_f1 in sorted(PAPER_TEMPERATURE_F1.items()):
            predictions = self.model_predictions(
                GEMINI_15_PRO, temperature=temperature
            )
            report = ClassificationReport.from_predictions(
                self.truths, predictions
            )
            result.add_row(
                parameter="temperature",
                value=temperature,
                f1=report.mean_f1,
                paper_f1=paper_f1,
            )
        for top_p, paper_f1 in sorted(PAPER_TOP_P_F1.items()):
            predictions = self.model_predictions(GEMINI_15_PRO, top_p=top_p)
            report = ClassificationReport.from_predictions(
                self.truths, predictions
            )
            result.add_row(
                parameter="top_p",
                value=top_p,
                f1=report.mean_f1,
                paper_f1=paper_f1,
            )
        result.notes.append(
            "paper: sampling parameters mainly influence output variety, "
            "not task performance (F1 within ±0.03 of default)"
        )
        return result

    # ------------------------------------------------------------------
    # §IV-B3

    def run_prior(self) -> ExperimentResult:
        """Prior-work comparison against our Table I metrics."""
        if self._detector_report is None:
            self.run_table1()
        return prior_work_comparison(self._detector_report)

    # ------------------------------------------------------------------
    # the whole suite

    def run_all(
        self,
        names: list[str] | None = None,
        workers: int | str | None = None,
    ) -> "SuiteRun":
        """Run experiments (default: all of them), optionally concurrently.

        Shared inputs — dataset, splits, calibrated clients, the
        trained detector, and the default full-dataset predictions of
        every model — are warmed *before* the fan-out, so concurrent
        experiments read the caches instead of racing to build them.
        The fan-out runs on threads, so experiments share those
        in-memory caches; their heavy lifting is numpy (releases the
        GIL) and may fan out further internally via ``self.workers``.
        """
        from ..parallel import ParallelExecutor

        names = list(PAPER_RUNNERS) if names is None else list(names)
        unknown = [name for name in names if name not in PAPER_RUNNERS]
        if unknown:
            raise ValueError(f"unknown experiments: {unknown}")
        workers = self.workers if workers is None else workers

        registry = get_metrics()
        metrics_before = registry.snapshot()
        started = time.perf_counter()
        with get_tracer().span("suite", experiments=len(names)):
            _ = self.dataset, self.splits, self.trained_detector
            if any(name in _LLM_EXPERIMENTS for name in names):
                _ = self.clients
                for model_id in ALL_MODEL_IDS:
                    self.model_predictions(model_id)

            executor = ParallelExecutor(workers=workers)
            outcomes = executor.run(
                lambda name: PAPER_RUNNERS[name](self), names
            )
            results = {
                name: outcome.result()
                for name, outcome in zip(names, outcomes)
            }
        return SuiteRun(
            results=results,
            elapsed_s=time.perf_counter() - started,
            cache_stats=self.cache_stats(),
            metrics=registry.delta_since(metrics_before),
        )


@dataclass
class SuiteRun:
    """Every result of one suite invocation, plus how it was produced.

    ``cache_stats`` carries the artifact cache's hit/miss counters so
    suite consumers (the CLI, the tests) can report how much
    work was replayed from disk instead of recomputed.  ``metrics`` is
    the observability-counter delta the run moved (see
    :mod:`repro.obs.metrics`) — empty when nothing instrumented ran.
    """

    results: dict[str, list[ExperimentResult]]
    elapsed_s: float
    cache_stats: dict
    metrics: dict = field(default_factory=dict)

    def all_results(self) -> list[ExperimentResult]:
        return [result for group in self.results.values() for result in group]

    def render_summary(self) -> str:
        lines = [
            f"suite: {len(self.results)} experiments in {self.elapsed_s:.1f}s"
        ]
        if self.cache_stats:
            lines.append(
                "artifact cache: "
                f"{self.cache_stats['hits']} hits, "
                f"{self.cache_stats['misses']} misses"
            )
        return "\n".join(lines)


def _as_results(outcome) -> list[ExperimentResult]:
    if isinstance(outcome, dict):
        return list(outcome.values())
    if isinstance(outcome, list):
        return outcome
    return [outcome]


#: Experiments that consume the simulated LLM clients; a ``run_all``
#: over a detector-only subset skips calibrating and pre-warming them.
_LLM_EXPERIMENTS = frozenset(
    {"table2", "fig4", "fig5", "tables3to6", "fig6", "param"}
)

#: Experiment name → runner over a suite, returning a result list.
#: The CLI builds its menu from this; :meth:`ExperimentSuite.run_all`
#: fans out over it.
PAPER_RUNNERS = {
    "table1": lambda s: _as_results(s.run_table1()),
    "fig2": lambda s: _as_results(s.run_fig2()),
    "fig3": lambda s: _as_results(s.run_fig3()),
    "table2": lambda s: _as_results(s.run_table2()),
    "fig4": lambda s: _as_results(s.run_fig4()),
    "fig5": lambda s: _as_results(s.run_fig5()),
    "tables3to6": lambda s: _as_results(s.run_tables3to6()),
    "fig6": lambda s: _as_results(s.run_fig6()),
    "param": lambda s: _as_results(s.run_param()),
    "prior": lambda s: _as_results(s.run_prior()),
}


def _table_number(model_id: str) -> str:
    return {
        "gpt-4o-mini": "III",
        "gemini-1.5-pro": "IV",
        "grok-2": "V",
        "claude-3.7": "VI",
    }[model_id]
