"""Tests for few-shot prompting and the §V extension experiments."""

import pytest

from repro.core import ClassifierConfig, LLMIndicatorClassifier, PromptStyle
from repro.core.fewshot import (
    EXAMPLE_MARKERS,
    build_few_shot_messages,
    build_few_shot_request,
)
from repro.core.metrics import ClassificationReport
from repro.llm import GEMINI_15_PRO, Language


class TestFewShotBuilding:
    def test_messages_carry_images_and_answers(self, small_dataset):
        exemplars = small_dataset.images[:2]
        messages = build_few_shot_messages(exemplars)
        assert len(messages) == 2
        for message, exemplar in zip(messages, exemplars):
            assert message.images[0].scene == exemplar.scene
            assert message.text.startswith("Example:")

    def test_requires_exemplars(self):
        with pytest.raises(ValueError):
            build_few_shot_messages([])

    def test_request_final_image_is_target(self, small_dataset):
        request = build_few_shot_request(
            model=GEMINI_15_PRO,
            image=small_dataset[5],
            exemplars=small_dataset.images[:3],
        )
        assert request.images[-1].scene == small_dataset[5].scene
        assert len(request.images) == 4

    def test_count_exemplars(self, small_dataset):
        request = build_few_shot_request(
            model=GEMINI_15_PRO,
            image=small_dataset[5],
            exemplars=small_dataset.images[:3],
            language=Language.CHINESE,
        )
        # One exemplar block per exemplar image, in the prompt's language.
        text = request.user_text
        assert text.count(EXAMPLE_MARKERS[Language.CHINESE]) == 3
        assert sum(text.count(marker) for marker in EXAMPLE_MARKERS.values()) == 3

    def test_config_rejects_fewshot_with_sequential(self, small_dataset):
        with pytest.raises(ValueError):
            ClassifierConfig(
                style=PromptStyle.SEQUENTIAL,
                few_shot_exemplars=tuple(small_dataset.images[:1]),
            )


class TestFewShotEffect:
    def test_improves_chinese_sidewalk_recall(
        self, clients, small_dataset, calibration_dataset
    ):
        truths = [image.presence for image in small_dataset]
        zero = LLMIndicatorClassifier(
            clients[GEMINI_15_PRO],
            ClassifierConfig(language=Language.CHINESE),
        ).predictions(small_dataset.images)
        few = LLMIndicatorClassifier(
            clients[GEMINI_15_PRO],
            ClassifierConfig(
                language=Language.CHINESE,
                few_shot_exemplars=tuple(calibration_dataset.images[:3]),
            ),
        ).predictions(small_dataset.images)
        zero_recall = ClassificationReport.from_predictions(
            truths, zero
        ).mean_recall
        few_recall = ClassificationReport.from_predictions(
            truths, few
        ).mean_recall
        assert few_recall > zero_recall

    def test_no_effect_on_english(
        self, clients, small_dataset, calibration_dataset
    ):
        """English has no language penalty to mitigate."""
        truths = [image.presence for image in small_dataset]
        zero = LLMIndicatorClassifier(
            clients[GEMINI_15_PRO], ClassifierConfig()
        ).predictions(small_dataset.images)
        few = LLMIndicatorClassifier(
            clients[GEMINI_15_PRO],
            ClassifierConfig(
                few_shot_exemplars=tuple(calibration_dataset.images[:2])
            ),
        ).predictions(small_dataset.images)
        zero_recall = ClassificationReport.from_predictions(
            truths, zero
        ).mean_recall
        few_recall = ClassificationReport.from_predictions(
            truths, few
        ).mean_recall
        assert abs(few_recall - zero_recall) < 0.06


class TestExtensionExperiments:
    @pytest.fixture(scope="class")
    def tiny_suite(self):
        from repro.detect.train import TrainConfig
        from repro.experiments import ExperimentConfig, ExperimentSuite

        return ExperimentSuite(
            config=ExperimentConfig(
                n_images=96,
                image_size=256,
                n_calibration_images=160,
                detector_train=TrainConfig(epochs=4, batch_size=16),
            )
        )

    def test_label_noise_rows(self, tiny_suite):
        from repro.experiments.extensions import run_label_noise

        result = run_label_noise(tiny_suite, jitters=(0.0, 0.03))
        assert len(result.rows) == 2
        assert result.rows[0]["condition"] == "clean labels"

    def test_multi_frame_union_no_worse(self, tiny_suite):
        from repro.experiments.extensions import run_multi_frame

        result = run_multi_frame(tiny_suite)
        for row in result.rows:
            single = row["single_frame"]
            union = row["four_frame_union"]
            if single == single and union == union:  # both non-NaN
                assert union >= single - 1e-9

    def test_few_shot_language_experiment(self, tiny_suite):
        from repro.experiments.extensions import run_few_shot_languages

        result = run_few_shot_languages(tiny_suite, n_exemplars=2)
        zh = result.row_by("language", "zh")
        assert zh["few_shot_recall"] >= zh["zero_shot_recall"]

    def test_cost_accounting_rows(self, tiny_suite):
        from repro.experiments.extensions import run_cost_accounting

        tiny_suite.model_predictions(GEMINI_15_PRO)
        result = run_cost_accounting(tiny_suite)
        approaches = [row["approach"] for row in result.rows]
        assert "trained detector" in approaches
        vote = next(r for r in result.rows if "vote" in r["approach"])
        single = next(r for r in result.rows if "single" in r["approach"])
        assert vote["tokens"] == 3 * single["tokens"]


class TestCLI:
    def test_list_command(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "fig6" in out

    def test_unknown_scale_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["table1", "--scale", "galactic"])

    def test_runs_param_experiment_smoke(self, capsys):
        from repro.cli import main

        assert main(["fig4", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out
