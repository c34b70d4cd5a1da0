"""Tests for label-efficiency and weather robustness."""

import pytest

from repro.detect.train import TrainConfig
from repro.experiments import ExperimentConfig, ExperimentSuite
from repro.experiments.extensions import (
    run_label_efficiency,
    run_weather_robustness,
)


@pytest.fixture(scope="module")
def tiny_suite():
    return ExperimentSuite(
        config=ExperimentConfig(
            n_images=96,
            image_size=256,
            n_calibration_images=160,
            detector_train=TrainConfig(epochs=4, batch_size=16),
        )
    )


class TestLabelEfficiency:
    def test_learning_curve_shape(self, tiny_suite):
        result = run_label_efficiency(tiny_suite, fractions=(0.25, 1.0))
        assert len(result.rows) == 2
        budgets = result.column("labeled_images")
        assert budgets[0] < budgets[1]
        # More labels never hurt by a large margin.
        f1s = result.column("detector_f1")
        assert f1s[1] >= f1s[0] - 0.10

    def test_llm_reference_constant(self, tiny_suite):
        result = run_label_efficiency(tiny_suite, fractions=(0.25, 1.0))
        references = set(result.column("llm_f1_zero_labels"))
        assert len(references) == 1

    def test_rejects_bad_fractions(self, tiny_suite):
        with pytest.raises(ValueError):
            run_label_efficiency(tiny_suite, fractions=(0.0, 1.5))


class TestWeatherRobustness:
    def test_severe_fog_and_dusk_hurt(self, tiny_suite):
        """At full severity the global-appearance shifts must cost F1.

        (Rain is excluded here: at this tiny training scale the weak
        detector's F1 is noisy enough that local streak overlays can
        swing either way; the full-scale behaviour is covered by the
        `python -m repro weather` experiment.)
        """
        result = run_weather_robustness(tiny_suite, severity=1.0)
        clear = result.row_by("condition", "clear")["f1"]
        assert result.row_by("condition", "fog")["f1"] < clear
        assert result.row_by("condition", "dusk")["f1"] < clear

    def test_f1_values_valid(self, tiny_suite):
        result = run_weather_robustness(tiny_suite, severity=0.75)
        for row in result.rows:
            assert 0.0 <= row["f1"] <= 1.0

    def test_all_conditions_present(self, tiny_suite):
        result = run_weather_robustness(tiny_suite)
        conditions = set(result.column("condition"))
        assert conditions == {"clear", "fog", "rain", "dusk"}
