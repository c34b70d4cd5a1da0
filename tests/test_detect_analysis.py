"""Tests for detection error analysis."""

import pytest

from repro.core.indicators import ALL_INDICATORS
from repro.detect import (
    ModelConfig,
    TrainConfig,
    analyze_errors,
    train_detector,
)


class TestErrorAnalysis:
    @pytest.fixture(scope="class")
    def trained(self, small_dataset):
        splits = small_dataset.split(seed=0)
        result = train_detector(
            splits.train,
            model_config=ModelConfig(hidden=64),
            train_config=TrainConfig(epochs=6, seed=0),
        )
        return result.model, splits

    def test_taxonomy_partitions_ground_truth(self, trained):
        model, splits = trained
        report = analyze_errors(model, splits.test)
        for indicator in ALL_INDICATORS:
            breakdown = report.per_class[indicator]
            expected = sum(
                image.count_of(indicator) for image in splits.test
            )
            assert breakdown.n_ground_truth == expected

    def test_render_contains_all_classes(self, trained):
        model, splits = trained
        text = analyze_errors(model, splits.test).render()
        for indicator in ALL_INDICATORS:
            assert indicator.display_name in text

    def test_dominant_error_labels(self, trained):
        model, splits = trained
        report = analyze_errors(model, splits.test)
        valid = {
            "none", "missed", "mislocalized", "background_fp", "duplicates",
        }
        for row in report.rows():
            assert row["dominant_error"] in valid

    def test_threshold_validation(self, trained):
        model, splits = trained
        with pytest.raises(ValueError):
            analyze_errors(model, splits.test, hit_iou=0.1, loc_iou=0.5)

    def test_counts_nonnegative(self, trained):
        model, splits = trained
        report = analyze_errors(model, splits.test)
        for breakdown in report.per_class.values():
            for value in (
                breakdown.detected,
                breakdown.mislocalized,
                breakdown.missed,
                breakdown.duplicates,
                breakdown.background_fp,
            ):
                assert value >= 0
