"""Tests for detection evaluation (matching, AP, operating points)."""

import numpy as np
import pytest

from repro.detect import (
    average_precision,
    best_f1_operating_point,
    match_detections,
)


def _boxes(*rows):
    return np.asarray(rows, dtype=np.float64).reshape(-1, 4)


class TestMatching:
    def test_perfect_match(self):
        gt = [_boxes([0.1, 0.1, 0.5, 0.5])]
        det = [_boxes([0.1, 0.1, 0.5, 0.5])]
        scores = [np.array([0.9])]
        pooled_scores, tp, n_gt = match_detections(det, scores, gt)
        assert n_gt == 1
        assert tp.tolist() == [True]

    def test_low_iou_not_matched(self):
        gt = [_boxes([0.1, 0.1, 0.3, 0.3])]
        det = [_boxes([0.6, 0.6, 0.9, 0.9])]
        scores = [np.array([0.9])]
        _, tp, _ = match_detections(det, scores, gt)
        assert tp.tolist() == [False]

    def test_duplicate_detection_counts_one_tp(self):
        gt = [_boxes([0.1, 0.1, 0.5, 0.5])]
        det = [_boxes([0.1, 0.1, 0.5, 0.5], [0.12, 0.1, 0.52, 0.5])]
        scores = [np.array([0.9, 0.8])]
        _, tp, _ = match_detections(det, scores, gt)
        assert tp.sum() == 1

    def test_higher_score_matched_first(self):
        gt = [_boxes([0.1, 0.1, 0.5, 0.5])]
        det = [_boxes([0.1, 0.1, 0.5, 0.5], [0.1, 0.1, 0.5, 0.5])]
        scores = [np.array([0.5, 0.95])]
        pooled_scores, tp, _ = match_detections(det, scores, gt)
        assert pooled_scores[0] == 0.95
        assert tp.tolist() == [True, False]

    def test_multi_image_pooling(self):
        gt = [_boxes([0.1, 0.1, 0.5, 0.5]), _boxes([0.2, 0.2, 0.6, 0.6])]
        det = [_boxes([0.1, 0.1, 0.5, 0.5]), np.zeros((0, 4))]
        scores = [np.array([0.9]), np.zeros(0)]
        _, tp, n_gt = match_detections(det, scores, gt)
        assert n_gt == 2
        assert tp.sum() == 1


class TestAveragePrecision:
    def test_perfect_detector(self):
        tp = np.array([True, True, True])
        assert average_precision(tp, 3) == pytest.approx(1.0, abs=0.01)

    def test_all_false_positives(self):
        tp = np.array([False, False])
        assert average_precision(tp, 2) == 0.0

    def test_no_detections(self):
        assert average_precision(np.zeros(0, dtype=bool), 3) == 0.0

    def test_no_ground_truth_is_nan(self):
        assert np.isnan(average_precision(np.array([True]), 0))

    def test_half_recall(self):
        # One TP then nothing: AP ≈ recall achieved × precision 1.
        tp = np.array([True])
        ap = average_precision(tp, 2)
        assert 0.4 < ap < 0.6


class TestOperatingPoint:
    def test_best_f1_selects_knee(self):
        scores = np.array([0.9, 0.8, 0.7, 0.6])
        tp = np.array([True, True, False, False])
        precision, recall, f1 = best_f1_operating_point(scores, tp, 2)
        assert precision == pytest.approx(1.0)
        assert recall == pytest.approx(1.0)
        assert f1 == pytest.approx(1.0)

    def test_zero_when_no_detections(self):
        precision, recall, f1 = best_f1_operating_point(
            np.zeros(0), np.zeros(0, dtype=bool), 5
        )
        assert (precision, recall, f1) == (0.0, 0.0, 0.0)

    def test_nan_when_no_ground_truth(self):
        _, _, f1 = best_f1_operating_point(
            np.array([0.9]), np.array([False]), 0
        )
        assert np.isnan(f1)

    def test_tradeoff_resolved_by_f1(self):
        # 3 GT; detections: TP, FP, TP, TP — best F1 takes all.
        scores = np.array([0.9, 0.85, 0.8, 0.75])
        tp = np.array([True, False, True, True])
        precision, recall, f1 = best_f1_operating_point(scores, tp, 3)
        assert recall == pytest.approx(1.0)
        assert precision == pytest.approx(0.75)


class TestParallelEvaluation:
    """Thread fan-out must not change a single detection."""

    @pytest.fixture(scope="class")
    def trained(self, small_dataset):
        from repro.detect import ModelConfig, TrainConfig, train_detector

        splits = small_dataset.split(seed=0)
        result = train_detector(
            splits.train[:40],
            model_config=ModelConfig(hidden=32),
            train_config=TrainConfig(epochs=2, seed=0),
        )
        return result.model, splits.test[:24]

    @pytest.mark.parametrize("workers", [2, 4])
    def test_thread_workers_match_serial(self, trained, workers):
        import copy
        import sys

        from repro.detect.evaluate import _predict

        model, images = trained
        serial = _predict(copy.deepcopy(model), images, 0.05, None, 1, None)
        # A short switch interval makes the threads interleave inside
        # each chunk's forward pass.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = _predict(model, images, 0.05, None, workers, None)
        finally:
            sys.setswitchinterval(interval)
        assert len(parallel) == len(serial) == len(images)
        for got_dets, want_dets in zip(parallel, serial):
            assert len(got_dets) == len(want_dets)
            for got, want in zip(got_dets, want_dets):
                assert got.indicator == want.indicator
                assert got.score == want.score  # exact, not approx
                assert got.box.tobytes() == want.box.tobytes()
