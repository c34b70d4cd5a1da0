"""Dtype-tiered inference: float32 tolerance, int8 agreement, caching.

The fused float64 kernel's bit-identity is pinned in
``test_detect_features.py`` and by the golden fixtures; this module
covers the *approximate* tiers — that float32 stays within tolerance
of float64, that tier 0's calibrated decisions do not move against the
pre-rewrite float32 kernel (``tests/features_reference.py``), that
int8 quantization preserves the presence decisions the cascade routes
on, and that the per-tier weight caches invalidate when the model's
parameters change.
"""

import numpy as np
import pytest

from repro.cascade.calibrate import fit_cascade_calibration, presence_matrix
from repro.cascade.router import DEFAULT_DEEP_FACTOR, DEFAULT_THRESHOLD
from repro.detect import (
    ModelConfig,
    NanoDetector,
    PRECISIONS,
    TrainConfig,
    extract_features_batch,
    train_detector,
)
from repro.gsv import build_survey_dataset
from repro.parallel import TensorArena

from .features_reference import extract_features_batch_reference


@pytest.fixture(scope="module")
def tiered(small_dataset):
    splits = small_dataset.split(seed=0)
    result = train_detector(
        splits.train[:32],
        model_config=ModelConfig(hidden=32),
        train_config=TrainConfig(epochs=3, seed=1),
    )
    frames = [image.render() for image in splits.test[:8]]
    return result.model, frames


class TestFloat32Tolerance:
    """Property: over random test frames, float32 scores track float64
    to well under any decision threshold's resolution."""

    def test_scores_within_tolerance(self, tiered):
        model, frames = tiered
        exact, exact_boxes = model.predict_cells_batch(frames)
        fast, fast_boxes = model.predict_cells_batch(
            frames, precision="float32"
        )
        assert exact.shape == fast.shape
        # The backbone's float32 rounding (~1e-2 in feature space)
        # amplifies through standardization, so scores carry a few
        # 1e-3 of drift — far below the 0.5 decision threshold's
        # resolution, which the agreement assertion pins directly.
        assert float(np.abs(fast - exact).max()) < 2e-2
        assert float(np.abs(fast_boxes - exact_boxes).max()) < 5e-2
        assert np.mean((fast >= 0.5) == (exact >= 0.5)) >= 0.999

    def test_scores_are_float64_at_every_tier(self, tiered):
        # Decoding is tier-agnostic: scores come back float64 even
        # when the backbone and head ran in float32/int8.
        model, frames = tiered
        for precision in PRECISIONS:
            scores, boxes = model.predict_cells_batch(
                frames[:2], precision=precision
            )
            assert scores.dtype == np.float64
            assert boxes.dtype == np.float64

    def test_float64_tier_is_detect_exactly(self, tiered):
        model, frames = tiered
        for frame in frames[:3]:
            via_predict = model.predict(frame)
            via_detect = model.detect(frame)
            assert len(via_predict) == len(via_detect)
            for a, b in zip(via_predict, via_detect):
                assert a.indicator == b.indicator
                assert a.score == b.score
                assert np.array_equal(a.box, b.box)

    def test_unknown_precision_rejected(self, tiered):
        model, frames = tiered
        with pytest.raises(ValueError, match="precision"):
            model.predict_cells_batch(frames[:1], precision="float16")


class TestInt8Agreement:
    """Property: int8 quantization may perturb scores but must keep
    the presence decisions the cascade's tier 0 is built on."""

    def test_presence_decisions_agree(self, tiered):
        model, frames = tiered
        exact, _ = model.predict_cells_batch(frames)
        quantized, _ = model.predict_cells_batch(frames, precision="int8")
        exact_peaks = NanoDetector.indicator_scores(exact)
        quant_peaks = NanoDetector.indicator_scores(quantized)
        agreement = np.mean(
            (exact_peaks >= 0.5) == (quant_peaks >= 0.5)
        )
        assert agreement >= 0.95
        # And the peaks themselves stay close in absolute terms.
        assert float(np.abs(quant_peaks - exact_peaks).max()) < 0.15

    def test_presence_f1_within_a_point_of_float64(self):
        """int8 presence decisions score within 0.01 micro-F1 of float64.

        The detector is a wider, longer-trained one than ``tiered``: 24
        images at hidden 64 for 6 epochs, scored on 12 held-out ones.
        """
        images = build_survey_dataset(n_images=48, size=256, seed=21).images
        model = train_detector(
            images[:24],
            model_config=ModelConfig(hidden=64),
            train_config=TrainConfig(epochs=6, seed=0),
        ).model
        held_out = images[24:36]
        frames = [image.render() for image in held_out]
        truths = presence_matrix(held_out).astype(bool)

        def f1(precision):
            scores, _ = model.predict_cells_batch(frames, precision=precision)
            predicted = NanoDetector.indicator_scores(scores) >= 0.5
            tp = int((predicted & truths).sum())
            wrong = int((predicted != truths).sum())
            return 2 * tp / (2 * tp + wrong)

        assert abs(f1("int8") - f1("float64")) <= 0.01

    def test_int8_deterministic(self, tiered):
        model, frames = tiered
        a, _ = model.predict_cells_batch(frames[:2], precision="int8")
        b, _ = model.predict_cells_batch(frames[:2], precision="int8")
        assert np.array_equal(a, b)

    def test_batch_matches_per_image(self, tiered):
        # Per-image activation scales: the quantized forward of one
        # image cannot depend on which batch it rode in... unless the
        # whole batch shares one dynamic scale, which it does — so pin
        # the *decision* agreement instead of bit equality.
        model, frames = tiered
        batch, _ = model.predict_cells_batch(frames[:4], precision="int8")
        for index, frame in enumerate(frames[:4]):
            single, _ = model.predict_cells(frame, precision="int8")
            assert np.mean(
                (batch[index] >= 0.5) == (single >= 0.5)
            ) >= 0.99


class TestTierCacheInvalidation:
    """The float32/int8 weight caches key on parameter identity: any
    rebind of the model's arrays must stop matching stale entries."""

    def test_tier_cache_reused_across_calls(self, tiered):
        model, frames = tiered
        model.predict_cells_batch(frames[:1], precision="float32")
        tier_a = model._inference_tier("float32")
        model.predict_cells_batch(frames[:1], precision="float32")
        tier_b = model._inference_tier("float32")
        assert tier_a is tier_b

    def test_weight_rebind_invalidates_tiers(self, tiered):
        model, frames = tiered
        before, _ = model.predict_cells_batch(frames[:1], precision="float32")
        before8, _ = model.predict_cells_batch(frames[:1], precision="int8")
        original = model.w1
        try:
            model.w1 = model.w1 * 2.0  # fresh array, new identity
            after, _ = model.predict_cells_batch(
                frames[:1], precision="float32"
            )
            after8, _ = model.predict_cells_batch(
                frames[:1], precision="int8"
            )
            assert not np.array_equal(after, before)
            assert not np.array_equal(after8, before8)
        finally:
            model.w1 = original

    def test_arena_path_matches_fresh_allocation(self, tiered):
        model, frames = tiered
        arena = TensorArena()
        pooled, _ = model.predict_cells_batch(
            frames, precision="float32", arena=arena
        )
        fresh, _ = model.predict_cells_batch(frames, precision="float32")
        assert np.array_equal(pooled, fresh)
        assert len(arena) > 0


def _bands(probabilities: np.ndarray) -> np.ndarray:
    """The router's band per (image, indicator): 0 accept, 1 mid, 2 deep."""
    doubts = np.minimum(probabilities, 1.0 - probabilities)
    return np.where(
        doubts <= DEFAULT_THRESHOLD,
        0,
        np.where(doubts <= DEFAULT_DEEP_FACTOR * DEFAULT_THRESHOLD, 1, 2),
    )


class TestTier0Decisions:
    """The float32 kernel against the one it replaced: raw peaks drift
    by up to a few 1e-3, but the margin calibration is piecewise
    constant, so tier 0's calibrated probabilities, and with them the
    accept/mid/deep band of every (image, indicator), must not move."""

    @pytest.fixture(scope="class")
    def tier0(self):
        detector = train_detector(
            build_survey_dataset(n_images=48, size=256, seed=21),
            train_config=TrainConfig(epochs=6, batch_size=16),
        ).model
        calibration = fit_cascade_calibration(
            detector, build_survey_dataset(n_images=32, size=256, seed=33)
        )
        held_out = build_survey_dataset(n_images=96, size=256, seed=57)
        pixels = [image.render(detector.input_size) for image in held_out]
        return detector, calibration, pixels

    def test_calibrated_decisions_match_the_reference_kernel(self, tier0):
        detector, calibration, pixels = tier0
        config = detector.config.feature_config
        probabilities = []
        for features in (
            extract_features_batch_reference(pixels, config),
            extract_features_batch(pixels, config, precision="float32"),
        ):
            scores, _ = detector.predict_cells_from_features(
                features, precision="float32"
            )
            peaks = NanoDetector.indicator_scores(scores)
            probabilities.append(calibration.probabilities(peaks))
        reference, rewritten = probabilities
        assert reference.shape == (96, 6)
        assert np.array_equal(rewritten, reference)
        assert np.array_equal(_bands(rewritten), _bands(reference))
        # The bands are not all one kind, or the check would be idle.
        assert len(np.unique(_bands(reference))) > 1
