"""Dtype-tiered inference: float32 tolerance, decisions, caching.

The fused float64 kernel's bit-identity is pinned in
``test_detect_features.py`` and by the golden fixtures; this module
covers the *approximate* tier — that float32 stays within tolerance
of float64, that tier 0's calibrated decisions do not move against the
pre-rewrite float32 kernel (``tests/features_reference.py``), and that
the float32 weight cache invalidates when the model's parameters
change.
"""

import numpy as np
import pytest

from repro.cascade.calibrate import fit_cascade_calibration
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
        # when the backbone and head ran in float32.
        model, frames = tiered
        assert PRECISIONS == ("float64", "float32")
        for precision in PRECISIONS:
            scores, boxes = model.predict_cells_batch(
                frames[:2], precision=precision
            )
            assert scores.dtype == np.float64
            assert boxes.dtype == np.float64

    def test_float64_tier_is_detect_exactly(self, tiered):
        model, frames = tiered
        scores, boxes = model.predict_cells_batch(frames[:3])
        for index, frame in enumerate(frames[:3]):
            via_cells = model.decode_cells(scores[index], boxes[index])
            via_detect = model.detect(frame)
            assert len(via_cells) == len(via_detect)
            for a, b in zip(via_cells, via_detect):
                assert a.indicator == b.indicator
                assert a.score == b.score
                assert np.array_equal(a.box, b.box)

    def test_unknown_precision_rejected(self, tiered):
        model, frames = tiered
        for precision in ("float16", "int8"):
            with pytest.raises(ValueError, match="precision"):
                model.predict_cells_batch(frames[:1], precision=precision)


class TestTierCacheInvalidation:
    """The float32 weight cache keys on parameter identity: any rebind
    of the model's arrays must stop matching the stale entry."""

    def test_tier_cache_reused_across_calls(self, tiered):
        model, frames = tiered
        model.predict_cells_batch(frames[:1], precision="float32")
        tier_a = model._float32_parameters()
        model.predict_cells_batch(frames[:1], precision="float32")
        tier_b = model._float32_parameters()
        assert tier_a is tier_b

    def test_weight_rebind_invalidates_tiers(self, tiered):
        model, frames = tiered
        before, _ = model.predict_cells_batch(frames[:1], precision="float32")
        original = model.w1
        try:
            model.w1 = model.w1 * 2.0  # fresh array, new identity
            after, _ = model.predict_cells_batch(
                frames[:1], precision="float32"
            )
            assert not np.array_equal(after, before)
        finally:
            model.w1 = original

    def test_threads_racing_on_a_cold_cache_agree(self, tiered):
        """Tier 0 runs on the daemon's job threads: threads that race to
        build the float32 weights all score exactly like a serial call."""
        import copy
        import sys
        from concurrent.futures import ThreadPoolExecutor

        model, frames = tiered
        serial, _ = copy.deepcopy(model).predict_cells_batch(
            frames[:2], precision="float32"
        )
        model.__dict__.pop("_float32_cache", None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(
                        model.predict_cells_batch, frames[:2], "float32"
                    )
                    for _ in range(8)
                ]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for scores, _ in results:
            assert np.array_equal(scores, serial)


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
            scores, _ = detector._predict_cells_from_features(
                features, "float32"
            )
            peaks = NanoDetector.indicator_scores(scores)
            probabilities.append(calibration.probabilities(peaks))
        reference, rewritten = probabilities
        assert reference.shape == (96, 6)
        assert np.array_equal(rewritten, reference)
        assert np.array_equal(_bands(rewritten), _bands(reference))
        # The bands are not all one kind, or the check would be idle.
        assert len(np.unique(_bands(reference))) > 1
