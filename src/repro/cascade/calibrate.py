"""Fitting and persisting the cascade's margin calibration.

The cascade's routing decisions hinge on trusting the detector's peak
scores *as probabilities*.  Raw scores are not probabilities — a 0.6
peak for a sidewalk means something different than a 0.6 peak for a
streetlight — so an isotonic curve per indicator is fit against
labeled data (:func:`repro.llm.calibration.fit_margin_calibration`)
and persisted through the artifact cache keyed by the detector's
weight fingerprint and the calibration split, making a rerun free and
the fitted curves shareable across survey processes.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..artifacts import ArtifactCache, fingerprint, model_fingerprint
from ..core.indicators import ALL_INDICATORS
from ..detect.model import NanoDetector
from ..gsv.dataset import LabeledImage
from ..llm.calibration import (
    CALIBRATION_EPS,
    MarginCalibration,
    fit_margin_calibration,
    load_margin_calibration,
    save_margin_calibration,
)

#: Images per batched detector forward while extracting peaks; fixed
#: (like ``EVAL_BATCH_SIZE``) so stacked matmul shapes — and thus the
#: fitted curves — never depend on how many images the caller holds.
PEAK_BATCH_SIZE = 16


def extract_peaks(
    detector: NanoDetector, images: Sequence[LabeledImage]
) -> np.ndarray:
    """Per-image per-indicator peak scores, ``(N, C)`` canonical order.

    Images render at ``detector.input_size`` — the scale tier 0 scores
    captures at — whatever ``size`` they carry, so calibration and
    routing see the same pixels.  The peaks come from the float64
    kernel, while tier 0 scores at float32 (``TIER0_PRECISION`` in
    :mod:`repro.cascade.router`), whose peaks drift by up to ~1e-2;
    the piecewise-constant curves absorb that, and no routing band
    moves on held-out scenes (DESIGN.md §14).  A detector without a
    recorded size renders each image at its own ``size``.
    """
    chunks = []
    for start in range(0, len(images), PEAK_BATCH_SIZE):
        batch = images[start : start + PEAK_BATCH_SIZE]
        pixels = [image.render(detector.input_size) for image in batch]
        scores, _ = detector.predict_cells_batch(pixels)
        chunks.append(NanoDetector.indicator_scores(scores))
    if not chunks:
        return np.zeros((0, len(ALL_INDICATORS)))
    return np.concatenate(chunks, axis=0)


def presence_matrix(images: Sequence[LabeledImage]) -> np.ndarray:
    """Ground-truth boolean presence, ``(N, C)`` canonical order."""
    return np.array(
        [
            [image.presence[indicator] for indicator in ALL_INDICATORS]
            for image in images
        ],
        dtype=bool,
    ).reshape(len(images), len(ALL_INDICATORS))


def fit_cascade_calibration(
    detector: NanoDetector,
    images: Sequence[LabeledImage],
    eps: float = CALIBRATION_EPS,
) -> MarginCalibration:
    """Fit the margin calibration on a labeled split."""
    if not images:
        raise ValueError("calibration needs labeled images")
    peaks = extract_peaks(detector, images)
    truths = presence_matrix(images)
    return fit_margin_calibration(peaks, truths, eps=eps)


def cascade_calibration_key(
    detector: NanoDetector, images: Sequence[LabeledImage]
) -> str:
    """Cache key: detector weights x calibration-split identity."""
    return fingerprint(
        {
            "model": model_fingerprint(detector),
            "images": [image.image_id for image in images],
            "n": len(images),
        }
    )


def load_or_fit_calibration(
    cache: ArtifactCache | None,
    detector: NanoDetector,
    images: Sequence[LabeledImage],
    eps: float = CALIBRATION_EPS,
) -> MarginCalibration:
    """The cached calibration for this detector/split, fitting on miss."""
    if cache is None:
        return fit_cascade_calibration(detector, images, eps=eps)
    key = cascade_calibration_key(detector, images)
    cached = load_margin_calibration(cache, key)
    if cached is not None:
        return cached
    calibration = fit_cascade_calibration(detector, images, eps=eps)
    save_margin_calibration(cache, key, calibration)
    return calibration


#: Threshold grid swept by :func:`recommend_threshold` and the
#: frontier CLI — doubt tolerances from "escalate everything" to
#: "trust every detector call".
THRESHOLD_GRID = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)


def recommend_threshold(
    detector: NanoDetector,
    calibration: MarginCalibration,
    images: Sequence[LabeledImage],
    max_tier0_error: float = 0.01,
    grid: Sequence[float] = THRESHOLD_GRID,
) -> float:
    """The largest doubt tolerance whose accepted calls stay accurate.

    Sweeps ``grid`` on a validation split and returns the largest
    threshold whose tier-0-accepted indicators (doubt within
    tolerance) disagree with ground truth at most ``max_tier0_error``
    of the time.  Larger thresholds accept more calls — cheaper — at
    the cost of accepting the detector's mistakes; this picks the
    cheapest point that keeps tier-0 honest.
    """
    if not images:
        raise ValueError("threshold recommendation needs labeled images")
    peaks = extract_peaks(detector, images)
    truths = presence_matrix(images)
    probabilities = calibration.probabilities(peaks)
    doubts = np.minimum(probabilities, 1.0 - probabilities)
    leans = probabilities >= 0.5
    correct = leans == truths
    best = 0.0
    for threshold in sorted(grid):
        accepted = doubts <= threshold
        if not accepted.any():
            best = max(best, float(threshold))
            continue
        error = 1.0 - float(correct[accepted].mean())
        if error <= max_tier0_error:
            best = max(best, float(threshold))
    return best
