"""Fitting response policies to the paper's published statistics.

Each simulated model answers "is indicator X present?" by passing the
scene's evidence ``e`` through a logistic response policy::

    p_yes = sigmoid((e - threshold) / slope)

and sampling the decision (see :mod:`repro.llm.sampling`).  The paper
publishes per-class precision and recall for all four models (Tables
III–VI); combined with the dataset's class prevalence these determine
the true-positive and false-positive rates each policy must achieve.
This module solves the inverse problem: given evidence samples split
by ground truth and the (TPR, FPR) targets, find ``(threshold,
slope)``.

The fit is deterministic: coarse slope grid, exact threshold bisection
per slope (the expected yes-rate is monotone decreasing in the
threshold), then a local refinement pass.  Each grid's bisections run
in lockstep over one ``(slopes, samples)`` array (:func:`_yes_rates`),
bit-identical to bisecting each slope alone.

The second half of the module calibrates the *detector* rather than
the simulated LLMs: :class:`MarginCalibration` maps NanoDetector
per-indicator peak scores (decision margins) to empirical
P(present) via per-indicator isotonic regression — the confidence
source of the cascade router (:mod:`repro.cascade`).  The fit is
pool-adjacent-violators, fully deterministic, and the fitted curves
round-trip exactly through JSON so they persist in the
content-addressed artifact cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import (
    _MIN_TEMPERATURE,
    TOKEN_BASE_LOGIT,
    TOKEN_CERTAINTY_GAIN,
)


@dataclass(frozen=True)
class ResponsePolicy:
    """Logistic Yes-probability policy over evidence scores."""

    threshold: float
    slope: float

    def __post_init__(self) -> None:
        if self.slope <= 0:
            raise ValueError(f"slope must be positive: {self.slope}")

    def p_yes(self, evidence: float) -> float:
        z = (evidence - self.threshold) / self.slope
        return float(1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0))))

    def p_yes_array(self, evidence: np.ndarray) -> np.ndarray:
        z = (np.asarray(evidence, dtype=np.float64) - self.threshold) / self.slope
        return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))

    def shifted(self, delta_threshold: float) -> "ResponsePolicy":
        """A copy with the threshold raised by ``delta_threshold``."""
        return ResponsePolicy(self.threshold + delta_threshold, self.slope)


@dataclass(frozen=True)
class PolicyFit:
    """A fitted policy with its achieved operating point."""

    policy: ResponsePolicy
    achieved_tpr: float
    achieved_fpr: float
    target_tpr: float
    target_fpr: float

    @property
    def tpr_error(self) -> float:
        return abs(self.achieved_tpr - self.target_tpr)

    @property
    def fpr_error(self) -> float:
        return abs(self.achieved_fpr - self.target_fpr)


def derive_rates(
    precision: float, recall: float, prevalence: float
) -> tuple[float, float]:
    """Convert (precision, recall) at a given prevalence to (TPR, FPR).

    From the definition of precision::

        precision = π·TPR / (π·TPR + (1-π)·FPR)
        ⇒ FPR = π·TPR·(1-precision) / (precision·(1-π))
    """
    if not 0.0 < precision <= 1.0:
        raise ValueError(f"precision out of range: {precision}")
    if not 0.0 <= recall <= 1.0:
        raise ValueError(f"recall out of range: {recall}")
    if not 0.0 < prevalence < 1.0:
        raise ValueError(f"prevalence out of range: {prevalence}")
    tpr = recall
    fpr = prevalence * tpr * (1.0 - precision) / (precision * (1.0 - prevalence))
    return tpr, min(fpr, 1.0)


def _check_sampling(temperature: float, top_p: float) -> None:
    """The range checks :func:`~repro.llm.sampling.token_fidelity` makes."""
    if not 0.0 < top_p <= 1.0:
        raise ValueError(f"top_p out of range: {top_p}")
    if not 0.0 <= temperature <= 2.0:
        raise ValueError(f"temperature out of range: {temperature}")


def _yes_rates(
    samples: np.ndarray,
    thresholds: np.ndarray,
    slopes: np.ndarray,
    temperature: float,
    top_p: float,
) -> np.ndarray:
    """Mean effective Yes-probability of k policies over n samples.

    Row ``i`` is policy ``(thresholds[i], slopes[i])``.  The body is
    :meth:`ResponsePolicy.p_yes_array` followed by
    :func:`~repro.llm.sampling.effective_yes_probability`, spelled with
    the same ufuncs in the same operand order over a ``(k, n)`` array,
    so every element is the IEEE result the scalar path computes, and
    each row's ``mean`` is the same pairwise sum a 1-D ``.mean()``
    takes.  Callers validate ``temperature``/``top_p`` and pass a
    non-empty 1-D ``samples``.
    """
    z = (samples - thresholds[:, np.newaxis]) / slopes[:, np.newaxis]
    p_yes = 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))
    certainty = np.abs(2.0 * np.clip(p_yes, 0.0, 1.0) - 1.0)
    z0 = TOKEN_BASE_LOGIT + TOKEN_CERTAINTY_GAIN * certainty
    token_z = z0 / max(temperature, _MIN_TEMPERATURE)
    p_intended = 1.0 / (1.0 + np.exp(-token_z))
    fidelity = np.where(p_intended >= top_p, 1.0, p_intended)
    effective = p_yes * fidelity + (1.0 - p_yes) * (1.0 - fidelity)
    return effective.mean(axis=1)


def expected_yes_rate(
    evidence: np.ndarray,
    policy: ResponsePolicy,
    temperature: float = 1.0,
    top_p: float = 0.95,
) -> float:
    """Mean probability of answering Yes over an evidence sample."""
    _check_sampling(temperature, top_p)
    samples = np.asarray(evidence, dtype=np.float64)
    if samples.size == 0:
        return float("nan")
    rates = _yes_rates(
        samples,
        np.array([policy.threshold]),
        np.array([policy.slope]),
        temperature,
        top_p,
    )
    return float(rates[0])


def fit_thresholds(
    evidence: np.ndarray,
    slopes: np.ndarray,
    target_rates: np.ndarray,
    temperature: float = 1.0,
    top_p: float = 0.95,
    iterations: int = 40,
) -> np.ndarray:
    """Bisect one threshold per (slope, target rate) row, in lockstep.

    Every row runs the same bisection on the same bracket: each step
    evaluates all rows' midpoints in one :func:`_yes_rates` call (the
    expected yes-rate falls as the threshold rises) and moves each
    row's ``lo`` or ``hi`` with ``np.where``.  Row ``i`` of the result
    is exactly ``fit_threshold(evidence, slopes[i], target_rates[i])``
    run alone.
    """
    _check_sampling(temperature, top_p)
    samples = np.asarray(evidence, dtype=np.float64)
    slopes = np.asarray(slopes, dtype=np.float64)
    targets = np.asarray(target_rates, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("need evidence samples to fit a threshold")
    if slopes.ndim != 1 or slopes.shape != targets.shape:
        raise ValueError(
            f"slopes {slopes.shape} and target rates {targets.shape} "
            "must be aligned 1-D arrays"
        )
    if not np.all(slopes > 0):
        raise ValueError(f"slopes must be positive: {slopes}")
    if not np.all(np.isfinite(targets)):
        raise ValueError(f"target rates must be finite: {targets}")
    lo = np.full(slopes.shape, -2.0)
    hi = np.full(slopes.shape, 3.0)
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        above = _yes_rates(samples, mid, slopes, temperature, top_p) > targets
        lo = np.where(above, mid, lo)  # raise threshold to lower the rate
        hi = np.where(above, hi, mid)
    return (lo + hi) / 2.0


def fit_threshold(
    evidence: np.ndarray,
    slope: float,
    target_rate: float,
    temperature: float = 1.0,
    top_p: float = 0.95,
    iterations: int = 40,
) -> float:
    """Bisect the threshold achieving a target yes-rate on a sample."""
    thresholds = fit_thresholds(
        evidence, [slope], [target_rate], temperature, top_p, iterations
    )
    return float(thresholds[0])


def fit_policy(
    present: np.ndarray,
    absent: np.ndarray,
    target_tpr: float,
    target_fpr: float,
    temperature: float = 1.0,
    top_p: float = 0.95,
) -> PolicyFit:
    """Fit ``(threshold, slope)`` to hit (TPR, FPR) targets.

    For each candidate slope the threshold is bisected to match the
    TPR exactly on the present-class evidence, then the slope is chosen
    to minimize the FPR error on the absent-class evidence.  If the
    targets are jointly unreachable (evidence distributions too
    separated or too overlapped) the closest achievable operating
    point is returned — callers can inspect ``fpr_error``.  Each of the
    two slope grids is fitted in one lockstep :func:`fit_thresholds`.
    """
    present = np.asarray(present, dtype=np.float64)
    absent = np.asarray(absent, dtype=np.float64)
    if present.size == 0 or absent.size == 0:
        raise ValueError("need evidence samples for both classes")
    if not 0.0 < target_tpr <= 1.0:
        raise ValueError(f"target TPR out of range: {target_tpr}")
    if not 0.0 <= target_fpr < 1.0:
        raise ValueError(f"target FPR out of range: {target_fpr}")

    def evaluate(
        slopes: np.ndarray,
    ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """Fit every slope; return the best row and the per-row fits."""
        thresholds = fit_thresholds(
            present,
            slopes,
            np.full(slopes.shape, target_tpr),
            temperature,
            top_p,
        )
        tprs = _yes_rates(present, thresholds, slopes, temperature, top_p)
        fprs = _yes_rates(absent, thresholds, slopes, temperature, top_p)
        # argmin keeps the first of tied rows, as a scalar scan would.
        best = int(np.argmin(np.abs(fprs - target_fpr)))
        return best, thresholds, tprs, fprs

    coarse = np.geomspace(0.015, 0.8, 18)
    best_index = evaluate(coarse)[0]

    lo = coarse[max(0, best_index - 1)]
    hi = coarse[min(len(coarse) - 1, best_index + 1)]
    fine = np.geomspace(lo, hi, 12)
    best, thresholds, tprs, fprs = evaluate(fine)
    return PolicyFit(
        policy=ResponsePolicy(float(thresholds[best]), float(fine[best])),
        achieved_tpr=float(tprs[best]),
        achieved_fpr=float(fprs[best]),
        target_tpr=target_tpr,
        target_fpr=target_fpr,
    )


# ----------------------------------------------------------------------
# detector margin → probability calibration (cascade tier-0 confidence)

#: Probabilities are clipped into ``[EPS, 1-EPS]``: an isotonic fit on
#: finite data happily emits exact 0/1 blocks, but the cascade treats
#: "certain" as "doubt is exactly zero" nowhere — every indicator keeps
#: a strictly positive doubt, which is what makes a doubt threshold of
#: 0 escalate *everything* (the full-ensemble byte-identity guarantee).
CALIBRATION_EPS = 1e-3

#: Artifact-cache kind under which fitted calibrations persist.
CALIBRATION_KIND = "calibration"


@dataclass(frozen=True)
class IsotonicCurve:
    """A monotone non-decreasing step function score → probability.

    ``positions`` are the ascending anchor scores observed in the fit;
    ``values`` the pooled (PAV) probabilities, one per anchor.  A query
    score takes the value of the largest anchor ≤ it (scores below the
    first anchor take the first value) — a right-continuous step
    function, evaluated by binary search.
    """

    positions: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.positions or len(self.positions) != len(self.values):
            raise ValueError("curve needs aligned, non-empty anchors")
        if any(
            b <= a for a, b in zip(self.positions, self.positions[1:])
        ):
            raise ValueError("anchor positions must be strictly ascending")
        if any(
            b < a for a, b in zip(self.values, self.values[1:])
        ):
            raise ValueError("values must be non-decreasing")

    def probability(self, scores: np.ndarray) -> np.ndarray:
        """Vectorized evaluation of the step function."""
        anchors = np.asarray(self.positions, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        index = np.searchsorted(anchors, np.asarray(scores), side="right") - 1
        return values[np.clip(index, 0, len(values) - 1)]


def _pool_adjacent_violators(
    positions: np.ndarray, means: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Weighted PAV: the monotone fit minimizing squared error.

    Classic stack algorithm over pre-pooled (position, mean, weight)
    groups in ascending position order; deterministic, O(n).
    """
    blocks: list[list[float]] = []  # [mean, weight]
    for mean, weight in zip(means, weights):
        blocks.append([float(mean), float(weight)])
        while len(blocks) > 1 and blocks[-2][0] >= blocks[-1][0]:
            m2, w2 = blocks.pop()
            m1, w1 = blocks.pop()
            blocks.append([(m1 * w1 + m2 * w2) / (w1 + w2), w1 + w2])
    fitted = np.empty(len(positions), dtype=np.float64)
    start = 0
    cursor = 0
    for mean, weight in blocks:
        # Walk forward until this block's weight is exhausted.
        spent = 0.0
        while spent < weight - 1e-9 and cursor < len(weights):
            fitted[cursor] = mean
            spent += weights[cursor]
            cursor += 1
        start = cursor
    assert start == len(positions)
    return fitted


def fit_isotonic_curve(
    scores: np.ndarray, labels: np.ndarray, eps: float = CALIBRATION_EPS
) -> IsotonicCurve:
    """Fit one indicator's score → P(present) curve.

    Ties in score are pooled before PAV so the curve is a function of
    the score alone; fitted probabilities are clipped into
    ``[eps, 1-eps]`` (see :data:`CALIBRATION_EPS`).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.size == 0 or scores.shape != labels.shape:
        raise ValueError("need aligned, non-empty scores and labels")
    order = np.argsort(scores, kind="stable")
    positions, starts = np.unique(scores[order], return_index=True)
    sums = np.add.reduceat(labels[order], starts)
    counts = np.diff(np.append(starts, len(order))).astype(np.float64)
    fitted = _pool_adjacent_violators(positions, sums / counts, counts)
    clipped = np.clip(fitted, eps, 1.0 - eps)
    return IsotonicCurve(
        positions=tuple(float(p) for p in positions),
        values=tuple(float(v) for v in clipped),
    )


@dataclass(frozen=True)
class MarginCalibration:
    """Per-indicator detector-margin calibration.

    Operates on arrays shaped ``(..., C)`` whose last axis follows the
    canonical indicator order (``repro.core.indicators.ALL_INDICATORS``)
    — the same order :meth:`NanoDetector.indicator_scores` emits — so
    this module stays free of a ``core`` import.
    """

    curves: tuple[IsotonicCurve, ...]

    def __post_init__(self) -> None:
        if not self.curves:
            raise ValueError("calibration needs at least one curve")

    @property
    def n_indicators(self) -> int:
        return len(self.curves)

    def probabilities(self, peaks: np.ndarray) -> np.ndarray:
        """Calibrated P(present), shape-preserving over ``(..., C)``."""
        peaks = np.asarray(peaks, dtype=np.float64)
        if peaks.shape[-1] != len(self.curves):
            raise ValueError(
                f"expected {len(self.curves)} indicator columns, "
                f"got {peaks.shape[-1]}"
            )
        out = np.empty_like(peaks)
        for column, curve in enumerate(self.curves):
            out[..., column] = curve.probability(peaks[..., column])
        return out

    def doubts(self, peaks: np.ndarray) -> np.ndarray:
        """Calibrated doubt ``min(p, 1-p)`` — strictly positive."""
        probabilities = self.probabilities(peaks)
        return np.minimum(probabilities, 1.0 - probabilities)

    def leans(self, peaks: np.ndarray) -> np.ndarray:
        """The detector's calibrated answer: P(present) ≥ 0.5."""
        return self.probabilities(peaks) >= 0.5

    def to_payload(self) -> dict:
        """JSON-exact representation (floats survive json round-trips)."""
        return {
            "curves": [
                {
                    "positions": list(curve.positions),
                    "values": list(curve.values),
                }
                for curve in self.curves
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "MarginCalibration":
        return cls(
            curves=tuple(
                IsotonicCurve(
                    positions=tuple(entry["positions"]),
                    values=tuple(entry["values"]),
                )
                for entry in payload["curves"]
            )
        )


def fit_margin_calibration(
    peaks: np.ndarray, truths: np.ndarray, eps: float = CALIBRATION_EPS
) -> MarginCalibration:
    """Fit all indicator curves from labeled detector peaks.

    ``peaks`` is ``(N, C)`` per-image peak scores, ``truths`` the
    aligned boolean ground-truth presence matrix.
    """
    peaks = np.asarray(peaks, dtype=np.float64)
    truths = np.asarray(truths, dtype=bool)
    if peaks.ndim != 2 or peaks.shape != truths.shape:
        raise ValueError(
            f"peaks {peaks.shape} and truths {truths.shape} must be "
            "aligned (N, C) matrices"
        )
    return MarginCalibration(
        curves=tuple(
            fit_isotonic_curve(peaks[:, column], truths[:, column], eps=eps)
            for column in range(peaks.shape[1])
        )
    )


def save_margin_calibration(cache, key: str, calibration: MarginCalibration) -> None:
    """Persist a fitted calibration in the artifact cache."""
    cache.put_json(CALIBRATION_KIND, key, calibration.to_payload())


def load_margin_calibration(cache, key: str) -> MarginCalibration | None:
    """Load a calibration back, or ``None`` on a cache miss."""
    payload = cache.get_json(CALIBRATION_KIND, key)
    if payload is None:
        return None
    return MarginCalibration.from_payload(payload)
