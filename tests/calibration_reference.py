"""Scalar reference for the response-policy fitter.

The fitter as it was before its bisections ran in lockstep: one
:func:`~repro.llm.sampling.effective_yes_probability` call per evidence
sample, one threshold bisection per slope.  It is slow and kept only as
the oracle that pins :mod:`repro.llm.calibration` bit for bit
(``tests/test_calibration_oracle.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.llm import profiles
from repro.llm.calibration import PolicyFit, ResponsePolicy
from repro.llm.sampling import effective_yes_probability


def expected_yes_rate(
    evidence: np.ndarray,
    policy: ResponsePolicy,
    temperature: float = 1.0,
    top_p: float = 0.95,
) -> float:
    samples = np.asarray(evidence, dtype=np.float64)
    if samples.size == 0:
        return float("nan")
    probabilities = policy.p_yes_array(samples)
    effective = np.array(
        [
            effective_yes_probability(float(p), temperature, top_p)
            for p in probabilities
        ]
    )
    return float(effective.mean())


def fit_threshold(
    evidence: np.ndarray,
    slope: float,
    target_rate: float,
    temperature: float = 1.0,
    top_p: float = 0.95,
    iterations: int = 40,
) -> float:
    lo, hi = -2.0, 3.0
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        rate = expected_yes_rate(
            evidence, ResponsePolicy(mid, slope), temperature, top_p
        )
        if rate > target_rate:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def fit_thresholds(
    evidence: np.ndarray,
    slopes: np.ndarray,
    target_rates: np.ndarray,
    temperature: float = 1.0,
    top_p: float = 0.95,
    iterations: int = 40,
) -> np.ndarray:
    return np.array(
        [
            fit_threshold(
                evidence, float(slope), float(target), temperature, top_p,
                iterations,
            )
            for slope, target in zip(slopes, target_rates)
        ]
    )


def fit_policy(
    present: np.ndarray,
    absent: np.ndarray,
    target_tpr: float,
    target_fpr: float,
    temperature: float = 1.0,
    top_p: float = 0.95,
) -> PolicyFit:
    present = np.asarray(present, dtype=np.float64)
    absent = np.asarray(absent, dtype=np.float64)

    def evaluate(slope: float) -> tuple[float, ResponsePolicy, float, float]:
        threshold = fit_threshold(present, slope, target_tpr, temperature, top_p)
        policy = ResponsePolicy(threshold, slope)
        tpr = expected_yes_rate(present, policy, temperature, top_p)
        fpr = expected_yes_rate(absent, policy, temperature, top_p)
        return abs(fpr - target_fpr), policy, tpr, fpr

    coarse = np.geomspace(0.015, 0.8, 18)
    scored = [evaluate(float(s)) for s in coarse]
    best_index = int(np.argmin([s[0] for s in scored]))

    lo = coarse[max(0, best_index - 1)]
    hi = coarse[min(len(coarse) - 1, best_index + 1)]
    fine = np.geomspace(lo, hi, 12)
    scored_fine = [evaluate(float(s)) for s in fine]
    _, policy, tpr, fpr = min(scored_fine, key=lambda s: s[0])
    return PolicyFit(
        policy=policy,
        achieved_tpr=tpr,
        achieved_fpr=fpr,
        target_tpr=target_tpr,
        target_fpr=target_fpr,
    )


def calibrate_profiles_reference(*args, **kwargs):
    """``calibrate_profiles`` with every fitter call on the scalar path."""
    with pytest.MonkeyPatch.context() as patch:
        for name, function in (
            ("expected_yes_rate", expected_yes_rate),
            ("fit_threshold", fit_threshold),
            ("fit_thresholds", fit_thresholds),
            ("fit_policy", fit_policy),
        ):
            patch.setattr(profiles, name, function)
        return profiles.calibrate_profiles(*args, **kwargs)
