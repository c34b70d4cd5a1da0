"""The lockstep fitter is bit-identical to the scalar reference.

Every assertion here is ``==``: the vectorized kernel must compute the
same IEEE doubles as the per-sample loop in
``tests/calibration_reference.py``, so fitted profiles, and every report
built from them, do not move.
"""

import numpy as np
import pytest

from repro.llm import (
    ALL_MODEL_IDS,
    EvidenceModel,
    ResponsePolicy,
    calibrate_profiles,
    expected_yes_rate,
    fit_policy,
    fit_threshold,
)

from . import calibration_reference as reference


@pytest.fixture(scope="module")
def samples():
    rng = np.random.default_rng(7)
    present = np.clip(rng.normal(0.75, 0.12, 300), 0.01, 0.99)
    absent = np.clip(rng.normal(0.25, 0.15, 500), 0.01, 0.99)
    return present, absent


@pytest.mark.parametrize("temperature", [0.0, 0.1, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("top_p", [0.5, 0.75, 0.95, 1.0])
def test_expected_yes_rate_matches_reference(samples, temperature, top_p):
    present, absent = samples
    evidence = np.concatenate([present, absent])
    for policy in (
        ResponsePolicy(0.5, 0.1),
        ResponsePolicy(0.3, 0.02),
        ResponsePolicy(0.8, 0.6),
        ResponsePolicy(-1.0, 0.015),
    ):
        assert expected_yes_rate(
            evidence, policy, temperature, top_p
        ) == reference.expected_yes_rate(evidence, policy, temperature, top_p)


@pytest.mark.parametrize(
    "temperature, top_p", [(1.0, 0.95), (1.5, 1.0), (0.1, 0.5)]
)
def test_fitters_match_reference(samples, temperature, top_p):
    # More than 128 samples per class, so each row's mean takes the
    # blocked pairwise sum, not the short-array loop.
    present, absent = samples[0][:150], samples[1][:260]
    for slope, target in ((0.05, 0.8), (0.3, 0.5), (0.015, 0.99)):
        assert fit_threshold(
            present, slope, target, temperature, top_p
        ) == reference.fit_threshold(present, slope, target, temperature, top_p)
    assert fit_policy(
        present, absent, 0.9, 0.15, temperature, top_p
    ) == reference.fit_policy(present, absent, 0.9, 0.15, temperature, top_p)


@pytest.mark.parametrize("n_scenes", [24, 60])
def test_calibrate_profiles_matches_reference(calibration_dataset, n_scenes):
    scenes = [image.scene for image in calibration_dataset.images[:n_scenes]]
    fitted = calibrate_profiles(scenes, EvidenceModel(seed=0))
    oracle = reference.calibrate_profiles_reference(scenes, EvidenceModel(seed=0))
    assert set(fitted) == set(oracle) == set(ALL_MODEL_IDS)
    for model_id, profile in fitted.items():
        expected = oracle[model_id]
        assert profile.policies == expected.policies
        assert profile.fits == expected.fits
        assert profile.sequential_shifts == expected.sequential_shifts
        assert list(profile.language_shifts.items()) == list(
            expected.language_shifts.items()
        )
