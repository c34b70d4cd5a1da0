"""Tests for decision sampling and policy calibration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.llm import (
    ResponsePolicy,
    derive_rates,
    effective_yes_probability,
    expected_yes_rate,
    fit_policy,
    fit_threshold,
    sample_yes,
)
from repro.llm.sampling import token_fidelity

PROB = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)


class TestTokenFidelity:
    def test_defaults_are_deterministic(self):
        # Calibration exactness depends on this: at T=1/top-p=0.95 a
        # confident answer never flips.
        assert token_fidelity(0.99, 1.0, 0.95) == 1.0
        assert token_fidelity(0.01, 1.0, 0.95) == 1.0

    def test_borderline_at_high_temperature_can_flip(self):
        assert token_fidelity(0.5, 1.5, 0.95) < 1.0

    def test_low_temperature_always_faithful(self):
        for p in (0.1, 0.5, 0.9):
            assert token_fidelity(p, 0.1, 0.95) == 1.0

    def test_low_top_p_truncates_to_deterministic(self):
        assert token_fidelity(0.5, 1.5, 0.5) == 1.0

    def test_rejects_bad_top_p(self):
        with pytest.raises(ValueError):
            token_fidelity(0.5, 1.0, 0.0)


class TestEffectiveAndSample:
    def test_effective_matches_p_at_defaults(self):
        for p in (0.1, 0.4, 0.7, 0.95):
            assert effective_yes_probability(p, 1.0, 0.95) == pytest.approx(p)

    @given(p=PROB)
    @settings(max_examples=40)
    def test_sample_mean_matches_effective(self, p):
        rng = np.random.default_rng(0)
        draws = [sample_yes(p, 1.5, 0.95, rng) for _ in range(3000)]
        expected = effective_yes_probability(p, 1.5, 0.95)
        assert np.mean(draws) == pytest.approx(expected, abs=0.05)


class TestDeriveRates:
    def test_perfect_precision_zero_fpr(self):
        tpr, fpr = derive_rates(1.0, 0.9, 0.3)
        assert tpr == 0.9
        assert fpr == 0.0

    def test_known_case(self):
        # precision 0.5, recall 1.0, prevalence 0.5 → FPR 1.0.
        _, fpr = derive_rates(0.5, 1.0, 0.5)
        assert fpr == pytest.approx(1.0)

    def test_lower_precision_higher_fpr(self):
        _, fpr_hi = derive_rates(0.9, 0.9, 0.3)
        _, fpr_lo = derive_rates(0.5, 0.9, 0.3)
        assert fpr_lo > fpr_hi

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            derive_rates(0.0, 0.9, 0.3)
        with pytest.raises(ValueError):
            derive_rates(0.9, 0.9, 0.0)


class TestResponsePolicy:
    def test_monotone_in_evidence(self):
        policy = ResponsePolicy(threshold=0.5, slope=0.1)
        values = [policy.p_yes(e) for e in np.linspace(0, 1, 11)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_threshold_is_midpoint(self):
        policy = ResponsePolicy(threshold=0.4, slope=0.1)
        assert policy.p_yes(0.4) == pytest.approx(0.5)

    def test_shifted(self):
        policy = ResponsePolicy(0.4, 0.1).shifted(0.2)
        assert policy.threshold == pytest.approx(0.6)

    def test_rejects_bad_slope(self):
        with pytest.raises(ValueError):
            ResponsePolicy(0.5, 0.0)


class TestFitting:
    @pytest.fixture()
    def samples(self):
        rng = np.random.default_rng(7)
        present = np.clip(rng.normal(0.75, 0.12, 400), 0.01, 0.99)
        absent = np.clip(rng.normal(0.25, 0.15, 800), 0.01, 0.99)
        return present, absent

    def test_fit_threshold_hits_rate(self, samples):
        present, _ = samples
        threshold = fit_threshold(present, slope=0.05, target_rate=0.8)
        policy = ResponsePolicy(threshold, 0.05)
        assert expected_yes_rate(present, policy) == pytest.approx(
            0.8, abs=0.01
        )

    def test_fit_policy_hits_both_targets(self, samples):
        present, absent = samples
        fit = fit_policy(present, absent, target_tpr=0.9, target_fpr=0.15)
        assert fit.achieved_tpr == pytest.approx(0.9, abs=0.02)
        assert fit.achieved_fpr == pytest.approx(0.15, abs=0.04)

    def test_fit_policy_extreme_targets_best_effort(self, samples):
        present, absent = samples
        fit = fit_policy(present, absent, target_tpr=0.99, target_fpr=0.001)
        # Distributions overlap: the exact pair is unreachable, but the
        # TPR (fit exactly by bisection) must hold.
        assert fit.achieved_tpr == pytest.approx(0.99, abs=0.02)

    def test_fit_threshold_requires_samples(self):
        # Empty evidence yields a nan rate, and ``nan > target`` never
        # holds: unchecked, the bisection would return the bracket floor.
        with pytest.raises(ValueError):
            fit_threshold(np.zeros(0), slope=0.05, target_rate=0.8)

    def test_fit_threshold_rejects_nan_target(self, samples):
        present, _ = samples
        with pytest.raises(ValueError):
            fit_threshold(present, slope=0.05, target_rate=float("nan"))

    def test_expected_yes_rate_validates_before_empty_shortcut(self):
        policy = ResponsePolicy(0.5, 0.1)
        with pytest.raises(ValueError):
            expected_yes_rate([], policy, temperature=3.0)
        with pytest.raises(ValueError):
            expected_yes_rate([], policy, top_p=0.0)
        assert np.isnan(expected_yes_rate([], policy))

    def test_fit_policy_requires_samples(self):
        with pytest.raises(ValueError):
            fit_policy(np.zeros(0), np.ones(5) * 0.2, 0.9, 0.1)

    def test_fit_policy_validates_targets(self, samples):
        present, absent = samples
        with pytest.raises(ValueError):
            fit_policy(present, absent, target_tpr=0.0, target_fpr=0.1)

    @given(
        tpr=st.floats(0.3, 0.97),
        fpr=st.floats(0.02, 0.6),
    )
    @settings(max_examples=15, deadline=None)
    def test_fit_policy_tpr_always_matched(self, tpr, fpr):
        rng = np.random.default_rng(3)
        present = np.clip(rng.normal(0.7, 0.15, 300), 0.01, 0.99)
        absent = np.clip(rng.normal(0.3, 0.15, 300), 0.01, 0.99)
        fit = fit_policy(present, absent, tpr, fpr)
        assert fit.tpr_error < 0.03
