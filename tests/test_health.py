"""Tests for the health-outcome substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.indicators import ALL_INDICATORS, Indicator
from repro.geo import make_durham_like
from repro.health import (
    OUTCOMES,
    TRUE_COEFFICIENTS,
    HealthModel,
    build_tract_survey,
    fit_logistic,
    run_association_study,
)


class TestHealthModel:
    @pytest.fixture()
    def model(self):
        return HealthModel(seed=1)

    @pytest.fixture()
    def exposure(self):
        return {ind: 0.3 for ind in ALL_INDICATORS}

    def test_probability_in_unit_interval(self, model, exposure):
        for outcome in OUTCOMES:
            p = model.outcome_probability(outcome, exposure)
            assert 0.0 < p < 1.0

    def test_unknown_outcome_rejected(self, model, exposure):
        with pytest.raises(ValueError):
            model.outcome_probability("happiness", exposure)

    def test_powerlines_raise_obesity(self, model):
        low = {ind: 0.2 for ind in ALL_INDICATORS}
        high = {**low, Indicator.POWERLINE: 0.9}
        assert model.outcome_probability(
            "obesity", high
        ) > model.outcome_probability("obesity", low)

    def test_sidewalks_lower_inactivity(self, model):
        low = {ind: 0.2 for ind in ALL_INDICATORS}
        high = {**low, Indicator.SIDEWALK: 0.9}
        assert model.outcome_probability(
            "physical_inactivity", high
        ) < model.outcome_probability("physical_inactivity", low)

    def test_sample_tract_counts_bounded(self, model, exposure, rng):
        tract = model.sample_tract(
            "t0", "Durham", "urban", exposure, population=1000, rng=rng
        )
        for outcome in OUTCOMES:
            assert 0 <= tract.outcome_counts[outcome] <= 1000
            assert 0.0 <= tract.prevalence(outcome) <= 1.0

    def test_sample_tract_validates_inputs(self, model, exposure, rng):
        with pytest.raises(ValueError):
            model.sample_tract("t", "c", "z", exposure, population=0, rng=rng)
        with pytest.raises(ValueError):
            model.sample_tract(
                "t", "c", "z", {Indicator.SIDEWALK: 2.0}, 100, rng
            )


class TestLogisticRegression:
    def _simulate(self, beta, n=400, seed=0):
        rng = np.random.default_rng(seed)
        design = rng.uniform(0, 1, size=(n, len(beta) - 1))
        eta = beta[0] + design @ np.asarray(beta[1:])
        p = 1.0 / (1.0 + np.exp(-eta))
        trials = rng.integers(200, 800, size=n)
        successes = rng.binomial(trials, p)
        return design, successes, trials

    def test_recovers_known_coefficients(self):
        true_beta = [-1.0, 2.0, -1.5]
        design, successes, trials = self._simulate(true_beta)
        fit = fit_logistic(design, successes, trials, ["a", "b"])
        assert fit.converged
        assert fit.coefficient("(intercept)").estimate == pytest.approx(
            -1.0, abs=0.1
        )
        assert fit.coefficient("a").estimate == pytest.approx(2.0, abs=0.15)
        assert fit.coefficient("b").estimate == pytest.approx(-1.5, abs=0.15)

    def test_standard_errors_shrink_with_data(self):
        small = self._simulate([-1.0, 1.0], n=50, seed=1)
        large = self._simulate([-1.0, 1.0], n=2000, seed=1)
        se_small = fit_logistic(*small, ["a"]).coefficient("a").std_error
        se_large = fit_logistic(*large, ["a"]).coefficient("a").std_error
        assert se_large < se_small

    def test_odds_ratio(self):
        design, successes, trials = self._simulate([-1.0, 1.0])
        fit = fit_logistic(design, successes, trials, ["a"])
        coefficient = fit.coefficient("a")
        assert coefficient.odds_ratio == pytest.approx(
            np.exp(coefficient.estimate)
        )

    def test_confidence_interval_brackets_estimate(self):
        design, successes, trials = self._simulate([-1.0, 1.0])
        fit = fit_logistic(design, successes, trials, ["a"])
        coefficient = fit.coefficient("a")
        low, high = coefficient.confidence_interval()
        assert low < coefficient.estimate < high

    def test_significance_of_null_effect(self):
        design, successes, trials = self._simulate([-1.0, 0.0], n=300)
        fit = fit_logistic(design, successes, trials, ["a"])
        # A true-zero coefficient is usually not significant.
        assert abs(fit.coefficient("a").z_value) < 4.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_logistic(np.ones((3, 1)), np.array([1, 2, 3]), np.zeros(3))
        with pytest.raises(ValueError):
            fit_logistic(
                np.ones((2, 1)), np.array([5, 1]), np.array([3, 3])
            )
        with pytest.raises(ValueError):
            fit_logistic(np.ones(3), np.ones(3), np.ones(3))

    @given(
        beta0=st.floats(-2, 0),
        beta1=st.floats(-2, 2),
    )
    @settings(max_examples=20, deadline=None)
    def test_loglik_increases_from_null(self, beta0, beta1):
        design, successes, trials = self._simulate([beta0, beta1], n=200)
        fit = fit_logistic(design, successes, trials, ["a"])
        null = fit_logistic(
            np.zeros((200, 0)), successes, trials, []
        )
        assert fit.log_likelihood >= null.log_likelihood - 1e-6


class TestAssociationStudy:
    @pytest.fixture(scope="class")
    def survey(self):
        return build_tract_survey(
            make_durham_like(seed=3),
            n_tracts=24,
            locations_per_tract=4,
            seed=2,
        )

    def test_survey_shape(self, survey):
        assert len(survey.tracts) == 24
        for tract in survey.tracts:
            images = survey.images_by_tract[tract.tract_id]
            assert len(images) == 16  # 4 locations × 4 headings
            for indicator in ALL_INDICATORS:
                assert 0.0 <= tract.exposure[indicator] <= 1.0

    def test_truth_study_recovers_signs(self, survey):
        study = run_association_study(
            survey, survey.true_exposures(), "truth"
        )
        assert study.sign_agreement(TRUE_COEFFICIENTS) > 0.7

    def test_all_outcomes_fitted(self, survey):
        study = run_association_study(
            survey, survey.true_exposures(), "truth"
        )
        assert set(study.fits) == set(OUTCOMES)
        for fit in study.fits.values():
            assert fit.converged

    def test_missing_exposures_rejected(self, survey):
        with pytest.raises(ValueError):
            run_association_study(survey, {}, "broken")

    def test_validates_construction_args(self):
        with pytest.raises(ValueError):
            build_tract_survey(make_durham_like(seed=3), n_tracts=0)
