"""Tests for the cost-aware cascade router (DESIGN.md §13).

Covers the router's tier partitioning and threshold-0 ensemble
equivalence, the escalation-monotonicity property (raising the doubt
tolerance never escalates more indicators), tier 0 and calibration
rendering at the detector's input size, the calibration round-trip
through the artifact cache, and — under
the ``faults`` marker — a seeded mid-survey LLM outage that must
degrade to detector-only answers without losing coverage.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.artifacts import ArtifactCache
from repro.cascade import (
    DEFAULT_THRESHOLD,
    TIER_DETECTOR,
    TIER_ENSEMBLE,
    TIER_SCOUT,
    CascadeClassifier,
    CascadeStats,
    cascade_calibration_key,
    fit_cascade_calibration,
    load_or_fit_calibration,
    recommend_threshold,
    token_fee_usd,
)
from repro.cascade.calibrate import (
    THRESHOLD_GRID,
    extract_peaks,
    presence_matrix,
)
from repro.cascade.frontier import micro_f1
from repro.core.classifier import ClassifierConfig, LLMIndicatorClassifier
from repro.core.indicators import ALL_INDICATORS
from repro.core.pipeline import NeighborhoodDecoder
from repro.core.voting import VotingEnsemble
from repro.detect.model import NanoDetector
from repro.detect.train import TrainConfig, train_detector
from repro.geo import make_durham_like
from repro.gsv import StreetViewClient, build_survey_dataset
from repro.llm.base import ChatClient, Usage
from repro.llm.calibration import fit_margin_calibration
from repro.llm.errors import ServerError
from repro.llm.paper_targets import GPT_4O_MINI
from repro.obs.audit import reconcile_survey
from repro.obs.metrics import MetricsRegistry, use_metrics

N_INDICATORS = len(ALL_INDICATORS)


@pytest.fixture(scope="module")
def detector():
    images = build_survey_dataset(n_images=48, size=256, seed=21)
    return train_detector(
        images, train_config=TrainConfig(epochs=6, batch_size=16)
    ).model


@pytest.fixture(scope="module")
def holdout():
    return build_survey_dataset(n_images=32, size=256, seed=33)


@pytest.fixture(scope="module")
def calibration(detector, holdout):
    return fit_cascade_calibration(detector, holdout)


@pytest.fixture(scope="module")
def eval_images():
    return build_survey_dataset(n_images=12, size=256, seed=45)


def _ensemble(clients, **kwargs) -> VotingEnsemble:
    return VotingEnsemble(
        classifiers={
            model_id: LLMIndicatorClassifier(client)
            for model_id, client in clients.items()
        },
        **kwargs,
    )


def _cascade(clients, detector, calibration, **kwargs) -> CascadeClassifier:
    return CascadeClassifier(
        detector=detector,
        calibration=calibration,
        scout=LLMIndicatorClassifier(clients[GPT_4O_MINI]),
        ensemble=_ensemble(clients),
        **kwargs,
    )


# ----------------------------------------------------------------------
# Partial-indicator prompting.


class TestPartialIndicators:
    def test_subset_answers_are_bit_equal_to_full_prompt(
        self, clients, small_dataset
    ):
        classifier = LLMIndicatorClassifier(clients[GPT_4O_MINI])
        image = small_dataset[3]
        full = classifier.classify_image(image)
        subset = classifier.config.indicators[1:4]
        partial = classifier.classify_image(image, indicators=subset)
        assert partial.indicators == tuple(subset)
        for indicator in subset:
            assert partial.presence[indicator] == full.presence[indicator]

    def test_ensemble_subset_vote_matches_full_vote(
        self, clients, small_dataset
    ):
        image = small_dataset[5]
        ensemble = _ensemble(clients)
        full = ensemble.vote_image(image)
        subset = tuple(ALL_INDICATORS[:3])
        partial = ensemble.vote_image(image, indicators=subset)
        for indicator in subset:
            assert partial.presence[indicator] == full.presence[indicator]
        for indicator in ALL_INDICATORS[3:]:
            assert not partial.presence[indicator]


# ----------------------------------------------------------------------
# Calibration fitting and the artifact-cache round trip.


class TestCalibration:
    def test_round_trip_through_artifact_cache(
        self, tmp_path, detector, holdout
    ):
        cache = ArtifactCache(tmp_path)
        fitted = load_or_fit_calibration(cache, detector, holdout)
        loaded = load_or_fit_calibration(cache, detector, holdout)
        assert len(loaded.curves) == len(fitted.curves) == N_INDICATORS
        for before, after in zip(fitted.curves, loaded.curves):
            assert np.array_equal(before.positions, after.positions)
            assert np.array_equal(before.values, after.values)
        peaks = extract_peaks(detector, holdout)
        assert np.array_equal(
            fitted.probabilities(peaks), loaded.probabilities(peaks)
        )

    def test_second_call_loads_without_refitting(
        self, tmp_path, detector, holdout, monkeypatch
    ):
        cache = ArtifactCache(tmp_path)
        load_or_fit_calibration(cache, detector, holdout)

        def _explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("refit on a warm cache")

        monkeypatch.setattr(
            "repro.cascade.calibrate.fit_cascade_calibration", _explode
        )
        load_or_fit_calibration(cache, detector, holdout)

    def test_cache_key_tracks_the_split(self, detector, holdout, eval_images):
        key = cascade_calibration_key(detector, holdout)
        assert key == cascade_calibration_key(detector, holdout)
        assert key != cascade_calibration_key(detector, eval_images)

    def test_curves_are_monotone_probabilities(self, calibration):
        grid = np.linspace(-0.5, 1.5, 64)
        for curve in calibration.curves:
            values = curve.probability(grid)
            assert np.all(np.diff(values) >= 0)
            assert np.all(values > 0)
            assert np.all(values < 1)

    def test_recommend_threshold_on_grid_and_relaxes_with_budget(
        self, detector, calibration, holdout
    ):
        strict = recommend_threshold(
            detector, calibration, holdout, max_tier0_error=0.01
        )
        lax = recommend_threshold(
            detector, calibration, holdout, max_tier0_error=1.0
        )
        assert strict in THRESHOLD_GRID
        assert lax == max(THRESHOLD_GRID)
        assert strict <= lax

    def test_empty_split_rejected(self, detector, calibration):
        with pytest.raises(ValueError):
            fit_cascade_calibration(detector, [])
        with pytest.raises(ValueError):
            recommend_threshold(detector, calibration, [])


# ----------------------------------------------------------------------
# The router itself.


class TestCascadeRouter:
    def test_configuration_validated(self, clients, detector, calibration):
        for bad in (-0.1, 0.6):
            with pytest.raises(ValueError, match="threshold"):
                _cascade(clients, detector, calibration, threshold=bad)
        for retired in ("deep_factor", "precision"):
            with pytest.raises(TypeError, match=retired):
                _cascade(clients, detector, calibration, **{retired: 1.0})

    def test_stats_reject_unknown_counters(self):
        with pytest.raises(ValueError, match="unknown cascade counter"):
            CascadeStats().add(tier9_indicators=1)

    def test_empty_location_short_circuits(
        self, clients, detector, calibration
    ):
        cascade = _cascade(clients, detector, calibration)
        assert cascade.predict_location([]) == ([], 0)
        assert cascade.stats.snapshot()["images"] == 0

    def test_threshold_zero_routes_everything_to_the_ensemble(
        self, clients, detector, calibration, eval_images
    ):
        images = eval_images[:4]
        cascade = _cascade(clients, detector, calibration, threshold=0.0)
        presences, degraded = cascade.predict_location(images)
        stats = cascade.stats.snapshot()
        assert stats["tier0_indicators"] == 0
        assert stats["tier1_indicators"] == 0
        assert stats["scout_calls"] == 0
        assert stats["tier2_indicators"] == len(images) * N_INDICATORS
        assert stats["deep_escalations"] == len(images) * N_INDICATORS
        assert stats["ensemble_calls"] == len(images)
        assert degraded == 0
        expected = [
            _ensemble(clients).vote_image(image).presence for image in images
        ]
        assert presences == expected

    def test_tier_counts_partition_every_indicator(
        self, clients, detector, calibration, eval_images
    ):
        cascade = _cascade(clients, detector, calibration)
        cascade.predict_location(eval_images)
        stats = cascade.stats.snapshot()
        assert stats["images"] == len(eval_images)
        assert (
            stats["tier0_indicators"]
            + stats["tier1_indicators"]
            + stats["tier2_indicators"]
            == len(eval_images) * N_INDICATORS
        )

    def test_stage_meter_books_fees_from_tokens(
        self, clients, detector, calibration, eval_images
    ):
        cascade = _cascade(clients, detector, calibration, threshold=0.0)
        cascade.predict_location(eval_images[:3])
        stages = cascade.meter.stage_totals()
        assert stages[TIER_DETECTOR]["images"] == 3
        assert stages[TIER_DETECTOR]["fees_usd"] == 0.0
        ensemble_stage = stages[TIER_ENSEMBLE]
        assert ensemble_stage["requests"] == 3
        assert ensemble_stage["fees_usd"] == pytest.approx(
            token_fee_usd(
                Usage(
                    prompt_tokens=ensemble_stage["prompt_tokens"],
                    completion_tokens=ensemble_stage["completion_tokens"],
                )
            )
        )
        assert TIER_SCOUT not in stages

    def test_escalations_shrink_as_the_threshold_rises(
        self, clients, detector, calibration, eval_images
    ):
        """The monotonicity property: a larger doubt tolerance never
        escalates more indicators out of tier 0."""
        escalated = []
        accepted = []
        for threshold in sorted(THRESHOLD_GRID):
            cascade = _cascade(
                clients, detector, calibration, threshold=threshold
            )
            cascade.predict_location(eval_images)
            stats = cascade.stats.snapshot()
            total = len(eval_images) * N_INDICATORS
            escalated.append(total - stats["tier0_indicators"])
            accepted.append(stats["tier0_indicators"])
        assert all(a >= b for a, b in zip(escalated, escalated[1:]))
        assert all(a <= b for a, b in zip(accepted, accepted[1:]))
        assert escalated[0] == len(eval_images) * N_INDICATORS

    def test_default_threshold_beats_ensemble_fee_on_f1_parity(
        self, clients, detector, calibration, eval_images
    ):
        truths = [image.presence for image in eval_images]
        ensemble = _ensemble(clients)
        baseline_fee = 0.0
        baseline_predictions = []
        for image in eval_images:
            record = ensemble.vote_image(image)
            baseline_predictions.append(record.presence)
            baseline_fee += token_fee_usd(
                Usage(
                    prompt_tokens=record.prompt_tokens,
                    completion_tokens=record.completion_tokens,
                )
            )
        cascade = _cascade(
            clients, detector, calibration, threshold=DEFAULT_THRESHOLD
        )
        predictions, _ = cascade.predict_location(eval_images)
        stages = cascade.meter.stage_totals()
        cascade_fee = sum(
            stages.get(tier, {}).get("fees_usd", 0.0)
            for tier in (TIER_SCOUT, TIER_ENSEMBLE)
        )
        assert cascade_fee < baseline_fee
        baseline_f1 = micro_f1(baseline_predictions, truths)
        cascade_f1 = micro_f1(predictions, truths)
        assert cascade_f1 >= baseline_f1 - 0.01


# ----------------------------------------------------------------------
# Tier 0 scores pixels at the detector's own input size.


def _at_size(images, size):
    """Copies of ``images`` that carry a different capture ``size``."""
    return [dataclasses.replace(image, size=size) for image in images]


def _lean_f1(probabilities, truths):
    """Micro-F1 of calibrated presence leans (``p >= 0.5``)."""
    predicted = probabilities >= 0.5
    tp = int((predicted & truths).sum())
    fp = int((predicted & ~truths).sum())
    fn = int((~predicted & truths).sum())
    return 2 * tp / (2 * tp + fp + fn)


class TestTierZeroResolution:
    def test_detector_records_its_training_size(self, detector):
        assert detector.input_size == 256

    def test_capture_size_does_not_change_routing(
        self, clients, detector, calibration, eval_images
    ):
        large = _at_size(eval_images, 640)
        runs = []
        for images in (eval_images, large):
            cascade = _cascade(clients, detector, calibration, threshold=0.05)
            presences = cascade.predict_location(images)
            runs.append(
                (presences, cascade.stats.snapshot(), cascade.meter.stage_totals())
            )
        assert runs[0] == runs[1]
        stats = runs[0][1]
        assert stats["tier0_indicators"] < len(eval_images) * N_INDICATORS

    def test_calibration_ignores_holdout_size(
        self, detector, calibration, holdout
    ):
        large = fit_cascade_calibration(detector, _at_size(holdout, 640))
        assert len(large.curves) == len(calibration.curves)
        for got, want in zip(large.curves, calibration.curves):
            assert np.array_equal(got.positions, want.positions)
            assert np.array_equal(got.values, want.values)

    def test_input_size_f1_holds_against_640_renders(
        self, detector, calibration, holdout
    ):
        """The accuracy gate for the smaller tier-0 renders.

        Tier 0 decides presence by the calibrated lean.  At the
        detector's ``input_size`` that lean must score within 0.01
        micro-F1 of two 640-px alternatives on held-out scenes: 640
        renders under the same calibration (what routing did before it
        rendered at ``input_size``), and 640 renders under a
        calibration fit on 640 renders.
        """
        scenes = build_survey_dataset(n_images=48, size=640, seed=57).images
        truths = presence_matrix(scenes)

        def peaks(images, size):
            scores, _ = detector.predict_cells_batch(
                [image.render(size) for image in images]
            )
            return NanoDetector.indicator_scores(scores)

        calibration_640 = fit_margin_calibration(
            peaks(holdout, 640), presence_matrix(holdout)
        )
        peaks_640 = peaks(scenes, 640)
        f1_input = _lean_f1(
            calibration.probabilities(peaks(scenes, detector.input_size)),
            truths,
        )
        for reference in (calibration, calibration_640):
            f1_640 = _lean_f1(reference.probabilities(peaks_640), truths)
            assert f1_input >= f1_640 - 0.01, (f1_input, f1_640)


# ----------------------------------------------------------------------
# Survey integration: the two sets of books must reconcile.


class TestCascadeSurvey:
    @pytest.fixture(scope="class")
    def county(self):
        return make_durham_like(seed=3)

    def test_decoder_requires_exactly_one_backend(
        self, clients, detector, calibration, county
    ):
        street_view = StreetViewClient(counties=[county], api_key="cascade")
        cascade = _cascade(clients, detector, calibration)
        with pytest.raises(ValueError, match="exactly one"):
            NeighborhoodDecoder(
                street_view=street_view,
                classifier=LLMIndicatorClassifier(clients[GPT_4O_MINI]),
                cascade=cascade,
            )
        with pytest.raises(ValueError, match="exactly one"):
            NeighborhoodDecoder(street_view=street_view)

    def test_survey_reconciles_and_reports_cascade_stats(
        self, clients, detector, calibration, county
    ):
        cascade = _cascade(clients, detector, calibration)
        decoder = NeighborhoodDecoder(
            street_view=StreetViewClient(counties=[county], api_key="cascade"),
            cascade=cascade,
        )
        with use_metrics(MetricsRegistry()):
            report = decoder.survey(county, 4, seed=9)
        assert report.coverage == 1.0
        stats = report.cascade_stats
        assert stats["images"] == report.images_classified
        assert (
            stats["tier0_indicators"]
            + stats["tier1_indicators"]
            + stats["tier2_indicators"]
            == report.images_classified * N_INDICATORS
        )
        assert reconcile_survey(report) == []

    def test_pipelined_survey_matches_serial_bytes(
        self, clients, detector, calibration, county
    ):
        serial = NeighborhoodDecoder(
            street_view=StreetViewClient(counties=[county], api_key="cascade"),
            cascade=_cascade(clients, detector, calibration),
        )
        pipelined = NeighborhoodDecoder(
            street_view=StreetViewClient(counties=[county], api_key="cascade"),
            cascade=_cascade(clients, detector, calibration),
        )
        with use_metrics(MetricsRegistry()):
            serial_report = serial.survey(county, 4, seed=9)
        with use_metrics(MetricsRegistry()):
            pipelined_report = pipelined.survey(
                county, 4, seed=9, max_inflight=4
            )
        assert serial_report.to_json() == pipelined_report.to_json()


# ----------------------------------------------------------------------
# Seeded outage drill (faults marker, excluded from tier-1).


class _OutageClient(ChatClient):
    """Answer normally for the first ``fail_after`` calls, then die."""

    def __init__(self, inner: ChatClient, fail_after: int) -> None:
        super().__init__(model_name=inner.model_name)
        self.inner = inner
        self.fail_after = fail_after
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        if self.calls > self.fail_after:
            raise ServerError("injected mid-survey outage")
        response = self.inner.complete(request)
        self.stats.record(response.usage)
        return response


@pytest.mark.faults
class TestCascadeOutageDrill:
    def test_mid_survey_llm_outage_degrades_to_detector_answers(
        self, clients, detector, calibration
    ):
        """Every LLM dies mid-survey; the cascade must finish the
        survey on detector leans with the fallbacks accounted for."""
        county = make_durham_like(seed=3)
        # Stagger the cut so one vote straddles the outage boundary:
        # the first model dies two images before the other three, which
        # degrades that vote before the full blackout forces fallbacks.
        outage_clients = {
            model_id: _OutageClient(
                client, fail_after=4 if position == 0 else 6
            )
            for position, (model_id, client) in enumerate(
                sorted(clients.items())
            )
        }
        config = ClassifierConfig(max_attempts=1)
        ensemble = VotingEnsemble(
            classifiers={
                model_id: LLMIndicatorClassifier(client, config=config)
                for model_id, client in outage_clients.items()
            }
        )
        cascade = CascadeClassifier(
            detector=detector,
            calibration=calibration,
            scout=LLMIndicatorClassifier(
                outage_clients[GPT_4O_MINI], config=config
            ),
            ensemble=ensemble,
            threshold=0.0,  # everything escalates: maximum LLM exposure
        )
        decoder = NeighborhoodDecoder(
            street_view=StreetViewClient(counties=[county], api_key="drill"),
            cascade=cascade,
        )
        with use_metrics(MetricsRegistry()):
            report = decoder.survey(county, 3, seed=9)
        # The outage cost answer *quality*, never coverage.
        assert report.coverage == 1.0
        assert report.failed_locations == []
        stats = report.cascade_stats
        assert stats["detector_fallbacks"] > 0
        assert stats["tier2_indicators"] == (
            report.images_classified * N_INDICATORS
        )
        # Some vote straddled the outage boundary: members that
        # answered before the cut voted, the rest degraded the vote.
        assert report.degraded_votes > 0
        assert reconcile_survey(report) == []
