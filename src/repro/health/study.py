"""Association studies: indicators → health outcomes, end to end.

Ties the whole reproduction to its motivating use case (Section I):

1. generate tracts across a county, each with a *true* indicator
   exposure profile (from the scene generator's zone priors realized
   over sampled locations) and synthetic outcome counts drawn from the
   literature-informed :class:`~repro.health.model.HealthModel`;
2. decode each tract's exposure with an LLM classifier (or take the
   ground truth);
3. regress outcome counts on exposures and compare the recovered
   coefficients against the generative truth.

Running the same analysis with ground-truth vs LLM-decoded exposures
quantifies how decoding error attenuates epidemiological estimates —
the question any adopter of the paper's pipeline should ask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.classifier import LLMIndicatorClassifier
from ..core.indicators import ALL_INDICATORS, Indicator
from ..geo.county import County
from ..geo.roadnet import build_road_network
from ..geo.sampling import (
    build_sampling_frame,
    expand_to_captures,
    select_survey_locations,
)
from ..gsv.api import StreetViewClient
from ..gsv.dataset import LabeledImage
from .model import OUTCOMES, HealthModel, Tract
from .regression import LogisticFit, fit_logistic


@dataclass
class TractSurvey:
    """Tracts plus the imagery used to estimate their exposures."""

    tracts: list[Tract]
    images_by_tract: dict[str, list[LabeledImage]]

    def true_exposures(self) -> dict[str, dict[Indicator, float]]:
        return {t.tract_id: dict(t.exposure) for t in self.tracts}

    def decoded_exposures(
        self, classifier: LLMIndicatorClassifier
    ) -> dict[str, dict[Indicator, float]]:
        """Per-tract exposure rates as decoded by an LLM classifier."""
        decoded = {}
        for tract in self.tracts:
            images = self.images_by_tract[tract.tract_id]
            predictions = classifier.predictions(images)
            decoded[tract.tract_id] = {
                indicator: float(
                    np.mean([p[indicator] for p in predictions])
                )
                for indicator in ALL_INDICATORS
            }
        return decoded


def build_tract_survey(
    county: County,
    n_tracts: int = 24,
    locations_per_tract: int = 6,
    population_range: tuple[int, int] = (800, 4000),
    health_model: HealthModel | None = None,
    seed: int = 0,
) -> TractSurvey:
    """Sample tracts, their imagery, and their synthetic outcomes."""
    if n_tracts <= 0 or locations_per_tract <= 0:
        raise ValueError("tract and location counts must be positive")
    if health_model is None:
        health_model = HealthModel(seed=seed)
    rng = np.random.default_rng(seed + 101)

    network = build_road_network(county, seed=seed + 3)
    frame = build_sampling_frame(county, network)
    points = select_survey_locations(
        {county.name: frame}, n_tracts * locations_per_tract, seed=seed + 5
    )
    client = StreetViewClient(
        counties=[county], api_key="health-study", generator_seed=seed
    )

    tracts = []
    images_by_tract: dict[str, list[LabeledImage]] = {}
    for tract_index in range(n_tracts):
        tract_id = f"{county.name.lower()}_tract_{tract_index:03d}"
        tract_points = points[
            tract_index * locations_per_tract : (tract_index + 1)
            * locations_per_tract
        ]
        images: list[LabeledImage] = []
        for point_index, point in enumerate(tract_points):
            for capture in expand_to_captures([point]):
                served = client.fetch_capture(capture, render=False)
                images.append(
                    LabeledImage(
                        image_id=(
                            f"{tract_id}_p{point_index}_h{capture.heading}"
                        ),
                        scene=served.scene,
                        annotations=tuple(
                            (obj.indicator, obj.box)
                            for obj in served.scene.objects
                        ),
                    )
                )
        exposure = {
            indicator: float(
                np.mean([image.presence[indicator] for image in images])
            )
            for indicator in ALL_INDICATORS
        }
        zone_kind = tract_points[0].zone_kind.value
        population = int(rng.integers(*population_range))
        tracts.append(
            health_model.sample_tract(
                tract_id=tract_id,
                county=county.name,
                zone_kind=zone_kind,
                exposure=exposure,
                population=population,
                rng=rng,
            )
        )
        images_by_tract[tract_id] = images
    return TractSurvey(tracts=tracts, images_by_tract=images_by_tract)


@dataclass
class AssociationStudy:
    """Fitted outcome models for one exposure source."""

    exposure_source: str
    fits: dict[str, LogisticFit]

    def coefficient(self, outcome: str, indicator: Indicator):
        return self.fits[outcome].coefficient(indicator.value)

    def sign_agreement(
        self, truth: dict[str, dict[Indicator, float]]
    ) -> float:
        """Fraction of (outcome, indicator) coefficient signs recovered.

        Only coefficients with |true β| ≥ 0.3 count — near-zero true
        effects have no meaningful sign.
        """
        agree = 0
        total = 0
        for outcome, coefficients in truth.items():
            for indicator, beta in coefficients.items():
                if abs(beta) < 0.3:
                    continue
                total += 1
                estimate = self.coefficient(outcome, indicator).estimate
                if np.sign(estimate) == np.sign(beta):
                    agree += 1
        return agree / total if total else float("nan")


def run_association_study(
    survey: TractSurvey,
    exposures: dict[str, dict[Indicator, float]],
    exposure_source: str,
) -> AssociationStudy:
    """Regress every outcome on the given per-tract exposures."""
    tract_ids = [tract.tract_id for tract in survey.tracts]
    missing = [tid for tid in tract_ids if tid not in exposures]
    if missing:
        raise ValueError(f"exposures missing for tracts: {missing[:3]}")
    design = np.array(
        [
            [exposures[tid][ind] for ind in ALL_INDICATORS]
            for tid in tract_ids
        ]
    )
    trials = np.array([tract.population for tract in survey.tracts])
    fits = {}
    for outcome in OUTCOMES:
        successes = np.array(
            [tract.outcome_counts[outcome] for tract in survey.tracts]
        )
        fits[outcome] = fit_logistic(
            design,
            successes,
            trials,
            feature_names=[ind.value for ind in ALL_INDICATORS],
        )
    return AssociationStudy(exposure_source=exposure_source, fits=fits)
