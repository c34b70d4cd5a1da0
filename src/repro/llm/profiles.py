"""Model profiles: fitted response policies per simulated VLM.

A :class:`ModelProfile` bundles everything that distinguishes one
simulated model from another:

* per-indicator :class:`~repro.llm.calibration.ResponsePolicy`
  (threshold/slope fitted to the paper's Tables III–VI),
* a per-indicator threshold shift applied under complex ("sequential")
  prompt structure, fitted to the Fig. 4 recall gap,
* per-(language, indicator) threshold shifts fitted to the Fig. 6
  language sweep (term-association failures included),
* an idiosyncratic perception noise level, which controls how much of
  a model's error is private vs. shared scene difficulty.

``calibrate_profiles`` runs the whole fitting procedure against a set
of calibration scenes and returns ready-to-use profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.indicators import ALL_INDICATORS, Indicator
from ..scene.model import Scene
from ..scene.seeding import stable_seed
from .calibration import (
    PolicyFit,
    ResponsePolicy,
    derive_rates,
    expected_yes_rate,
    fit_policy,
    fit_threshold,
    fit_thresholds,
)
from .language import Language
from .paper_targets import (
    ALL_MODEL_IDS,
    DISPLAY_NAMES,
    PAPER_LANGUAGE_CLASS_OVERRIDES,
    PAPER_LANGUAGE_RECALL,
    PAPER_LLM_METRICS,
    PAPER_PROMPT_STYLE_RECALL,
)
from .perception import EvidenceModel

#: Idiosyncratic perception noise per model.  Values are small so the
#: shared scene-difficulty channel dominates (correlated errors).
IDIO_SIGMA: dict[str, float] = {
    "gpt-4o-mini": 0.06,
    "gemini-1.5-pro": 0.04,
    "claude-3.7": 0.05,
    "grok-2": 0.06,
}


def _idio_noised(
    model_id: str,
    idio_sigma: float,
    scene_id: str,
    indicator: Indicator,
    evidence: float,
) -> float:
    """Shared evidence plus one model's private perception noise.

    The one statement of the noise: calibration fits policies to it and
    :meth:`ModelProfile.idio_evidence` serves it, so the two agree.
    """
    rng = np.random.default_rng(
        stable_seed("idio", model_id, scene_id, indicator.value)
    )
    return float(
        np.clip(evidence + rng.normal(0.0, idio_sigma), 0.005, 0.995)
    )


@dataclass
class ModelProfile:
    """Everything the simulator needs to answer as one model."""

    model_id: str
    display_name: str
    idio_sigma: float
    policies: dict[Indicator, ResponsePolicy]
    sequential_shifts: dict[Indicator, float] = field(default_factory=dict)
    language_shifts: dict[tuple[Language, Indicator], float] = field(
        default_factory=dict
    )
    fits: dict[Indicator, PolicyFit] = field(default_factory=dict)

    def effective_policy(
        self,
        indicator: Indicator,
        language: Language = Language.ENGLISH,
        complex_structure: bool = False,
        language_shift_scale: float = 1.0,
    ) -> ResponsePolicy:
        """The policy after structure and language threshold shifts.

        ``language_shift_scale`` attenuates the language penalty —
        few-shot exemplars ground the translated terms, partially
        restoring English-level recall (the paper's §V mitigation).
        """
        if not 0.0 <= language_shift_scale <= 1.0:
            raise ValueError(
                f"language shift scale out of range: {language_shift_scale}"
            )
        shift = 0.0
        if complex_structure:
            shift += self.sequential_shifts.get(indicator, 0.0)
        shift += language_shift_scale * self.language_shifts.get(
            (language, indicator), 0.0
        )
        base = self.policies[indicator]
        return base.shifted(shift) if shift else base

    def idio_evidence(self, scene_id: str, indicator: Indicator, evidence: float) -> float:
        """Apply this model's private perception noise to shared evidence."""
        return _idio_noised(
            self.model_id, self.idio_sigma, scene_id, indicator, evidence
        )


def _noised_samples(
    model_id: str,
    idio_sigma: float,
    scenes: list[Scene],
    shared: dict[str, dict[Indicator, float]],
    indicator: Indicator,
    present: bool,
) -> np.ndarray:
    """Evidence samples with the model's idio noise, split by truth."""
    return np.asarray(
        [
            _idio_noised(
                model_id,
                idio_sigma,
                scene.scene_id,
                indicator,
                shared[scene.scene_id][indicator],
            )
            for scene in scenes
            if scene.presence[indicator] == present
        ]
    )


def calibrate_profiles(
    scenes: list[Scene],
    evidence_model: EvidenceModel | None = None,
    model_ids: tuple[str, ...] = ALL_MODEL_IDS,
) -> dict[str, ModelProfile]:
    """Fit all model profiles against calibration scenes.

    ``scenes`` should be a representative survey sample (several
    hundred scenes); class prevalence is measured from it and combined
    with the paper's precision/recall to produce (TPR, FPR) targets.
    """
    if not scenes:
        raise ValueError("no calibration scenes")
    if evidence_model is None:
        evidence_model = EvidenceModel()

    shared = {
        scene.scene_id: evidence_model.evidence(scene) for scene in scenes
    }
    prevalence = {
        indicator: float(
            np.mean([scene.presence[indicator] for scene in scenes])
        )
        for indicator in ALL_INDICATORS
    }

    profiles = {}
    for model_id in model_ids:
        idio_sigma = IDIO_SIGMA.get(model_id, 0.05)
        policies: dict[Indicator, ResponsePolicy] = {}
        fits: dict[Indicator, PolicyFit] = {}
        present_samples: dict[Indicator, np.ndarray] = {}

        for indicator in ALL_INDICATORS:
            target = PAPER_LLM_METRICS[model_id][indicator]
            pi = prevalence[indicator]
            if not 0.0 < pi < 1.0:
                raise ValueError(
                    f"calibration scenes have degenerate prevalence for "
                    f"{indicator.value}: {pi}"
                )
            # A published recall of 1.00 is a rounding artifact; an
            # exact 1.0 target would drive the threshold fit to the
            # degenerate always-yes policy.
            tpr, fpr = derive_rates(
                target.precision, min(target.recall, 0.985), pi
            )
            fpr = max(fpr, 0.002)
            present = _noised_samples(
                model_id, idio_sigma, scenes, shared, indicator, True
            )
            absent = _noised_samples(
                model_id, idio_sigma, scenes, shared, indicator, False
            )
            fit = fit_policy(present, absent, tpr, min(fpr, 0.95))
            policies[indicator] = fit.policy
            fits[indicator] = fit
            present_samples[indicator] = present

        sequential_shifts = _fit_sequential_shifts(
            model_id, policies, present_samples
        )
        language_shifts = _fit_language_shifts(policies, present_samples)
        profiles[model_id] = ModelProfile(
            model_id=model_id,
            display_name=DISPLAY_NAMES.get(model_id, model_id),
            idio_sigma=idio_sigma,
            policies=policies,
            sequential_shifts=sequential_shifts,
            language_shifts=language_shifts,
            fits=fits,
        )
    return profiles


def _fit_sequential_shifts(
    model_id: str,
    policies: dict[Indicator, ResponsePolicy],
    present_samples: dict[Indicator, np.ndarray],
) -> dict[Indicator, float]:
    """Threshold shifts reproducing the Fig. 4 sequential recall drop."""
    style = PAPER_PROMPT_STYLE_RECALL.get(model_id)
    if style is None:
        return {}
    ratio = style["sequential"] / style["parallel"]
    shifts = {}
    for indicator, policy in policies.items():
        base_recall = PAPER_LLM_METRICS[model_id][indicator].recall
        target = float(np.clip(base_recall * ratio, 0.02, 0.995))
        threshold = fit_threshold(
            present_samples[indicator], policy.slope, target
        )
        shifts[indicator] = max(0.0, threshold - policy.threshold)
    return shifts


def _fit_language_shifts(
    policies: dict[Indicator, ResponsePolicy],
    present_samples: dict[Indicator, np.ndarray],
) -> dict[tuple[Language, Indicator], float]:
    """Threshold shifts reproducing the Fig. 6 language degradation.

    The paper only ran the language sweep on Gemini; the same shifts
    are installed in every profile (the mechanism — uneven multilingual
    training data — is model-family-agnostic).
    """
    english = PAPER_LANGUAGE_RECALL[Language.ENGLISH]
    base_recalls = {
        indicator: _implied_recall(policy, present_samples[indicator])
        for indicator, policy in policies.items()
    }
    n_classes = len(policies)
    languages = [
        language
        for language in PAPER_LANGUAGE_RECALL
        if language is not Language.ENGLISH
    ]
    targets: dict[Indicator, list[float]] = {
        indicator: [] for indicator in policies
    }
    for language in languages:
        avg_recall = PAPER_LANGUAGE_RECALL[language]
        # The catastrophic per-class overrides carry most of the
        # average degradation; the remaining classes shrink by the
        # scale that makes the class-mean hit the paper's average
        # (relative to the model's own English recall).
        overrides = {
            indicator: PAPER_LANGUAGE_CLASS_OVERRIDES[(language, indicator)]
            for indicator in policies
            if (language, indicator) in PAPER_LANGUAGE_CLASS_OVERRIDES
        }
        target_mean = avg_recall / english * float(
            np.mean(list(base_recalls.values()))
        )
        others_base = sum(
            recall
            for indicator, recall in base_recalls.items()
            if indicator not in overrides
        )
        others_target = target_mean * n_classes - sum(overrides.values())
        scale = (
            float(np.clip(others_target / others_base, 0.05, 1.0))
            if others_base > 0
            else 1.0
        )
        for indicator in policies:
            override = overrides.get(indicator)
            targets[indicator].append(
                override
                if override is not None
                else float(
                    np.clip(base_recalls[indicator] * scale, 0.02, 0.995)
                )
            )
    # All of one indicator's language targets share its samples and
    # slope, so they bisect together.
    thresholds = {
        indicator: fit_thresholds(
            present_samples[indicator],
            np.full(len(languages), policy.slope),
            targets[indicator],
        )
        for indicator, policy in policies.items()
    }
    return {
        (language, indicator): max(
            0.0, float(thresholds[indicator][row]) - policy.threshold
        )
        for row, language in enumerate(languages)
        for indicator, policy in policies.items()
    }


def _implied_recall(
    policy: ResponsePolicy, present: np.ndarray
) -> float:
    return expected_yes_rate(present, policy)
