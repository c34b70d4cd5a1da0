"""The three-tier cascade classifier (DESIGN.md §13).

Tier 0 runs the nano detector on every image, rendered at the
detector's own ``input_size`` (the size it was trained and calibrated
at), and converts its per-indicator peak scores into calibrated
probabilities (:class:`~repro.llm.calibration.MarginCalibration`).
An indicator whose calibrated *doubt* — ``min(p, 1-p)`` — is within
the configured tolerance is answered by the detector's lean alone.
Doubt beyond the tolerance escalates:

* **mid band** (``threshold < doubt <= DEFAULT_DEEP_FACTOR * threshold``) —
  a single-LLM *scout* is asked only about the doubted indicators; a
  scout answer that agrees with the detector's lean is accepted, a
  split escalates the indicator to the full ensemble;
* **deep band** (``doubt > DEFAULT_DEEP_FACTOR * threshold``) — the scout is
  skipped and the indicator goes straight to full ensemble voting.

With ``threshold=0`` every doubt is deep (doubt is clipped strictly
positive), so every indicator of every image routes directly to
:meth:`~repro.core.voting.VotingEnsemble.vote_image` with the full
indicator set — the exact code path, requests and retry accounting of
a plain ensemble survey, which is what makes the threshold-0 report
byte-identical to the ensemble golden fixture.

The router never fails a location on LLM trouble: when a scout or the
whole ensemble errors out, the affected indicators fall back to the
detector's calibrated lean and the fallback is counted — a mid-survey
LLM outage degrades coverage *quality*, not coverage.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..core.classifier import ClassificationError, LLMIndicatorClassifier
from ..core.indicators import ALL_INDICATORS, Indicator, IndicatorPresence
from ..core.voting import VotingEnsemble
from ..detect.model import NanoDetector
from ..gsv.api import UsageMeter
from ..gsv.dataset import LabeledImage
from ..llm.base import Usage
from ..llm.calibration import MarginCalibration
from ..obs.metrics import get_metrics
from ..obs.scope import tally

#: Default doubt tolerance — chosen on the paper-synthetic frontier
#: (``repro cascade frontier``): the largest grid threshold that held
#: the accepted-indicator error under 1% on the validation split while
#: cutting the fee per location at least fivefold.
DEFAULT_THRESHOLD = 0.2

#: Doubt beyond ``DEFAULT_DEEP_FACTOR * threshold`` skips the scout
#: entirely: when the detector is this unsure, a single second opinion
#: rarely settles it and the scout call is wasted money.
DEFAULT_DEEP_FACTOR = 2.0

#: Numeric tier of the tier-0 detector forward (see
#: :data:`repro.detect.model.PRECISIONS`): the float32 fast path.  Its
#: peaks drift from float64's by a median of ~2e-7 and at most ~1e-2,
#: which the piecewise-constant calibration absorbs (no routing band
#: moves on held-out scenes; DESIGN.md §14), and tier 0 runs on *every*
#: image, so this is where the fast kernel's speedup actually lands.
TIER0_PRECISION = "float32"

#: Stage labels for :class:`~repro.gsv.api.UsageMeter` attribution.
TIER_DETECTOR = "tier0.detector"
TIER_SCOUT = "tier1.scout"
TIER_ENSEMBLE = "tier2.ensemble"

#: Blended flat LLM pricing (USD per 1k tokens), identical across the
#: simulated commercial models — the frontier compares *routing*
#: policies, so per-model price spread would only blur the signal.
PROMPT_PRICE_PER_1K_USD = 0.0025
COMPLETION_PRICE_PER_1K_USD = 0.01


def token_fee_usd(usage: Usage | None) -> float:
    """Blended USD fee for one call's token usage."""
    if usage is None:
        return 0.0
    return (
        usage.prompt_tokens * PROMPT_PRICE_PER_1K_USD
        + usage.completion_tokens * COMPLETION_PRICE_PER_1K_USD
    ) / 1000.0


@dataclass
class CascadeStats:
    """Thread-safe per-tier routing counters.

    ``tierN_indicators`` count indicator decisions settled at each
    tier; their sum is ``images * len(ALL_INDICATORS)``.  Escalation
    reasons are broken out (``split_escalations`` — the scout
    disagreed with the detector's lean; ``deep_escalations`` — doubt
    beyond the deep band skipped the scout), and
    ``detector_fallbacks`` counts indicators answered by the detector
    lean because an LLM tier failed outright.  Every increment is also
    tallied (``cascade.<field>``) into the caller's
    :class:`~repro.obs.scope.Tally`, which is what a survey report's
    ``cascade_stats`` sums.
    """

    images: int = 0
    tier0_indicators: int = 0
    tier1_indicators: int = 0
    tier2_indicators: int = 0
    split_escalations: int = 0
    deep_escalations: int = 0
    detector_fallbacks: int = 0
    scout_calls: int = 0
    ensemble_calls: int = 0
    _lock: threading.Lock = field(
        init=False, repr=False, compare=False, default_factory=threading.Lock
    )

    FIELDS = (
        "images",
        "tier0_indicators",
        "tier1_indicators",
        "tier2_indicators",
        "split_escalations",
        "deep_escalations",
        "detector_fallbacks",
        "scout_calls",
        "ensemble_calls",
    )

    def add(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                if name not in self.FIELDS:
                    raise ValueError(f"unknown cascade counter: {name}")
                setattr(self, name, getattr(self, name) + delta)
        for name, delta in deltas.items():
            tally(f"cascade.{name}", delta)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {name: getattr(self, name) for name in self.FIELDS}


@dataclass
class CascadeClassifier:
    """Route each indicator of each image to the cheapest decisive tier.

    Drop-in classification backend for
    :class:`~repro.core.pipeline.NeighborhoodDecoder` (its ``cascade``
    field): :meth:`predict_location` has the same contract as the
    classifier/ensemble branches.

    Tier 0 renders every capture at ``detector.input_size``,
    whatever ``size`` the capture carries: the detector's features and
    its calibration were both fit at that scale, and GSV bills per
    image, not per pixel.

    Fees and tokens land in per-tier buckets of ``meter``
    (:meth:`~repro.gsv.api.UsageMeter.record_stage`), and routing
    counts in ``stats`` — both are cross-checked against the metrics
    registry by :func:`repro.obs.audit.reconcile_survey`.
    """

    detector: NanoDetector
    calibration: MarginCalibration
    scout: LLMIndicatorClassifier
    ensemble: VotingEnsemble
    threshold: float = DEFAULT_THRESHOLD
    meter: UsageMeter = field(default_factory=UsageMeter)
    stats: CascadeStats = field(default_factory=CascadeStats)

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 0.5:
            raise ValueError(
                f"threshold must be a doubt in [0, 0.5]: {self.threshold}"
            )
        if self.detector.input_size is None:
            raise ValueError(
                "detector has no input_size (trained from bare tensors "
                "or saved before sizes were recorded); retrain it with "
                "train_detector on labeled images"
            )

    # ------------------------------------------------------------------

    def predict_location(
        self, images: Sequence[LabeledImage]
    ) -> tuple[list[IndicatorPresence], int]:
        """Classify one location's images through the cascade.

        Returns ``(presences, degraded_votes)`` — the same contract as the decoder's ensemble branch.  The
        detector forward is batched over the whole location, on pixels
        rendered at the detector's ``input_size``.
        """
        if not images:
            return [], 0
        metrics = get_metrics()
        pixels = [image.render(self.detector.input_size) for image in images]
        scores, _ = self.detector.predict_cells_batch(
            pixels, precision=TIER0_PRECISION
        )
        peaks = NanoDetector.indicator_scores(scores)
        probabilities = self.calibration.probabilities(peaks)
        doubts = np.minimum(probabilities, 1.0 - probabilities)
        leans = probabilities >= 0.5
        self.meter.record_stage(TIER_DETECTOR, requests=1, images=len(images))
        metrics.inc("cascade.images", len(images))
        presences: list[IndicatorPresence] = []
        degraded = 0
        for position, image in enumerate(images):
            presence, image_degraded = self._route_image(
                image, doubts[position], leans[position]
            )
            presences.append(presence)
            degraded += image_degraded
        return presences, degraded

    # ------------------------------------------------------------------

    def _route_image(
        self,
        image: LabeledImage,
        doubts: np.ndarray,
        leans: np.ndarray,
    ) -> tuple[IndicatorPresence, int]:
        """Route one image's indicators; returns (presence, degraded)."""
        metrics = get_metrics()
        accepted: dict[Indicator, bool] = {}
        mid: list[Indicator] = []
        deep: list[Indicator] = []
        deep_bound = DEFAULT_DEEP_FACTOR * self.threshold
        for index, indicator in enumerate(ALL_INDICATORS):
            doubt = float(doubts[index])
            if doubt <= self.threshold:
                accepted[indicator] = bool(leans[index])
            elif doubt <= deep_bound:
                mid.append(indicator)
            else:
                deep.append(indicator)
        self.stats.add(
            images=1,
            tier0_indicators=len(accepted),
            deep_escalations=len(deep),
        )
        if accepted:
            metrics.inc("cascade.tier0.indicators", len(accepted))

        escalated = list(deep)
        if mid:
            settled, splits = self._scout_pass(image, mid, leans)
            accepted.update(settled)
            escalated.extend(splits)

        degraded = 0
        if escalated:
            voted, degraded = self._ensemble_pass(image, escalated, leans)
            accepted.update(voted)

        presence = IndicatorPresence(
            indicator for indicator, present in accepted.items() if present
        )
        return presence, degraded

    def _scout_pass(
        self,
        image: LabeledImage,
        mid: Sequence[Indicator],
        leans: np.ndarray,
    ) -> tuple[dict[Indicator, bool], list[Indicator]]:
        """Tier 1: one cheap LLM opinion on the mid-band indicators.

        Returns the settled answers and the indicators whose scout
        answer split from the detector's lean (those escalate).  A
        scout failure settles everything from the detector lean — the
        outage fallback, counted in ``detector_fallbacks``.
        """
        metrics = get_metrics()
        asked = tuple(
            indicator
            for indicator in self.scout.config.indicators
            if indicator in set(mid)
        )
        lean_of = {
            indicator: bool(leans[index])
            for index, indicator in enumerate(ALL_INDICATORS)
        }
        try:
            outcome = self.scout.classify_image(image, indicators=asked)
        except ClassificationError:
            self.stats.add(
                scout_calls=1,
                tier1_indicators=len(asked),
                detector_fallbacks=len(asked),
            )
            metrics.inc("cascade.tier1.indicators", len(asked))
            metrics.inc("cascade.fallbacks", len(asked))
            return {indicator: lean_of[indicator] for indicator in asked}, []
        self.meter.record_stage(
            TIER_SCOUT,
            requests=1,
            fees_usd=token_fee_usd(outcome.usage),
            prompt_tokens=outcome.usage.prompt_tokens if outcome.usage else 0,
            completion_tokens=(
                outcome.usage.completion_tokens if outcome.usage else 0
            ),
        )
        settled: dict[Indicator, bool] = {}
        splits: list[Indicator] = []
        for indicator in asked:
            answer = outcome.presence[indicator]
            if answer == lean_of[indicator]:
                settled[indicator] = answer
            else:
                splits.append(indicator)
        self.stats.add(
            scout_calls=1,
            tier1_indicators=len(settled),
            split_escalations=len(splits),
        )
        if settled:
            metrics.inc("cascade.tier1.indicators", len(settled))
        return settled, splits

    def _ensemble_pass(
        self,
        image: LabeledImage,
        escalated: Sequence[Indicator],
        leans: np.ndarray,
    ) -> tuple[dict[Indicator, bool], int]:
        """Tier 2: full ensemble vote on the escalated indicators.

        When *every* indicator escalated the vote runs with
        ``indicators=None`` — the byte-for-byte plain-ensemble code
        path (prompts, fingerprints, retry accounting all identical),
        which the threshold-0 golden test pins.  Returns
        ``(answers, degraded)``; a total ensemble failure
        falls back to detector leans instead of failing the location.
        """
        metrics = get_metrics()
        full = set(escalated) == set(ALL_INDICATORS)
        asked = (
            None
            if full
            else tuple(
                indicator
                for indicator in ALL_INDICATORS
                if indicator in set(escalated)
            )
        )
        try:
            record = self.ensemble.vote_image(image, indicators=asked)
        except ClassificationError:
            lean_of = {
                indicator: bool(leans[index])
                for index, indicator in enumerate(ALL_INDICATORS)
            }
            self.stats.add(
                ensemble_calls=1,
                tier2_indicators=len(escalated),
                detector_fallbacks=len(escalated),
            )
            metrics.inc("cascade.tier2.indicators", len(escalated))
            metrics.inc("cascade.fallbacks", len(escalated))
            return {ind: lean_of[ind] for ind in escalated}, 0
        self.meter.record_stage(
            TIER_ENSEMBLE,
            requests=1,
            fees_usd=token_fee_usd(
                Usage(
                    prompt_tokens=record.prompt_tokens,
                    completion_tokens=record.completion_tokens,
                )
            ),
            prompt_tokens=record.prompt_tokens,
            completion_tokens=record.completion_tokens,
        )
        self.stats.add(ensemble_calls=1, tier2_indicators=len(escalated))
        metrics.inc("cascade.tier2.indicators", len(escalated))
        answers = {
            indicator: record.presence[indicator] for indicator in escalated
        }
        return answers, int(record.degraded)
