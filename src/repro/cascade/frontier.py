"""Accuracy-vs-cost frontier: what each doubt tolerance buys.

``sweep_frontier`` replays one labeled image set through the cascade
at every threshold on a grid and through the always-ensemble baseline
once, recording for each point the realized LLM fee, micro-F1 against
ground truth, per-tier routing rates and escalation reasons.  The
result is the reproducible cost/accuracy frontier the paper's
scalability argument needs: the table shows exactly how much fee the
detector absorbs before F1 starts paying for it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..core.indicators import ALL_INDICATORS, IndicatorPresence
from ..core.voting import VotingEnsemble
from ..detect.model import NanoDetector
from ..gsv.dataset import LabeledImage
from ..llm.base import Usage
from ..llm.calibration import MarginCalibration
from .calibrate import THRESHOLD_GRID
from .router import (
    DEFAULT_THRESHOLD,
    TIER_ENSEMBLE,
    TIER_SCOUT,
    CascadeClassifier,
    token_fee_usd,
)

#: Survey locations capture four cardinal headings, so frontier fees
#: aggregate per location as 4x the per-image spend.
IMAGES_PER_LOCATION = 4


def micro_f1(
    predictions: Sequence[IndicatorPresence],
    truths: Sequence[IndicatorPresence],
) -> float:
    """Micro-averaged F1 over all (image, indicator) decisions."""
    if len(predictions) != len(truths):
        raise ValueError("prediction/truth lengths differ")
    tp = fp = fn = 0
    for predicted, actual in zip(predictions, truths):
        for indicator in ALL_INDICATORS:
            p, a = predicted[indicator], actual[indicator]
            if p and a:
                tp += 1
            elif p and not a:
                fp += 1
            elif a and not p:
                fn += 1
    denominator = 2 * tp + fp + fn
    if denominator == 0:
        return 1.0
    return 2 * tp / denominator


@dataclass(frozen=True)
class CascadePoint:
    """One realized point on the cost/accuracy frontier."""

    threshold: float
    fee_usd: float
    fee_per_location_usd: float
    f1: float
    tier0_rate: float
    tier1_rate: float
    tier2_rate: float
    split_escalations: int
    deep_escalations: int
    detector_fallbacks: int

    def fee_reduction_vs(self, baseline_fee_usd: float) -> float | None:
        """Baseline-fee multiple saved; ``None`` when the point is free."""
        if self.fee_usd <= 0:
            return None
        return baseline_fee_usd / self.fee_usd

    def as_dict(self, baseline_fee_usd: float) -> dict:
        return {
            "threshold": self.threshold,
            "fee_usd": round(self.fee_usd, 9),
            "fee_per_location_usd": round(self.fee_per_location_usd, 9),
            "f1": round(self.f1, 6),
            "tier0_rate": round(self.tier0_rate, 6),
            "tier1_rate": round(self.tier1_rate, 6),
            "tier2_rate": round(self.tier2_rate, 6),
            "split_escalations": self.split_escalations,
            "deep_escalations": self.deep_escalations,
            "detector_fallbacks": self.detector_fallbacks,
            "fee_reduction": self.fee_reduction_vs(baseline_fee_usd),
        }


@dataclass
class FrontierReport:
    """The sweep's points plus the always-ensemble baseline."""

    n_images: int
    baseline_fee_usd: float
    baseline_f1: float
    default_threshold: float
    points: list[CascadePoint]

    @property
    def baseline_fee_per_location_usd(self) -> float:
        if self.n_images == 0:
            return 0.0
        return self.baseline_fee_usd * IMAGES_PER_LOCATION / self.n_images

    def point_at(self, threshold: float) -> CascadePoint:
        for point in self.points:
            if abs(point.threshold - threshold) < 1e-12:
                return point
        raise KeyError(f"no frontier point at threshold {threshold}")

    def payload(self) -> dict:
        return {
            "n_images": self.n_images,
            "images_per_location": IMAGES_PER_LOCATION,
            "baseline": {
                "fee_usd": round(self.baseline_fee_usd, 9),
                "fee_per_location_usd": round(
                    self.baseline_fee_per_location_usd, 9
                ),
                "f1": round(self.baseline_f1, 6),
            },
            "default_threshold": self.default_threshold,
            "points": [
                point.as_dict(self.baseline_fee_usd)
                for point in self.points
            ],
        }


def _ensemble_baseline(
    ensemble: VotingEnsemble, images: Sequence[LabeledImage]
) -> tuple[list[IndicatorPresence], float]:
    """Always-ensemble predictions and their realized token fee."""
    predictions: list[IndicatorPresence] = []
    fee = 0.0
    for image in images:
        record = ensemble.vote_image(image)
        predictions.append(record.presence)
        fee += token_fee_usd(
            Usage(
                prompt_tokens=record.prompt_tokens,
                completion_tokens=record.completion_tokens,
            )
        )
    return predictions, fee


def sweep_frontier(
    detector: NanoDetector,
    calibration: MarginCalibration,
    scout,
    ensemble: VotingEnsemble,
    images: Sequence[LabeledImage],
    thresholds: Sequence[float] = THRESHOLD_GRID,
    default_threshold: float = DEFAULT_THRESHOLD,
) -> FrontierReport:
    """Realize the frontier on a labeled image set.

    The default threshold is always included in the sweep so the
    report can quote the operating point the survey CLI ships with.
    """
    if not images:
        raise ValueError("frontier sweep needs labeled images")
    truths = [image.presence for image in images]
    baseline_predictions, baseline_fee = _ensemble_baseline(ensemble, images)
    baseline_f1 = micro_f1(baseline_predictions, truths)
    swept = sorted(set(float(t) for t in thresholds) | {default_threshold})
    points: list[CascadePoint] = []
    total = len(images) * len(ALL_INDICATORS)
    for threshold in swept:
        cascade = CascadeClassifier(
            detector=detector,
            calibration=calibration,
            scout=scout,
            ensemble=ensemble,
            threshold=threshold,
        )
        predictions, _ = cascade.predict_location(images)
        stats = cascade.stats.snapshot()
        stages = cascade.meter.stage_totals()
        fee = sum(
            stages.get(tier, {}).get("fees_usd", 0.0)
            for tier in (TIER_SCOUT, TIER_ENSEMBLE)
        )
        points.append(
            CascadePoint(
                threshold=threshold,
                fee_usd=fee,
                fee_per_location_usd=(
                    fee * IMAGES_PER_LOCATION / len(images)
                ),
                f1=micro_f1(predictions, truths),
                tier0_rate=stats["tier0_indicators"] / total,
                tier1_rate=stats["tier1_indicators"] / total,
                tier2_rate=stats["tier2_indicators"] / total,
                split_escalations=stats["split_escalations"],
                deep_escalations=stats["deep_escalations"],
                detector_fallbacks=stats["detector_fallbacks"],
            )
        )
    return FrontierReport(
        n_images=len(images),
        baseline_fee_usd=baseline_fee,
        baseline_f1=baseline_f1,
        default_threshold=default_threshold,
        points=points,
    )


def render_frontier_table(report: FrontierReport) -> str:
    """Markdown frontier table (the CLI/CI artifact)."""
    lines = [
        f"Always-ensemble baseline: F1 {report.baseline_f1:.4f}, "
        f"${report.baseline_fee_per_location_usd:.6f}/location "
        f"over {report.n_images} images",
        "",
        "| threshold | tier0 | tier1 | tier2 | F1 | $/location |"
        " fee reduction |",
        "|---:|---:|---:|---:|---:|---:|---:|",
    ]
    for point in report.points:
        reduction = point.fee_reduction_vs(report.baseline_fee_usd)
        marker = (
            " (default)"
            if abs(point.threshold - report.default_threshold) < 1e-12
            else ""
        )
        lines.append(
            f"| {point.threshold:.2f}{marker} "
            f"| {point.tier0_rate:.0%} "
            f"| {point.tier1_rate:.0%} "
            f"| {point.tier2_rate:.0%} "
            f"| {point.f1:.4f} "
            f"| ${point.fee_per_location_usd:.6f} "
            f"| {'∞' if reduction is None else f'{reduction:.1f}x'} |"
        )
    return "\n".join(lines)
