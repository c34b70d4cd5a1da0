"""Per-indicator binary classification metrics.

The LLM evaluation treats each indicator as an image-level presence
question, so the relevant metrics are the per-class confusion counts
and the derived precision / recall / F1 / accuracy — the columns of
the paper's Tables III–VI — plus their macro averages (Figs. 4–6).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .indicators import ALL_INDICATORS, Indicator, IndicatorPresence


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion counts for one indicator."""

    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp,
            self.fp + other.fp,
            self.tn + other.tn,
            self.fn + other.fn,
        )

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else float("nan")

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else float("nan")

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        if np.isnan(p) or np.isnan(r) or p + r == 0:
            return float("nan") if np.isnan(p) or np.isnan(r) else 0.0
        return 2 * p * r / (p + r)

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else float("nan")

    @property
    def true_positive_rate(self) -> float:
        return self.recall

    @property
    def false_positive_rate(self) -> float:
        denom = self.fp + self.tn
        return self.fp / denom if denom else float("nan")


@dataclass
class ClassificationReport:
    """Per-indicator confusion counts with paper-style summaries."""

    counts: dict[Indicator, ConfusionCounts]

    @classmethod
    def from_predictions(
        cls,
        truths: Sequence[IndicatorPresence],
        predictions: Sequence[IndicatorPresence],
    ) -> "ClassificationReport":
        if len(truths) != len(predictions):
            raise ValueError(
                f"{len(truths)} truths vs {len(predictions)} predictions"
            )
        tallies = {ind: [0, 0, 0, 0] for ind in ALL_INDICATORS}  # tp fp tn fn
        for truth, predicted in zip(truths, predictions):
            for indicator in ALL_INDICATORS:
                actual = truth[indicator]
                guess = predicted[indicator]
                if guess and actual:
                    tallies[indicator][0] += 1
                elif guess and not actual:
                    tallies[indicator][1] += 1
                elif not guess and not actual:
                    tallies[indicator][2] += 1
                else:
                    tallies[indicator][3] += 1
        return cls(
            counts={
                ind: ConfusionCounts(tp, fp, tn, fn)
                for ind, (tp, fp, tn, fn) in tallies.items()
            }
        )

    # ------------------------------------------------------------------

    def metric(self, indicator: Indicator, name: str) -> float:
        return getattr(self.counts[indicator], name)

    def macro(self, name: str) -> float:
        values = [
            getattr(self.counts[ind], name) for ind in ALL_INDICATORS
        ]
        finite = [v for v in values if not np.isnan(v)]
        return float(np.mean(finite)) if finite else float("nan")

    @property
    def mean_precision(self) -> float:
        return self.macro("precision")

    @property
    def mean_recall(self) -> float:
        return self.macro("recall")

    @property
    def mean_f1(self) -> float:
        return self.macro("f1")

    @property
    def mean_accuracy(self) -> float:
        return self.macro("accuracy")

    def rows(self) -> list[dict[str, float | str]]:
        """Appendix-table shaped rows + the Average line."""
        rows: list[dict[str, float | str]] = []
        for indicator in ALL_INDICATORS:
            counts = self.counts[indicator]
            rows.append(
                {
                    "label": indicator.display_name,
                    "precision": counts.precision,
                    "recall": counts.recall,
                    "f1": counts.f1,
                    "accuracy": counts.accuracy,
                }
            )
        rows.append(
            {
                "label": "Average",
                "precision": self.mean_precision,
                "recall": self.mean_recall,
                "f1": self.mean_f1,
                "accuracy": self.mean_accuracy,
            }
        )
        return rows


class PresenceAccumulator:
    """Streaming indicator-presence rates.

    Replaces ``np.mean([loc.presence[ind] for loc in locations])`` for
    the streaming survey: it keeps one integer count per indicator
    plus the location total.  ``count / n`` in float64 is the same
    value ``np.mean`` computes over the materialized boolean list
    (both reduce to an exact-integer sum divided by ``n``), so the
    streaming report's indicator rates are byte-identical to batch.
    """

    def __init__(self) -> None:
        self._counts = {ind: 0 for ind in ALL_INDICATORS}
        self.n = 0

    def update(self, presence: IndicatorPresence) -> None:
        for indicator in ALL_INDICATORS:
            if presence[indicator]:
                self._counts[indicator] += 1
        self.n += 1

    def rate(self, indicator: Indicator) -> float:
        if not self.n:
            return float("nan")
        return self._counts[indicator] / self.n

    def rates(self) -> dict[Indicator, float]:
        return {ind: self.rate(ind) for ind in ALL_INDICATORS}


def accuracy_by_indicator(
    truths: Sequence[IndicatorPresence],
    predictions: Sequence[IndicatorPresence],
) -> dict[Indicator, float]:
    """Shortcut: per-indicator accuracy (Fig. 5 bars)."""
    report = ClassificationReport.from_predictions(truths, predictions)
    return {
        ind: report.counts[ind].accuracy for ind in ALL_INDICATORS
    }
