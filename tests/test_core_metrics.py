"""Tests for binary classification metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ClassificationReport, ConfusionCounts, accuracy_by_indicator
from repro.core.indicators import ALL_INDICATORS, Indicator, IndicatorPresence


class TestConfusionCounts:
    def test_perfect(self):
        counts = ConfusionCounts(tp=10, fp=0, tn=10, fn=0)
        assert counts.precision == 1.0
        assert counts.recall == 1.0
        assert counts.f1 == 1.0
        assert counts.accuracy == 1.0

    def test_known_values(self):
        counts = ConfusionCounts(tp=6, fp=2, tn=10, fn=2)
        assert counts.precision == pytest.approx(0.75)
        assert counts.recall == pytest.approx(0.75)
        assert counts.f1 == pytest.approx(0.75)
        assert counts.accuracy == pytest.approx(0.8)

    def test_no_predictions_nan_precision(self):
        counts = ConfusionCounts(tp=0, fp=0, tn=5, fn=5)
        assert np.isnan(counts.precision)
        assert counts.recall == 0.0

    def test_no_positives_nan_recall(self):
        counts = ConfusionCounts(tp=0, fp=2, tn=5, fn=0)
        assert np.isnan(counts.recall)

    def test_addition(self):
        total = ConfusionCounts(1, 2, 3, 4) + ConfusionCounts(4, 3, 2, 1)
        assert (total.tp, total.fp, total.tn, total.fn) == (5, 5, 5, 5)

    def test_fpr(self):
        counts = ConfusionCounts(tp=0, fp=3, tn=7, fn=0)
        assert counts.false_positive_rate == pytest.approx(0.3)


def _presences(vectors):
    return [IndicatorPresence.from_vector(v) for v in vectors]


class TestClassificationReport:
    def test_perfect_predictions(self):
        truths = _presences([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]])
        report = ClassificationReport.from_predictions(truths, truths)
        assert report.mean_accuracy == 1.0
        assert report.counts[Indicator.STREETLIGHT].tp == 1

    def test_all_wrong(self):
        truths = _presences([[1, 1, 1, 1, 1, 1]])
        preds = _presences([[0, 0, 0, 0, 0, 0]])
        report = ClassificationReport.from_predictions(truths, preds)
        assert report.mean_accuracy == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ClassificationReport.from_predictions(
                _presences([[0] * 6]), _presences([])
            )

    def test_rows_shape(self):
        truths = _presences([[1, 0, 1, 0, 1, 0]] * 4)
        report = ClassificationReport.from_predictions(truths, truths)
        rows = report.rows()
        assert len(rows) == 7  # six classes + average
        assert rows[-1]["label"] == "Average"

    def test_accuracy_by_indicator(self):
        truths = _presences([[1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0]])
        preds = _presences([[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]])
        accuracy = accuracy_by_indicator(truths, preds)
        assert accuracy[Indicator.STREETLIGHT] == pytest.approx(0.5)
        assert accuracy[Indicator.SIDEWALK] == 1.0

    @given(
        data=st.lists(
            st.tuples(
                st.lists(st.booleans(), min_size=6, max_size=6),
                st.lists(st.booleans(), min_size=6, max_size=6),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50)
    def test_counts_partition_total(self, data):
        truths = _presences([t for t, _ in data])
        preds = _presences([p for _, p in data])
        report = ClassificationReport.from_predictions(truths, preds)
        for indicator in ALL_INDICATORS:
            assert report.counts[indicator].total == len(data)

    @given(
        vectors=st.lists(
            st.lists(st.booleans(), min_size=6, max_size=6),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50)
    def test_self_prediction_is_perfect(self, vectors):
        presences = _presences(vectors)
        report = ClassificationReport.from_predictions(presences, presences)
        for indicator in ALL_INDICATORS:
            counts = report.counts[indicator]
            assert counts.fp == 0 and counts.fn == 0


class TestPresenceAccumulator:
    def test_rates_equal_np_mean_exactly(self):
        from repro.core import PresenceAccumulator

        rng = np.random.default_rng(5)
        presences = _presences(
            (rng.random((23, 6)) > 0.5).astype(int).tolist()
        )
        accumulator = PresenceAccumulator()
        for presence in presences:
            accumulator.update(presence)
        for indicator in ALL_INDICATORS:
            batch = float(np.mean([p[indicator] for p in presences]))
            assert accumulator.rate(indicator) == batch  # not approx: exact

    def test_empty_rates_are_nan(self):
        from repro.core import PresenceAccumulator

        accumulator = PresenceAccumulator()
        assert accumulator.n == 0
        for value in accumulator.rates().values():
            assert np.isnan(value)
