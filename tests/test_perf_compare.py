"""Unit tests for the benchmark trajectory comparator.

``repro bench --compare`` gates merges on the headline metrics of
every ``BENCH_*.json``; these tests pin the pure comparison function
it delegates to.
"""

from __future__ import annotations

import pytest

from repro.perf import HEADLINE_METRICS, compare_benchmarks


def _detect_doc(
    speedup,
    warm=9.0,
    capped=False,
    extract=4.0,
    int8=1.2,
    f1_delta=0.005,
):
    return {
        "bench": "detect",
        "process_parallel": {"speedup": speedup, "core_capped": capped},
        "artifact_cache": {"warm_speedup": warm},
        "detect": {
            "extract_speedup": extract,
            "int8_speedup": int8,
            "int8_f1_delta": f1_delta,
        },
    }


class TestCompareBenchmarks:
    def test_registry_covers_every_bench_suite(self):
        assert set(HEADLINE_METRICS) == {
            "cascade",
            "pipeline",
            "async",
            "detect",
            "stream",
            "obs",
            "service",
        }

    def test_no_regression_when_fresh_is_equal_or_better(self):
        result = compare_benchmarks(_detect_doc(1.5), _detect_doc(1.5))
        assert result["regressions"] == []
        assert len(result["compared"]) == 5

    def test_drop_beyond_threshold_is_a_regression(self):
        result = compare_benchmarks(_detect_doc(0.7), _detect_doc(1.0))
        paths = [entry["path"] for entry in result["regressions"]]
        assert paths == ["process_parallel.speedup"]
        entry = result["regressions"][0]
        assert entry["baseline"] == 1.0
        assert entry["fresh"] == 0.7
        assert entry["relative_change"] == pytest.approx(-0.3)

    def test_drop_within_threshold_passes(self):
        result = compare_benchmarks(_detect_doc(0.85), _detect_doc(1.0))
        assert result["regressions"] == []

    def test_improvement_is_never_a_regression(self):
        result = compare_benchmarks(_detect_doc(3.0), _detect_doc(1.0))
        assert result["regressions"] == []

    def test_honesty_flag_waives_metric_in_either_document(self):
        for fresh_capped, base_capped in [(True, False), (False, True)]:
            result = compare_benchmarks(
                _detect_doc(0.1, capped=fresh_capped),
                _detect_doc(2.0, capped=base_capped),
            )
            assert "process_parallel.speedup" in result["waived"]
            assert result["regressions"] == []

    def test_metric_missing_from_baseline_reported_not_failed(self):
        baseline = {"bench": "detect", "process_parallel": {"speedup": 1.0}}
        result = compare_benchmarks(_detect_doc(1.0), baseline)
        assert "artifact_cache.warm_speedup" in result["missing"]
        assert result["regressions"] == []

    def test_bench_name_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            compare_benchmarks(_detect_doc(1.0), {"bench": "pipeline"})

    def test_non_positive_threshold_rejected(self):
        with pytest.raises(ValueError):
            compare_benchmarks(
                _detect_doc(1.0), _detect_doc(1.0), threshold=0.0
            )

    def test_unknown_bench_compares_nothing(self):
        result = compare_benchmarks({"bench": "novel"}, {"bench": "novel"})
        assert result["compared"] == []
        assert result["regressions"] == []

    def test_custom_threshold(self):
        tight = compare_benchmarks(
            _detect_doc(0.9), _detect_doc(1.0), threshold=0.05
        )
        assert len(tight.get("regressions")) == 1


class TestLowerIsBetterMetrics:
    """``detect.int8_f1_delta`` regresses when it *rises*."""

    def test_rise_beyond_threshold_is_a_regression(self):
        result = compare_benchmarks(
            _detect_doc(1.0, f1_delta=0.009), _detect_doc(1.0, f1_delta=0.006)
        )
        paths = [entry["path"] for entry in result["regressions"]]
        assert paths == ["detect.int8_f1_delta"]
        assert result["regressions"][0]["relative_change"] == pytest.approx(
            0.5
        )

    def test_drop_is_an_improvement_not_a_regression(self):
        result = compare_benchmarks(
            _detect_doc(1.0, f1_delta=0.001), _detect_doc(1.0, f1_delta=0.009)
        )
        assert result["regressions"] == []

    def test_floor_absorbs_noise_near_perfect_baselines(self):
        # Baseline delta 0.0001; fresh 0.0002.  Relative to the raw
        # baseline that is a 2x blow-up, but the rise is tiny against
        # the 0.005 floor, so it is measurement noise, not a regression.
        result = compare_benchmarks(
            _detect_doc(1.0, f1_delta=0.0002), _detect_doc(1.0, f1_delta=0.0001)
        )
        assert result["regressions"] == []

    def test_zero_baseline_still_catches_real_rises(self):
        # From a perfectly-agreeing baseline, a rise past the floor x
        # threshold must still regress (no divide-by-zero free pass).
        result = compare_benchmarks(
            _detect_doc(1.0, f1_delta=0.008), _detect_doc(1.0, f1_delta=0.0)
        )
        paths = [entry["path"] for entry in result["regressions"]]
        assert paths == ["detect.int8_f1_delta"]
