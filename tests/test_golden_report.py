"""Golden end-to-end regression test for the survey pipeline.

One small survey is frozen as ``tests/data/golden_survey_report.json``
— the exact ``SurveyReport.to_json()`` bytes.  Every public survey
entry promises byte-identity at any window (DESIGN.md §8), so each
must reproduce those bytes at window 1 and at window 8: the blocking
``survey``, ``survey_async``, and ``survey_stream_async`` retaining
its locations.  A behavioral change anywhere in sampling, fetching,
classification, voting, or serialization shows up here as a diff
against the frozen document.

Regenerate the fixture after an *intentional* behavior change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_golden_report.py -q

Set ``REPRO_TRACE_EXPORT=/path/to/trace.jsonl`` to also export a full
recorded trace of the golden survey (CI uploads it as a build
artifact, so every green build ships an inspectable span tree).
"""

from __future__ import annotations

import asyncio
import json
import os
from pathlib import Path

import pytest

from repro.cascade import CascadeClassifier, fit_cascade_calibration
from repro.core import (
    ClassifierConfig,
    LLMIndicatorClassifier,
    NeighborhoodDecoder,
)
from repro.core.voting import VotingEnsemble
from repro.detect.train import TrainConfig, train_detector
from repro.geo import make_durham_like
from repro.gsv import StreetViewClient, build_survey_dataset
from repro.llm.errors import RateLimitError
from repro.llm.paper_targets import ALL_MODEL_IDS, GPT_4O_MINI
from repro.obs.audit import audit_trace
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.trace import Tracer, use_tracer
from repro.resilience import FaultSchedule, FaultyChatClient, VirtualClock

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_survey_report.json"
ENSEMBLE_GOLDEN_PATH = (
    Path(__file__).parent / "data" / "golden_ensemble_report.json"
)

#: Frozen survey configuration.  Changing any of these invalidates the
#: fixture — regenerate it in the same commit.
COUNTY_SEED = 3
N_LOCATIONS = 6
SURVEY_SEED = 4
MODEL_ID = "gemini-1.5-pro"

PATHS = (
    "sync-1",
    "sync-8",
    "async-1",
    "async-8",
    "stream-1",
    "stream-8",
)


@pytest.fixture(scope="module")
def county():
    return make_durham_like(seed=COUNTY_SEED)


@pytest.fixture(scope="module")
def decoder(county, clients):
    street_view = StreetViewClient(counties=[county], api_key="golden")
    return NeighborhoodDecoder(
        street_view=street_view,
        classifier=LLMIndicatorClassifier(clients[MODEL_ID]),
    )


def _run_path(decoder, county, path_name: str) -> str:
    entry, window = path_name.split("-")
    max_inflight = int(window)
    if entry == "sync":
        report = decoder.survey(
            county, N_LOCATIONS, seed=SURVEY_SEED, max_inflight=max_inflight
        )
    elif entry == "async":
        report = asyncio.run(
            decoder.survey_async(
                county, N_LOCATIONS, seed=SURVEY_SEED, max_inflight=max_inflight
            )
        )
    elif entry == "stream":
        report = asyncio.run(
            decoder.survey_stream_async(
                county,
                N_LOCATIONS,
                seed=SURVEY_SEED,
                max_inflight=max_inflight,
                keep_locations=True,
            )
        )
    else:  # pragma: no cover - parametrize guards the names
        raise ValueError(path_name)
    return report.to_json()


@pytest.fixture(scope="module")
def golden_json(decoder, county) -> str:
    """The frozen bytes, regenerating when explicitly asked to."""
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        text = _run_path(decoder, county, "sync-1")
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(text, encoding="utf-8")
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"golden fixture missing: {GOLDEN_PATH} "
            "(regenerate with REPRO_REGEN_GOLDEN=1)"
        )
    return GOLDEN_PATH.read_text(encoding="utf-8")


def _ensemble(clients) -> VotingEnsemble:
    return VotingEnsemble(
        classifiers={
            model_id: LLMIndicatorClassifier(clients[model_id])
            for model_id in ALL_MODEL_IDS
        }
    )


@pytest.fixture(scope="module")
def ensemble_decoder(county, clients):
    street_view = StreetViewClient(counties=[county], api_key="golden-ens")
    return NeighborhoodDecoder(
        street_view=street_view, ensemble=_ensemble(clients)
    )


@pytest.fixture(scope="module")
def cascade_decoder(county, clients):
    """A threshold-0 cascade over the same four models.

    The detector and calibration are deliberately tiny: at threshold 0
    every doubt lands in the deep band, so their quality is irrelevant
    — every indicator must route to the full ensemble regardless.
    """
    images = build_survey_dataset(n_images=16, size=256, seed=91)
    detector = train_detector(
        images, train_config=TrainConfig(epochs=2, batch_size=8)
    ).model
    cascade = CascadeClassifier(
        detector=detector,
        calibration=fit_cascade_calibration(detector, images),
        scout=LLMIndicatorClassifier(clients[GPT_4O_MINI]),
        ensemble=_ensemble(clients),
        threshold=0.0,
    )
    street_view = StreetViewClient(counties=[county], api_key="golden-ens")
    return NeighborhoodDecoder(street_view=street_view, cascade=cascade)


@pytest.fixture(scope="module")
def ensemble_golden_json(ensemble_decoder, county) -> str:
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        text = _run_path(ensemble_decoder, county, "sync-1")
        ENSEMBLE_GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        ENSEMBLE_GOLDEN_PATH.write_text(text, encoding="utf-8")
    if not ENSEMBLE_GOLDEN_PATH.exists():
        pytest.fail(
            f"golden fixture missing: {ENSEMBLE_GOLDEN_PATH} "
            "(regenerate with REPRO_REGEN_GOLDEN=1)"
        )
    return ENSEMBLE_GOLDEN_PATH.read_text(encoding="utf-8")


class TestGoldenReport:
    def test_fixture_is_valid_json_with_expected_shape(self, golden_json):
        document = json.loads(golden_json)
        assert document["requested_locations"] == N_LOCATIONS
        assert len(document["locations"]) == N_LOCATIONS
        assert document["coverage"] == 1.0

    @pytest.mark.parametrize("path_name", PATHS)
    def test_every_execution_path_matches_the_frozen_bytes(
        self, decoder, county, golden_json, path_name
    ):
        assert _run_path(decoder, county, path_name) == golden_json

    def test_traced_run_still_matches_and_audits_clean(
        self, decoder, county, golden_json, tmp_path
    ):
        """Tracing the golden survey changes nothing and exports cleanly."""
        tracer = Tracer(trace_id="golden")
        with use_tracer(tracer), use_metrics(MetricsRegistry()):
            text = _run_path(decoder, county, "sync-8")
        assert text == golden_json
        required = ("survey", "survey.location", "survey.classify",
                    "survey.merge")
        assert audit_trace(tracer, required_names=required) == []

        export = os.environ.get("REPRO_TRACE_EXPORT")
        trace_path = Path(export) if export else tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(trace_path) == len(tracer.spans)
        for line in trace_path.read_text(encoding="utf-8").splitlines():
            json.loads(line)


class TestGoldenEnsembleCascadeIdentity:
    """The cascade at threshold 0 IS the plain ensemble, byte for byte.

    DESIGN.md §13's escape-hatch guarantee: with a zero doubt
    tolerance every indicator of every image escalates straight to the
    full four-model vote, so the survey report must serialize to
    exactly the always-ensemble bytes on every execution path.
    """

    def test_fixture_shape(self, ensemble_golden_json):
        document = json.loads(ensemble_golden_json)
        assert document["requested_locations"] == N_LOCATIONS
        assert document["coverage"] == 1.0
        assert "cascade_stats" not in document
        assert "skipped_votes" not in document

    @pytest.mark.parametrize("path_name", PATHS)
    def test_ensemble_paths_match_the_frozen_bytes(
        self, ensemble_decoder, county, ensemble_golden_json, path_name
    ):
        assert (
            _run_path(ensemble_decoder, county, path_name)
            == ensemble_golden_json
        )

    @pytest.mark.parametrize("path_name", PATHS)
    def test_threshold_zero_cascade_is_byte_identical(
        self, cascade_decoder, county, ensemble_golden_json, path_name
    ):
        assert (
            _run_path(cascade_decoder, county, path_name)
            == ensemble_golden_json
        )

    def test_cascade_run_still_counts_its_routing(
        self, cascade_decoder, county
    ):
        """Identity bytes do not mean the cascade went unmeasured."""
        with use_metrics(MetricsRegistry()):
            report = cascade_decoder.survey(county, N_LOCATIONS, seed=SURVEY_SEED)
        stats = report.cascade_stats
        assert stats["images"] == report.images_classified
        assert stats["tier0_indicators"] == 0
        assert stats["tier1_indicators"] == 0
        assert stats["tier2_indicators"] > 0


@pytest.mark.faults
class TestAIMDStormDrill:
    """Injected 429 storms shrink the AIMD window without losing coverage.

    Two three-call bursts of rate-limit errors hit the async engine at
    full width (``max_inflight=8``).  Six scheduled faults against a
    classifier allowed eight attempts makes full coverage an arithmetic
    guarantee, not luck: distinct failed dispatches consume distinct
    scheduled faults, so even with micro-batching fanning one 429 out
    to every seat in its window, no single image can accumulate eight
    failed attempts.  What the drill actually checks is the control
    loop — the 429s must be *observed* (``retry.rate_limited``), the
    AIMD window must shrink in response, and the survey must still
    finish complete.
    """

    def test_storms_shrink_the_window_and_keep_full_coverage(
        self, county, clients, tmp_path
    ):
        storm_429 = lambda: RateLimitError("429 storm", retry_after_s=2.0)  # noqa: E731
        storm = (
            FaultSchedule()
            .burst(storm_429, start=1, length=3)
            .burst(storm_429, start=18, length=3)
        )
        classifier = LLMIndicatorClassifier(
            FaultyChatClient(clients[MODEL_ID], storm),
            ClassifierConfig(max_attempts=8, backoff_s=0.001),
            clock=VirtualClock(),
        )
        decoder = NeighborhoodDecoder(
            street_view=StreetViewClient(
                counties=[county], api_key="golden-drill"
            ),
            classifier=classifier,
        )
        with use_metrics(MetricsRegistry()):
            report = asyncio.run(
                decoder.survey_async(
                    county, N_LOCATIONS, seed=SURVEY_SEED, max_inflight=8
                )
            )

        assert report.coverage == 1.0
        assert not report.failed_locations

        stats = report.pipeline_stats
        assert stats["initial_limit"] == 8
        assert stats["throttle_events"] >= 1
        assert stats["decreases"] >= 1
        assert stats["final_limit"] < stats["initial_limit"]
        counters = report.metrics["counters"]
        assert counters.get("retry.rate_limited", 0) >= 1

        # CI uploads this snapshot as a chaos-job artifact; locally it
        # lands in tmp_path and is simply discarded.
        export = os.environ.get("REPRO_AIMD_METRICS_EXPORT")
        snapshot_path = Path(export) if export else tmp_path / "aimd_drill.json"
        snapshot_path.parent.mkdir(parents=True, exist_ok=True)
        snapshot_path.write_text(
            json.dumps(
                {
                    "drill": "aimd-429-storm",
                    "pipeline_stats": stats,
                    "batch_stats": report.batch_stats,
                    "metrics": report.metrics,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
