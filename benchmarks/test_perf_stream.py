"""Perf benchmark: streaming survey engine.

Measures the optimization ``BENCH_stream.json`` tracks (one document
per commit, at the repo root):

* **streaming survey** — traced-peak memory of a 5,000-location
  synthetic survey through :meth:`NeighborhoodDecoder.survey`:
  the aggregate (streaming) path must complete under a memory ceiling
  that the materializing (batch-retention) path over the *same* 5,000
  locations exceeds.  Point selection is excluded from the traced
  region — its road-network build is a one-time transient both paths
  share — so the peaks isolate the survey engine itself.

Everything perf-shaped here must be *byte-identical* to the slow
path — asserted, not assumed.  This is the slowest benchmark in the
suite (the two traced 5,000-location surveys dominate; tracemalloc
roughly quintuples allocation-heavy survey time).

Excluded from tier-1 (``perf`` marker); run with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_stream.py -m perf -q

or ``python -m repro bench``.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import tracemalloc
from pathlib import Path

import pytest

from repro.core import LLMIndicatorClassifier, NeighborhoodDecoder
from repro.geo import make_durham_like
from repro.gsv import StreetViewClient, build_survey_dataset
from repro.llm import build_clients
from repro.perf import Stopwatch, write_bench

pytestmark = pytest.mark.perf

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_stream.json"

#: Streaming survey scale (the county-scale claim).
STREAM_LOCATIONS = 5_000
THROUGHPUT_LOCATIONS = 1_000


def _point_stream(base_points, n):
    """``n`` *distinct* synthetic sample points, generated lazily.

    Cycles a small base pool while jittering each point's coordinates,
    so the stream behaves like a real county→state sweep: every yielded
    location is a fresh object that becomes garbage once its shard
    completes, and nothing upstream materializes.
    """
    for index, base in enumerate(itertools.islice(itertools.cycle(base_points), n)):
        jitter = (index // len(base_points)) * 1e-5
        yield dataclasses.replace(
            base,
            location=dataclasses.replace(
                base.location,
                lat=base.location.lat + jitter,
                lon=base.location.lon + jitter,
            ),
        )


def _traced_survey_peak(decoder, base_points, n, keep_locations):
    """Traced-peak bytes of one survey-engine run (selection excluded)."""
    stream = _point_stream(base_points, n)
    gc.collect()
    tracemalloc.start()
    tracemalloc.reset_peak()
    with Stopwatch() as sw:
        report = decoder.survey(
            locations=stream, keep_locations=keep_locations
        )
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert report.completed_locations == n
    return peak, sw.elapsed_s, report


def test_stream_perf_trajectory():
    # -- streaming survey: memory + throughput -----------------------------
    calibration = build_survey_dataset(n_images=60, size=256, seed=77)
    clients = build_clients([image.scene for image in calibration])
    county = make_durham_like(seed=3)
    street_view = StreetViewClient(counties=[county], api_key="bench")
    decoder = NeighborhoodDecoder(
        street_view=street_view,
        classifier=LLMIndicatorClassifier(clients["gemini-1.5-pro"]),
    )
    decoder.survey(county, 4, seed=9)  # warm every code path first
    base_points = NeighborhoodDecoder._select_points(county, 100, seed=0)

    # Throughput, untraced (tracemalloc would distort it).
    with Stopwatch() as throughput_sw:
        throughput_report = decoder.survey(
            locations=_point_stream(base_points, THROUGHPUT_LOCATIONS),
            keep_locations=False,
        )
    assert throughput_report.completed_locations == THROUGHPUT_LOCATIONS
    stream_locations_per_s = THROUGHPUT_LOCATIONS / throughput_sw.elapsed_s

    # Memory: the same 5,000 locations, streamed vs materialized.
    stream_peak, stream_s, _ = _traced_survey_peak(
        decoder, base_points, STREAM_LOCATIONS, keep_locations=False
    )
    batch_peak, batch_s, _ = _traced_survey_peak(
        decoder, base_points, STREAM_LOCATIONS, keep_locations=True
    )
    memory_ceiling = 2 * stream_peak
    bounded = stream_peak < memory_ceiling < batch_peak

    # Determinism: streamed aggregation reproduces the batch survey
    # byte-for-byte (county mode, same seed, JSON-level identity).
    batch_report = decoder.survey(county, 64, seed=5)
    stream_report = decoder.survey(county, 64, seed=5, max_inflight=16)
    byte_identical_report = stream_report.to_json() == batch_report.to_json()
    assert byte_identical_report
    aggregate_report = decoder.survey(
        county, 64, seed=5, max_inflight=16, keep_locations=False
    )
    identical_rates = (
        aggregate_report.indicator_rates() == batch_report.indicator_rates()
        and aggregate_report.rates_by_zone() == batch_report.rates_by_zone()
    )
    assert identical_rates

    document = write_bench(
        BENCH_PATH,
        "stream",
        {
            "config": {
                "stream_locations": STREAM_LOCATIONS,
            },
            "streaming": {
                "stream_locations_per_s": round(stream_locations_per_s, 2),
                "throughput_s": round(throughput_sw.elapsed_s, 2),
                "traced_stream_peak_bytes": stream_peak,
                "traced_batch_peak_bytes": batch_peak,
                "memory_ceiling_bytes": memory_ceiling,
                "bounded": bounded,
                "retained_bytes_per_location": round(
                    (batch_peak - stream_peak) / STREAM_LOCATIONS, 1
                ),
                "traced_stream_s": round(stream_s, 2),
                "traced_batch_s": round(batch_s, 2),
                "byte_identical_report": byte_identical_report,
                "identical_rates": identical_rates,
                "note": (
                    "peaks exclude point selection (a shared one-time "
                    "road-network transient) and carry tracemalloc "
                    "overhead; throughput is measured untraced"
                ),
            },
        },
        repo_root=REPO_ROOT,
    )

    assert BENCH_PATH.exists()
    # The county-scale claim: 5,000 locations stream under a ceiling
    # the materializing run over the same locations exceeds.
    assert stream_peak < memory_ceiling, (
        f"stream peak {stream_peak} breached its own ceiling"
    )
    assert batch_peak > memory_ceiling, (
        f"batch peak {batch_peak} stayed under the ceiling "
        f"{memory_ceiling} — streaming saved no memory"
    )
    assert document["streaming"]["bounded"]
