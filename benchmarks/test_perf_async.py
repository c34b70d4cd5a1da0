"""Perf benchmark: the pipelined survey engine at window 8 vs serial.

The acceptance workload mirrors ``test_perf_pipeline.py`` — a
32-location × 4-capture survey under 10 ms simulated fetch and LLM
round-trips — so the two runs are directly comparable:

* **serial** — window 1, the byte-identity reference;
* **async** — :meth:`~repro.core.pipeline.NeighborhoodDecoder.survey_async`
  at ``max_inflight=8`` with AIMD windowing and LLM micro-batching.

Headline metrics (guarded by ``repro bench --only async --compare``):
``pipeline.async_speedup`` (async vs serial wall clock, which must
clear the same 2× bar the window-4 pipeline bench does) and
``pipeline.async_peak_inflight`` (the AIMD window actually opened
under load).

Excluded from tier-1 (``perf`` marker); run with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_async.py -m perf -q
"""

from __future__ import annotations

import asyncio
from pathlib import Path

import pytest

from repro.core.classifier import LLMIndicatorClassifier
from repro.core.pipeline import NeighborhoodDecoder
from repro.geo.county import make_durham_like
from repro.gsv.api import StreetViewClient
from repro.gsv.dataset import build_survey_dataset
from repro.llm.paper_targets import GEMINI_15_PRO
from repro.llm.registry import build_clients
from repro.perf import LatencyChatClient, Stopwatch, write_bench

pytestmark = pytest.mark.perf

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_async.json"

#: Same acceptance workload as the pipeline bench, for a fair race.
N_LOCATIONS = 32
MAX_INFLIGHT = 8
#: The window must open at least this wide under load.
MIN_PEAK_INFLIGHT = 4
FETCH_LATENCY_S = 0.010
LLM_LATENCY_S = 0.010


@pytest.fixture(scope="module")
def county():
    return make_durham_like(seed=3)


@pytest.fixture(scope="module")
def survey_clients():
    calibration = build_survey_dataset(n_images=60, size=256, seed=77)
    return build_clients(
        [image.scene for image in calibration], model_ids=(GEMINI_15_PRO,)
    )


def _decoder(county, clients):
    street_view = StreetViewClient(
        counties=[county], api_key="bench", latency_s=FETCH_LATENCY_S
    )
    client = LatencyChatClient(clients[GEMINI_15_PRO], latency_s=LLM_LATENCY_S)
    return NeighborhoodDecoder(
        street_view=street_view,
        classifier=LLMIndicatorClassifier(client),
    )


def test_async_engine_perf_trajectory(county, survey_clients):
    serial_decoder = _decoder(county, survey_clients)
    with Stopwatch() as serial_sw:
        serial_report = serial_decoder.survey(county, N_LOCATIONS, seed=0)

    async_decoder = _decoder(county, survey_clients)
    with Stopwatch() as async_sw:
        async_report = asyncio.run(
            async_decoder.survey_async(
                county, N_LOCATIONS, seed=0, max_inflight=MAX_INFLIGHT
            )
        )

    # Determinism first: the race only counts if both windows produce
    # the same bytes.
    assert async_report.to_json() == serial_report.to_json()
    assert serial_report.coverage == 1.0

    async_speedup = serial_sw.elapsed_s / async_sw.elapsed_s
    pipeline_stats = async_report.pipeline_stats
    batch_stats = async_report.batch_stats

    document = write_bench(
        BENCH_PATH,
        "async",
        {
            "config": {
                "n_locations": N_LOCATIONS,
                "captures_per_location": 4,
                "max_inflight": MAX_INFLIGHT,
                "fetch_latency_s": FETCH_LATENCY_S,
                "llm_latency_s": LLM_LATENCY_S,
            },
            "pipeline": {
                "serial_s": round(serial_sw.elapsed_s, 4),
                "async_s": round(async_sw.elapsed_s, 4),
                "async_speedup": round(async_speedup, 3),
                "async_locations_per_s": round(
                    N_LOCATIONS / async_sw.elapsed_s, 3
                ),
                "async_peak_inflight": pipeline_stats["peak_inflight"],
                "aimd": pipeline_stats,
                "microbatch": batch_stats,
                "deterministic": async_report.to_json()
                == serial_report.to_json(),
            },
        },
        repo_root=REPO_ROOT,
    )

    assert BENCH_PATH.exists()
    assert document["pipeline"]["deterministic"]
    # The acceptance bar: the same ≥ 2× the window-4 pipeline bench
    # must clear on this workload and these latencies.
    assert async_speedup >= 2.0, f"async speedup {async_speedup:.2f}× below 2×"
    assert pipeline_stats["peak_inflight"] >= MIN_PEAK_INFLIGHT
    assert batch_stats["batches"] >= 1
