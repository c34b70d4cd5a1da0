"""Perf benchmark: pipelined survey vs window 1, with caching.

Measures the two optimizations this repo's perf trajectory tracks
(`BENCH_pipeline.json` at the repo root, one document per commit):

* **pipelined window** — a 32-location × 4-capture survey at
  ``max_inflight=4`` vs window 1 (one location at a time), under realistic
  simulated API latency (the real workload is network-bound; see
  DESIGN.md §8);
* **LLM response caching** — hit rate and wall-clock effect of the
  JSONL-journaled :class:`~repro.llm.cache.CachingChatClient` on a
  re-run survey.

Excluded from tier-1 (``perf`` marker); run with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_pipeline.py -m perf -q
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.classifier import LLMIndicatorClassifier
from repro.core.pipeline import NeighborhoodDecoder
from repro.geo.county import make_durham_like
from repro.gsv.api import StreetViewClient
from repro.gsv.dataset import build_survey_dataset
from repro.llm.cache import CachingChatClient
from repro.llm.paper_targets import GEMINI_15_PRO
from repro.llm.registry import build_clients
from repro.perf import LatencyChatClient, Stopwatch, write_bench

pytestmark = pytest.mark.perf

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_pipeline.json"

#: The acceptance workload: 32 locations × 4 headings, window 4.
N_LOCATIONS = 32
MAX_INFLIGHT = 4
#: Simulated API round-trip latency.  The real GSV Static API and the
#: commercial LLM endpoints answer in 100–1000 ms; 10 ms keeps the
#: bench fast while preserving the latency-bound regime the engine
#: is built for.
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


def _decoder(county, clients, cache_path=None):
    street_view = StreetViewClient(
        counties=[county], api_key="bench", latency_s=FETCH_LATENCY_S
    )
    client = LatencyChatClient(clients[GEMINI_15_PRO], latency_s=LLM_LATENCY_S)
    if cache_path is not None:
        client = CachingChatClient(client, cache_path=cache_path)
    return (
        NeighborhoodDecoder(
            street_view=street_view,
            classifier=LLMIndicatorClassifier(client),
        ),
        client,
    )


def test_pipeline_perf_trajectory(county, survey_clients, tmp_path):
    # -- window 1 vs pipelined window ---------------------------------------
    serial_decoder, _ = _decoder(county, survey_clients)
    with Stopwatch() as serial_sw:
        serial_report = serial_decoder.survey(county, N_LOCATIONS, seed=0)

    parallel_decoder, _ = _decoder(county, survey_clients)
    with Stopwatch() as parallel_sw:
        parallel_report = parallel_decoder.survey(
            county, N_LOCATIONS, seed=0, max_inflight=MAX_INFLIGHT
        )

    # Determinism: the parallel report is byte-identical to serial.
    assert parallel_report.to_json() == serial_report.to_json()
    assert serial_report.coverage == 1.0

    speedup = serial_sw.elapsed_s / parallel_sw.elapsed_s

    # -- LLM response cache on a survey re-run -----------------------------
    cache_path = tmp_path / "survey_cache.jsonl"
    cached_decoder, caching_client = _decoder(
        county, survey_clients, cache_path=cache_path
    )
    with Stopwatch() as cold_sw:
        cold = cached_decoder.survey(
            county, N_LOCATIONS, seed=0, max_inflight=MAX_INFLIGHT
        )
    caching_client.close()
    hits_before, misses_before = caching_client.hits, caching_client.misses
    with Stopwatch() as warm_sw:
        warm = cached_decoder.survey(
            county, N_LOCATIONS, seed=0, max_inflight=MAX_INFLIGHT
        )
    assert warm.to_json() == cold.to_json() == parallel_report.to_json()
    warm_hits = caching_client.hits - hits_before
    warm_requests = warm_hits + (caching_client.misses - misses_before)
    warm_hit_rate = warm_hits / warm_requests

    document = write_bench(
        BENCH_PATH,
        "pipeline",
        {
            "config": {
                "n_locations": N_LOCATIONS,
                "captures_per_location": 4,
                "max_inflight": MAX_INFLIGHT,
                "fetch_latency_s": FETCH_LATENCY_S,
                "llm_latency_s": LLM_LATENCY_S,
            },
            "survey": {
                "serial_s": round(serial_sw.elapsed_s, 4),
                "parallel_s": round(parallel_sw.elapsed_s, 4),
                "speedup": round(speedup, 3),
                "serial_locations_per_s": round(
                    N_LOCATIONS / serial_sw.elapsed_s, 3
                ),
                "parallel_locations_per_s": round(
                    N_LOCATIONS / parallel_sw.elapsed_s, 3
                ),
                "deterministic": parallel_report.to_json()
                == serial_report.to_json(),
            },
            "llm_cache": {
                "cold_s": round(cold_sw.elapsed_s, 4),
                "warm_s": round(warm_sw.elapsed_s, 4),
                "warm_speedup": round(cold_sw.elapsed_s / warm_sw.elapsed_s, 3),
                "warm_hit_rate": round(warm_hit_rate, 4),
                "journal_entries": len(caching_client),
            },
        },
        repo_root=REPO_ROOT,
    )

    assert BENCH_PATH.exists()
    assert document["survey"]["deterministic"]
    # The acceptance bar: ≥ 2× at window 4 on the 32-location survey.
    assert speedup >= 2.0, f"window-4 speedup {speedup:.2f}× below 2×"
