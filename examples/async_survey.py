"""Async pipelined survey: stage overlap, AIMD windowing, micro-batching.

Races the same latency-bound county survey at window 1 and at window
8 (the pipeline open, DESIGN.md §8) under simulated API round-trips.
Every location pays the same round trips at both windows — one imagery
round for its four captures, one batched LLM window for their
classifications — so the race measures only what overlapping eight
locations saves over decoding them one at a time.  It then proves both
reports are byte-identical and prints what the engine's adaptive
machinery actually did (peak in-flight window, imagery and LLM
dispatches).  Exits 1 when the reports differ, or when either run did
not fetch each location's four captures in exactly one imagery round
trip.

Run:  python examples/async_survey.py
"""

import asyncio
import sys
import time

from repro import build_survey_dataset
from repro.core import LLMIndicatorClassifier, NeighborhoodDecoder
from repro.geo import make_durham_like
from repro.gsv import StreetViewClient
from repro.llm import build_clients
from repro.llm.paper_targets import GEMINI_15_PRO
from repro.perf import LatencyChatClient

N_LOCATIONS = 16
MAX_INFLIGHT = 8
#: Simulated round-trips.  The real GSV/LLM endpoints answer in
#: hundreds of milliseconds; 10 ms keeps the demo quick while staying
#: firmly latency-bound — the regime the pipeline is built for.
LATENCY_S = 0.010


def make_decoder(county, clients):
    return NeighborhoodDecoder(
        street_view=StreetViewClient(
            counties=[county], api_key="demo", latency_s=LATENCY_S
        ),
        classifier=LLMIndicatorClassifier(
            LatencyChatClient(clients[GEMINI_15_PRO], latency_s=LATENCY_S)
        ),
    )


def main():
    county = make_durham_like(seed=3)
    calibration = build_survey_dataset(n_images=60, size=256, seed=77)
    clients = build_clients(
        [image.scene for image in calibration], model_ids=(GEMINI_15_PRO,)
    )

    started = time.perf_counter()
    serial = make_decoder(county, clients).survey(county, N_LOCATIONS, seed=0)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    pipelined = asyncio.run(
        make_decoder(county, clients).survey_async(
            county, N_LOCATIONS, seed=0, max_inflight=MAX_INFLIGHT
        )
    )
    async_s = time.perf_counter() - started

    print(f"{N_LOCATIONS}-location survey, {LATENCY_S * 1000:.0f} ms "
          "simulated fetch/LLM round-trips:")
    print(f"  window-1    {serial_s:6.2f} s")
    print(f"  window-{MAX_INFLIGHT}    {async_s:6.2f} s  "
          f"({serial_s / async_s:.1f}x)")

    identical = pipelined.to_json() == serial.to_json()
    print(f"\nreports byte-identical at both windows: {identical}")

    window = pipelined.pipeline_stats
    print(
        f"AIMD window: started {window['initial_limit']}, "
        f"peaked at {window['peak_inflight']} in flight, "
        f"{window['throttle_events']} throttle events observed"
    )
    fetched = pipelined.completed_locations + len(pipelined.failed_locations)
    serial_trips, pipelined_trips = (
        int(report.metrics["counters"]["gsv.round_trips"])
        for report in (serial, pipelined)
    )
    print(
        f"imagery: {serial_trips} round trips at window 1, "
        f"{pipelined_trips} at window {MAX_INFLIGHT} for {fetched} "
        "fetched locations"
    )
    batches = pipelined.batch_stats
    print(
        f"micro-batching: {batches['batched_requests']} LLM requests in "
        f"{batches['batches']} dispatches "
        f"(largest window {batches['max_batch_size']})"
    )
    one_per_location = serial_trips == pipelined_trips == fetched
    if not one_per_location:
        print("expected one imagery round trip per fetched location")
    return 0 if identical and one_per_location else 1


if __name__ == "__main__":
    sys.exit(main())
