"""Perf benchmark: the observability layer's overhead envelope.

The tracing/metrics instrumentation added to the survey hot paths is
permanently on — every fetch, classify, vote, and merge passes through
``get_tracer().span(...)`` and ``get_metrics().inc(...)``.  The design
contract (DESIGN.md §11) is that the *default* no-op tracer keeps
those call sites at effectively zero cost, and that even a recording
tracer costs a small fraction of the latency-bound survey it observes.

Two measurements enforce that, recorded in ``BENCH_obs.json``:

* **micro** — per-call cost of a ``NULL_TRACER`` span and a registry
  counter increment, in nanoseconds;
* **survey** — the same pipelined survey run under the default no-op
  tracer and under a recording :class:`~repro.obs.trace.Tracer` +
  fresh :class:`~repro.obs.metrics.MetricsRegistry`; the headline is
  the traced/no-op throughput ratio (1.0 = tracing is free).

Excluded from tier-1 (``perf`` marker); run with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_obs.py -m perf -q
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.core.classifier import LLMIndicatorClassifier
from repro.core.pipeline import NeighborhoodDecoder
from repro.geo.county import make_durham_like
from repro.gsv.api import StreetViewClient
from repro.gsv.dataset import build_survey_dataset
from repro.llm.paper_targets import GEMINI_15_PRO
from repro.llm.registry import build_clients
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.trace import NULL_TRACER, Tracer, use_tracer
from repro.perf import LatencyChatClient, Stopwatch, write_bench

pytestmark = pytest.mark.perf

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_obs.json"

N_LOCATIONS = 16
MAX_INFLIGHT = 4
FETCH_LATENCY_S = 0.010
LLM_LATENCY_S = 0.010

#: Per-call budget for the no-op span: it must stay cheap enough that
#: instrumenting a hot loop is a non-decision.
NULL_SPAN_BUDGET_NS = 5_000
#: The traced survey may cost at most this much more wall-clock than
#: the identical no-op one (the workload is latency-bound; recording
#: spans must stay in the noise).
TRACED_OVERHEAD_LIMIT = 1.25

MICRO_ITERATIONS = 100_000


def _per_call_ns(fn, iterations: int = MICRO_ITERATIONS) -> float:
    started = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - started) / iterations * 1e9


def _decoder(county, clients):
    street_view = StreetViewClient(
        counties=[county], api_key="bench-obs", latency_s=FETCH_LATENCY_S
    )
    client = LatencyChatClient(
        clients[GEMINI_15_PRO], latency_s=LLM_LATENCY_S
    )
    return NeighborhoodDecoder(
        street_view=street_view,
        classifier=LLMIndicatorClassifier(client),
    )


def test_obs_overhead_trajectory():
    county = make_durham_like(seed=3)
    calibration = build_survey_dataset(n_images=60, size=256, seed=77)
    clients = build_clients(
        [image.scene for image in calibration], model_ids=(GEMINI_15_PRO,)
    )

    # -- micro: the permanent cost of an instrumented call site --------
    def null_span():
        with NULL_TRACER.span("bench"):
            pass

    registry = MetricsRegistry()
    null_span_ns = _per_call_ns(null_span)
    counter_inc_ns = _per_call_ns(lambda: registry.inc("bench.counter"))

    recording = Tracer(trace_id="bench-micro")

    def live_span():
        with recording.span("bench"):
            pass

    live_span_ns = _per_call_ns(live_span, iterations=20_000)

    # -- macro: identical surveys, no-op vs recording ------------------
    with Stopwatch() as noop_sw:
        noop_report = _decoder(county, clients).survey(
            county, N_LOCATIONS, seed=0, max_inflight=MAX_INFLIGHT
        )

    tracer = Tracer(trace_id="bench-survey")
    with use_tracer(tracer), use_metrics(MetricsRegistry()):
        with Stopwatch() as traced_sw:
            traced_report = _decoder(county, clients).survey(
                county, N_LOCATIONS, seed=0, max_inflight=MAX_INFLIGHT
            )

    # Observability must be payload-invisible.
    assert traced_report.to_json() == noop_report.to_json()
    assert noop_report.coverage == 1.0

    traced_relative_throughput = traced_sw.elapsed_s and (
        noop_sw.elapsed_s / traced_sw.elapsed_s
    )

    document = write_bench(
        BENCH_PATH,
        "obs",
        {
            "config": {
                "n_locations": N_LOCATIONS,
                "max_inflight": MAX_INFLIGHT,
                "fetch_latency_s": FETCH_LATENCY_S,
                "llm_latency_s": LLM_LATENCY_S,
                "micro_iterations": MICRO_ITERATIONS,
            },
            "micro": {
                "null_span_ns": round(null_span_ns, 1),
                "live_span_ns": round(live_span_ns, 1),
                "counter_inc_ns": round(counter_inc_ns, 1),
            },
            "tracing": {
                "noop_s": round(noop_sw.elapsed_s, 4),
                "traced_s": round(traced_sw.elapsed_s, 4),
                "noop_locations_per_s": round(
                    N_LOCATIONS / noop_sw.elapsed_s, 3
                ),
                "traced_relative_throughput": round(
                    traced_relative_throughput, 4
                ),
                "spans_recorded": len(tracer.spans),
                "payload_invisible": traced_report.to_json()
                == noop_report.to_json(),
            },
        },
        repo_root=REPO_ROOT,
    )

    assert BENCH_PATH.exists()
    assert document["tracing"]["payload_invisible"]
    assert null_span_ns < NULL_SPAN_BUDGET_NS, (
        f"no-op span costs {null_span_ns:.0f} ns/call, "
        f"budget is {NULL_SPAN_BUDGET_NS} ns"
    )
    overhead = traced_sw.elapsed_s / noop_sw.elapsed_s
    assert overhead < TRACED_OVERHEAD_LIMIT, (
        f"recording tracer made the survey {overhead:.2f}x slower, "
        f"limit is {TRACED_OVERHEAD_LIMIT}x"
    )
