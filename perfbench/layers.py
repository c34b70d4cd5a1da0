"""Which library calls the traced run wraps, and the per-layer metrics.

Every wrap names the function where its caller looks it up: the
sampling planner as the survey engine imported it, the renderer in
both modules that rasterize, the feature kernel as the detector model
imported it.  ``WallClock.sleep`` becomes a ``wait`` span, so simulated
network time shows up as waiting under the layer that slept.
"""

from __future__ import annotations

import functools

import repro.core.pipeline
import repro.detect.model
import repro.gsv.api
import repro.gsv.dataset
from repro.cascade.router import CascadeClassifier
from repro.core.classifier import LLMIndicatorClassifier
from repro.core.pipeline import NeighborhoodDecoder
from repro.core.voting import VotingEnsemble
from repro.detect.model import NanoDetector
from repro.gsv.api import StreetViewClient
from repro.llm.models import SimulatedVLM
from repro.obs.trace import get_tracer
from repro.perf import LatencyChatClient
from repro.resilience.checkpoint import SurveyCheckpoint
from repro.resilience.clock import WallClock
from repro.service.store import JobStore

from probes import quantile
from spans import Recorder, fold

#: (owner, attribute, span name) of every wrapped call.
WRAPS = (
    (repro.core.pipeline, "plan_survey_points", "geo.plan"),
    (StreetViewClient, "fetch_capture", "gsv.fetch"),
    (repro.gsv.api, "render_scene", "scene.render"),
    (repro.gsv.dataset, "render_scene", "scene.render"),
    (NanoDetector, "predict_cells_batch", "detect.head"),
    (repro.detect.model, "extract_features_batch", "detect.features"),
    (CascadeClassifier, "predict_location", "cascade.route"),
    (SimulatedVLM, "complete", "llm.call"),
    (LatencyChatClient, "complete", "llm.latency"),
    (LatencyChatClient, "complete_batch", "llm.latency"),
    (LLMIndicatorClassifier, "classify_image", "core.classify"),
    # ``resilient_predictions`` votes image by image through this.
    (VotingEnsemble, "vote_image", "core.vote"),
    (SurveyCheckpoint, "__init__", "checkpoint.load"),
    (SurveyCheckpoint, "record", "checkpoint.record"),
    (JobStore, "flush", "service.flush"),
    (JobStore, "write_report", "service.flush"),
    (WallClock, "sleep", "wait"),
)

def _location_key(args: tuple) -> str | None:
    """``loc:<lat>,<lon>`` of a call about one capture, image or location."""
    for arg in args[:2]:
        item = arg[0] if isinstance(arg, (list, tuple)) and arg else arg
        point = getattr(item, "point", None)
        if point is not None:
            return f"loc:{point.location.lat:.6f},{point.location.lon:.6f}"
        scene = getattr(item, "scene", item)
        if hasattr(scene, "latitude"):
            return f"loc:{scene.latitude:.6f},{scene.longitude:.6f}"
    return None


def _job_trace() -> str | None:
    """The service job's id while the daemon runs it under its own tracer."""
    return getattr(get_tracer(), "trace_id", None)


def install() -> tuple[Recorder, list]:
    """Patch every wrap point; returns the recorder and a report list.

    The report list collects each engine run's ``pipeline_stats`` and
    ``batch_stats`` (also the ones the daemon never hands back).
    """
    recorder = Recorder(default_trace=_job_trace)
    afters = {
        "checkpoint.record": lambda args, _: recorder.count(
            "checkpoint.record.bytes", args[0].path.stat().st_size
        ),
        "llm.call": lambda _, response: recorder.count(
            "llm.tokens",
            response.usage.prompt_tokens + response.usage.completion_tokens,
        ),
    }
    for owner, attr, name in WRAPS:
        recorder.wrap(
            owner, attr, name, trace_key=_location_key, after=afters.get(name)
        )
    reports: list = []
    for attr in ("survey_async", "survey_stream_async"):
        original = NeighborhoodDecoder.__dict__[attr]

        @functools.wraps(original)
        async def collect(*args, _original=original, **kwargs):
            report = await _original(*args, **kwargs)
            reports.append(report)
            return report

        recorder.patch(NeighborhoodDecoder, attr, collect)
    return recorder, reports


def layer_metrics(recorder: Recorder, reports: list, phase, untraced_phase) -> dict:
    """Every per-layer metric's value in one traced phase (0 where a layer is idle)."""
    folded = fold(recorder.spans)
    names = folded["names"]

    def row(name: str) -> dict:
        return names.get(
            name,
            {"calls": 0, "errors": 0, "self_ms": 0.0, "cpu_ms": 0.0, "wait_ms": 0.0},
        )

    llm_call, llm_latency = row("llm.call"), row("llm.latency")
    tiers = phase.layer.get("tiers", {})
    decided = sum(tiers.get(f"tier{n}_indicators", 0) for n in range(3))
    hits, misses = phase.layer.get("cache", (0, 0))
    batches = sum(r.batch_stats.get("batches", 0) for r in reports)
    batched = sum(r.batch_stats.get("batched_requests", 0) for r in reports)
    queue_wait = phase.layer.get("queue_wait_s") or [0.0]
    run = phase.layer.get("run_s") or [0.0]
    process_cpu_ms = 1000.0 * phase.cpu_s
    other_cpu_ms = max(0.0, process_cpu_ms - folded["root_cpu_ms"])
    untraced = untraced_phase.wall_s / max(untraced_phase.locations, 1)
    traced = phase.wall_s / max(phase.locations, 1)
    return {
        "geo.plan.calls": row("geo.plan")["calls"],
        "geo.plan.self_ms": row("geo.plan")["self_ms"],
        "geo.plan.cpu_ms": row("geo.plan")["cpu_ms"],
        "gsv.fetch.calls": row("gsv.fetch")["calls"],
        "gsv.fetch.self_ms": row("gsv.fetch")["self_ms"],
        "gsv.fetch.wait_ms": row("gsv.fetch")["wait_ms"],
        "gsv.fetch.retries": row("gsv.fetch")["errors"],
        "gsv.images_billed": phase.images,
        "scene.render.calls": row("scene.render")["calls"],
        "scene.render.self_ms": row("scene.render")["self_ms"],
        "scene.render.cpu_ms": row("scene.render")["cpu_ms"],
        "detect.features.calls": row("detect.features")["calls"],
        "detect.features.self_ms": row("detect.features")["self_ms"],
        "detect.features.cpu_ms": row("detect.features")["cpu_ms"],
        "detect.head.self_ms": row("detect.head")["self_ms"],
        "cascade.route.calls": row("cascade.route")["calls"],
        "cascade.route.self_ms": row("cascade.route")["self_ms"],
        "cascade.tier0_share": tiers.get("tier0_indicators", 0) / decided if decided else 0.0,
        "cascade.tier1_share": tiers.get("tier1_indicators", 0) / decided if decided else 0.0,
        "cascade.tier2_share": tiers.get("tier2_indicators", 0) / decided if decided else 0.0,
        "llm.calls": llm_call["calls"],
        "llm.self_ms": llm_call["self_ms"] + llm_latency["self_ms"],
        "llm.wait_ms": llm_latency["wait_ms"],
        "llm.tokens": recorder.counts.get("llm.tokens", 0),
        "llm.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "llm.batch.mean_size": batched / batches if batches else 0.0,
        "core.classify.calls": row("core.classify")["calls"],
        "core.classify.self_ms": row("core.classify")["self_ms"],
        "core.vote.calls": row("core.vote")["calls"],
        "core.vote.self_ms": row("core.vote")["self_ms"],
        "checkpoint.record.calls": row("checkpoint.record")["calls"],
        "checkpoint.record.self_ms": row("checkpoint.record")["self_ms"],
        "checkpoint.record.bytes": recorder.counts.get("checkpoint.record.bytes", 0),
        "checkpoint.load.self_ms": row("checkpoint.load")["self_ms"],
        "checkpoint.resume_ms": 1000.0 * phase.resume_s,
        "pipeline.peak_inflight": max(
            (r.pipeline_stats.get("peak_inflight", 0) for r in reports), default=0
        ),
        "pipeline.overlap": folded["root_wall_ms"] / (1000.0 * phase.wall_s),
        "service.flush.calls": row("service.flush")["calls"],
        "service.flush.self_ms": row("service.flush")["self_ms"],
        "service.queue_wait_p50_ms": 1000.0 * quantile(queue_wait, 0.5),
        "service.run_p50_ms": 1000.0 * quantile(run, 0.5),
        "other.cpu_ms": other_cpu_ms,
        "other.cpu_share": other_cpu_ms / process_cpu_ms if process_cpu_ms else 0.0,
        "trace.overhead_ratio": traced / untraced if untraced else 0.0,
    }
