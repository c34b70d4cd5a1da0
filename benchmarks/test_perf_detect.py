"""Perf benchmark: detector pipeline — parallel, cached, fused, tiered.

Measures the optimizations `BENCH_detect.json` tracks (one
document per commit, at the repo root):

* **thread fan-out** — training-tensor extraction, training, and
  batched evaluation at ``workers=4`` (thread pool) vs strictly
  serial.  The work is numpy CPU that releases the GIL, so the
  speedup tracks the machine's *usable* core count: on a single-core
  host the document records ``core_capped`` instead of a speedup bar
  (see DESIGN.md §9).  The section keeps its historical
  ``process_parallel`` name so the recorded trajectory stays
  comparable.
* **artifact cache** — a cold vs warm ``run_all`` of the detector
  experiments (Table I + the Fig. 2 augmentation sweep) against one
  content-addressed :class:`~repro.artifacts.ArtifactCache`: the warm
  pass replays feature tensors, trained weights, and per-image
  predictions from disk.
* **fused kernel + dtype tiers** (``detect.*`` headline metrics) —
  the single-pass feature kernel vs the legacy multi-pass extractor
  (float64 byte-identical, float32 >= 3x), and the float32/int8 MLP
  head vs float64 with presence-decision micro-F1 agreement.  The
  legacy extractor is the test oracle ``tests/features_legacy.py``.

Either way the parallel/cached paths must be *byte-identical* to the
serial/cold ones — asserted here, not assumed.

Excluded from tier-1 (``perf`` marker); run with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_detect.py -m perf -q

or ``python -m repro bench``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.artifacts import ArtifactCache, model_fingerprint
from repro.core.indicators import ALL_INDICATORS
from repro.detect import (
    ModelConfig,
    NanoDetector,
    TrainConfig,
    build_training_tensors,
    evaluate_detector,
    extract_features_batch,
    train_detector,
)
from repro.experiments import ExperimentSuite, smoke_config
from repro.gsv.dataset import build_survey_dataset
from repro.parallel import TensorArena, effective_cpu_count
from repro.perf import Stopwatch, write_bench
from tests.features_legacy import extract_features_legacy

pytestmark = pytest.mark.perf

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_detect.json"

#: The CPU workload: enough images that pool startup amortizes.
N_IMAGES = 48
IMAGE_SIZE = 256
WORKERS = 4
EPOCHS = 6

#: Detector experiments exercised for the cold/warm cache measurement.
CACHED_EXPERIMENTS = ["table1", "fig2"]


def _train_and_eval(images, splits, workers, cache=None):
    """One serial-or-parallel pass: tensors → train → batched eval."""
    result = train_detector(
        splits[0],
        model_config=ModelConfig(hidden=64),
        train_config=TrainConfig(epochs=EPOCHS, seed=0),
        workers=workers,
        cache=cache,
    )
    report = evaluate_detector(
        result.model, splits[1], workers=workers, cache=cache
    )
    return result, report


#: Images timed by the fused-kernel and dtype-tier measurements.
N_KERNEL_IMAGES = 12
#: Best-of repetitions per timed section (absorbs scheduler noise).
TIMING_REPS = 3


def _best_of(reps, fn):
    """Minimum wall time of ``reps`` runs of ``fn`` (classic best-of)."""
    best = float("inf")
    for _ in range(reps):
        with Stopwatch() as sw:
            fn()
        best = min(best, sw.elapsed_s)
    return best


def _presence_micro_f1(peaks, images, threshold=0.5):
    """Micro-F1 of thresholded per-image indicator presence decisions."""
    predicted = peaks >= threshold
    truth = np.array(
        [
            [
                any(ind == indicator for ind, _ in image.annotations)
                for indicator in ALL_INDICATORS
            ]
            for image in images
        ]
    )
    tp = int((predicted & truth).sum())
    fp = int((predicted & ~truth).sum())
    fn = int((~predicted & truth).sum())
    denominator = 2 * tp + fp + fn
    return 2 * tp / denominator if denominator else 1.0


def _bench_kernel_tiers(model, images):
    """The fused-kernel / dtype-tier measurements (the ``detect`` section).

    Returns the section dict for BENCH_detect.json; the byte-identity
    and agreement checks are asserted here so a bench run that records
    a speedup from a *wrong* kernel fails instead of publishing it.
    """
    config = model.config.feature_config
    pixels = [image.render() for image in images]
    arena = TensorArena()

    # Warm the pooling-operator / position-channel memos and the arena
    # before timing, so one-time setup is not billed to either side.
    legacy = np.stack(
        [extract_features_legacy(pixels[0], config)]
        + [extract_features_legacy(p, config) for p in pixels[1:]]
    )
    fused64 = extract_features_batch(pixels, config, arena=arena)
    fused32 = extract_features_batch(
        pixels, config, precision="float32", arena=arena
    )

    # Fused float64 is byte-identical to the legacy extractor; float32
    # stays within documented tolerance of it.
    assert np.array_equal(fused64, legacy)
    assert float(np.abs(fused32 - legacy).max()) < 5e-2

    legacy_s = _best_of(
        TIMING_REPS,
        lambda: [extract_features_legacy(p, config) for p in pixels],
    )
    fused64_s = _best_of(
        TIMING_REPS,
        lambda: extract_features_batch(pixels, config, arena=arena),
    )
    fused32_s = _best_of(
        TIMING_REPS,
        lambda: extract_features_batch(
            pixels, config, precision="float32", arena=arena
        ),
    )
    extract_speedup = legacy_s / fused32_s

    # Dtype-tiered MLP head over the full stacked cell batch.
    flat64 = fused64.reshape(-1, fused64.shape[-1])
    flat32 = flat64.astype(np.float32)
    head64_s = _best_of(
        TIMING_REPS, lambda: model._infer_logits(flat64, "float64")
    )
    head32_s = _best_of(
        TIMING_REPS, lambda: model._infer_logits(flat32, "float32")
    )
    head8_s = _best_of(
        TIMING_REPS, lambda: model._infer_logits(flat32, "int8")
    )
    int8_speedup = head64_s / head8_s

    # Exactness across tiers: presence decisions (the cascade's tier-0
    # currency) must agree between int8 and float64 to |ΔF1| <= 0.01.
    scores64, _ = model.predict_cells_batch(pixels, arena=arena)
    scores32, _ = model.predict_cells_batch(
        pixels, precision="float32", arena=arena
    )
    scores8, _ = model.predict_cells_batch(
        pixels, precision="int8", arena=arena
    )
    peaks64 = NanoDetector.indicator_scores(scores64)
    peaks32 = NanoDetector.indicator_scores(scores32)
    peaks8 = NanoDetector.indicator_scores(scores8)
    f1_64 = _presence_micro_f1(peaks64, images)
    int8_f1_delta = abs(_presence_micro_f1(peaks8, images) - f1_64)
    float32_f1_delta = abs(_presence_micro_f1(peaks32, images) - f1_64)

    return {
        "n_images": len(images),
        "legacy_extract_s": round(legacy_s, 4),
        "fused64_extract_s": round(fused64_s, 4),
        "fused32_extract_s": round(fused32_s, 4),
        "extract_speedup": round(extract_speedup, 3),
        "extract_speedup_float64": round(legacy_s / fused64_s, 3),
        "fused64_byte_identical": True,
        "head_float64_s": round(head64_s, 5),
        "head_float32_s": round(head32_s, 5),
        "head_int8_s": round(head8_s, 5),
        "int8_speedup": round(int8_speedup, 3),
        "int8_f1_delta": round(int8_f1_delta, 5),
        "float32_f1_delta": round(float32_f1_delta, 5),
        "presence_f1_float64": round(f1_64, 4),
        "arena_buffers": len(arena),
        "arena_bytes": arena.nbytes,
    }


def test_detect_perf_trajectory(tmp_path):
    dataset = build_survey_dataset(
        n_images=N_IMAGES, size=IMAGE_SIZE, seed=21
    )
    images = list(dataset)
    splits = (images[: N_IMAGES // 2], images[N_IMAGES // 2 :])

    cores = effective_cpu_count()
    core_capped = cores < 2

    # -- serial vs thread-parallel -----------------------------------------
    with Stopwatch() as serial_sw:
        serial_result, serial_report = _train_and_eval(images, splits, 1)
    with Stopwatch() as parallel_sw:
        parallel_result, parallel_report = _train_and_eval(
            images, splits, WORKERS
        )
    speedup = serial_sw.elapsed_s / parallel_sw.elapsed_s

    # Determinism: thread-parallel training and evaluation are
    # byte-identical to serial — same weights, same metrics.
    assert model_fingerprint(parallel_result.model) == model_fingerprint(
        serial_result.model
    )
    assert np.array_equal(
        np.asarray(parallel_result.loss_history),
        np.asarray(serial_result.loss_history),
    )
    deterministic = parallel_report.rows() == serial_report.rows()
    assert deterministic

    # -- chunking invariance under the thread fan-out ----------------------
    serial_tensors = build_training_tensors(splits[0], 16, workers=1)
    parallel_tensors = build_training_tensors(
        splits[0], 16, workers=WORKERS, chunk_size=4
    )
    for got, want in zip(parallel_tensors, serial_tensors):
        assert np.array_equal(got, want)

    # -- cold vs warm artifact cache over the experiment suite -------------
    cache_root = tmp_path / "artifacts"
    cold_suite = ExperimentSuite(
        config=smoke_config(), artifacts=ArtifactCache(cache_root)
    )
    with Stopwatch() as cold_sw:
        cold_run = cold_suite.run_all(names=CACHED_EXPERIMENTS)
    warm_suite = ExperimentSuite(
        config=smoke_config(), artifacts=ArtifactCache(cache_root)
    )
    with Stopwatch() as warm_sw:
        warm_run = warm_suite.run_all(names=CACHED_EXPERIMENTS)
    warm_speedup = cold_sw.elapsed_s / warm_sw.elapsed_s

    # The warm pass replays from disk: all hits, and identical tables.
    assert warm_run.cache_stats["hits"] > 0
    assert warm_run.cache_stats["misses"] == 0
    cold_rows = [
        row
        for result in cold_run.all_results()
        for row in result.rows
    ]
    warm_rows = [
        row
        for result in warm_run.all_results()
        for row in result.rows
    ]
    assert warm_rows == cold_rows

    # -- fused kernel + dtype tiers ----------------------------------------
    detect_section = _bench_kernel_tiers(
        serial_result.model, splits[1][:N_KERNEL_IMAGES]
    )

    document = write_bench(
        BENCH_PATH,
        "detect",
        {
            "config": {
                "n_images": N_IMAGES,
                "image_size": IMAGE_SIZE,
                "workers": WORKERS,
                "epochs": EPOCHS,
                "cached_experiments": CACHED_EXPERIMENTS,
            },
            "process_parallel": {
                "serial_s": round(serial_sw.elapsed_s, 4),
                "parallel_s": round(parallel_sw.elapsed_s, 4),
                "speedup": round(speedup, 3),
                "effective_cpu_count": cores,
                "core_capped": core_capped,
                "deterministic": deterministic,
                "note": (
                    f"host exposes {cores} usable core(s); a thread pool "
                    "cannot beat serial without a second core, so the "
                    "speedup bar is waived and determinism is the "
                    "acceptance criterion"
                )
                if core_capped
                else f"{cores} usable cores; workers run on a thread pool",
            },
            "artifact_cache": {
                "cold_s": round(cold_sw.elapsed_s, 4),
                "warm_s": round(warm_sw.elapsed_s, 4),
                "warm_speedup": round(warm_speedup, 3),
                "cold_stats": cold_run.cache_stats,
                "warm_stats": warm_run.cache_stats,
                "identical_tables": warm_rows == cold_rows,
            },
            "detect": detect_section,
        },
        repo_root=REPO_ROOT,
    )

    assert BENCH_PATH.exists()
    # ≥1.8× at 4 workers — unless the host cannot physically deliver
    # it, in which case the document says so (`core_capped`).
    assert core_capped or speedup >= 1.8, (
        f"thread-pool speedup {speedup:.2f}× below 1.8× on {cores} cores"
    )
    assert warm_speedup >= 5.0, (
        f"warm artifact-cache rerun only {warm_speedup:.2f}× faster"
    )
    assert document["artifact_cache"]["identical_tables"]
    # The ISSUE-8 acceptance gates: fused float32 extraction at least
    # 3x the legacy extractor, and int8 presence decisions within
    # |ΔF1| <= 0.01 of float64.
    assert detect_section["extract_speedup"] >= 3.0, (
        f"fused extraction only {detect_section['extract_speedup']:.2f}x "
        "the legacy extractor"
    )
    assert detect_section["int8_f1_delta"] <= 0.01, (
        f"int8 presence micro-F1 drifted {detect_section['int8_f1_delta']}"
    )
    assert detect_section["int8_speedup"] > 1.0, (
        f"int8 head not faster: {detect_section['int8_speedup']:.2f}x"
    )
