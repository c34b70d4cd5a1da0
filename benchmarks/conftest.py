"""Shared benchmark fixtures.

The benches regenerate every table and figure of the paper.  Scale is
selected by the ``REPRO_BENCH_SCALE`` environment variable:

* ``paper`` — the full Section IV protocol (1,200 images at 640 px);
  the detector experiments take tens of minutes.
* ``bench`` (default) — 600 images at 640 px: every qualitative
  conclusion reproduces, detector experiments run in minutes.
* ``smoke`` — tiny inputs for CI wiring checks.

Rendered result tables are printed and also written to
``benchmarks/results/*.txt`` so they survive output capture.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.detect.train import TrainConfig
from repro.experiments import (
    ExperimentConfig,
    ExperimentSuite,
    paper_config,
    smoke_config,
)

RESULTS_DIR = Path(__file__).parent / "results"


def _bench_config() -> ExperimentConfig:
    scale = os.environ.get("REPRO_BENCH_SCALE", "bench")
    if scale == "paper":
        return paper_config()
    if scale == "smoke":
        return smoke_config()
    if scale == "bench":
        return ExperimentConfig(
            n_images=600,
            image_size=640,
            n_calibration_images=600,
            detector_train=TrainConfig(epochs=20, batch_size=16),
        )
    raise ValueError(f"unknown REPRO_BENCH_SCALE: {scale!r}")


@pytest.fixture(scope="session")
def suite() -> ExperimentSuite:
    return ExperimentSuite(config=_bench_config())


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def publish(result, results_dir: Path) -> None:
    """Print a rendered result and persist it to disk."""
    text = result.render()
    print("\n" + text)
    slug = (
        result.experiment_id.lower()
        .replace(" ", "_")
        .replace(".", "")
        .replace("§", "sec")
    )
    (results_dir / f"{slug}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def once():
    """Run a heavy experiment exactly once under pytest-benchmark."""

    def runner(benchmark, fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
