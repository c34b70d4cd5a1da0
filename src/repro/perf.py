"""Timing utilities and the ``BENCH_*.json`` trajectory writer.

Perf work is only real when it is measured, and only comparable when
every measurement records where it ran.  This module provides the
small kit the perf benchmarks share:

* :class:`Stopwatch` — a wall-clock context manager;
* :class:`LatencyChatClient` — wraps any chat client with simulated
  network round-trip latency (the commercial APIs the paper drives
  answer in hundreds of milliseconds; the simulated ones answer in
  microseconds, which would make concurrency look useless);
* :func:`machine_info` / :func:`git_sha` — provenance stamped into
  every benchmark artifact;
* :func:`write_bench` — atomic (temp file + rename) writer for
  ``BENCH_<name>.json`` so the perf trajectory is comparable across
  PRs and survives an interrupted run.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .llm.base import ChatClient, ChatRequest, ChatResponse, complete_each
from .parallel import effective_cpu_count
from .resilience.clock import Clock, WallClock

__all__ = [
    "HEADLINE_METRICS",
    "LatencyChatClient",
    "Stopwatch",
    "compare_benchmarks",
    "git_sha",
    "machine_info",
    "write_bench",
]


class Stopwatch:
    """Measure a wall-clock interval: ``with Stopwatch() as sw: ...``."""

    def __init__(self) -> None:
        self.elapsed_s = 0.0
        self._started: float | None = None

    def __enter__(self) -> "Stopwatch":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._started is not None
        self.elapsed_s = time.perf_counter() - self._started
        self._started = None


class LatencyChatClient(ChatClient):
    """Add a fixed per-request latency in front of an inner client.

    The sleep goes through an injected
    :class:`~repro.resilience.clock.Clock`, so fault scripts can keep
    using a virtual clock while perf benchmarks use wall time (which
    releases the GIL, exactly like a real socket wait).
    """

    def __init__(
        self,
        inner: ChatClient,
        latency_s: float,
        clock: Clock | None = None,
    ) -> None:
        if latency_s < 0:
            raise ValueError(f"latency must be non-negative: {latency_s}")
        super().__init__(model_name=inner.model_name)
        self.inner = inner
        self.latency_s = latency_s
        self.clock = clock or WallClock()

    def complete(self, request: ChatRequest) -> ChatResponse:
        if self.latency_s > 0:
            self.clock.sleep(self.latency_s)
        return self._complete_inner(request)

    def complete_batch(
        self, requests: Sequence[ChatRequest]
    ) -> list[ChatResponse]:
        """One latency charge for the whole window, like a real batched
        endpoint: the round-trip is paid once and amortized across every
        request in it — the behaviour the micro-batching benchmark
        measures.  A failure raises :class:`~repro.llm.base.BatchError`
        with the responses served before it."""
        if self.latency_s > 0 and requests:
            self.clock.sleep(self.latency_s)
        return complete_each(self._complete_inner, requests)

    def _complete_inner(self, request: ChatRequest) -> ChatResponse:
        response = self.inner.complete(request)
        self.stats.record(response.usage)
        return response


def machine_info() -> dict:
    """Where a benchmark ran — enough to judge cross-run comparability.

    ``cpu_count`` is the *usable* count — affinity/cgroup aware via
    :func:`repro.parallel.effective_cpu_count` — because that is what
    bounds any measured speedup.  The raw logical count is kept
    alongside for context (containers routinely report many logical
    CPUs while pinning the process to a fraction of them).
    """
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": effective_cpu_count(),
        "cpu_count_logical": os.cpu_count(),
        "numpy": np.__version__,
    }


#: The metrics ``repro bench --compare`` guards, per benchmark name.
#: Every entry is a dotted path into the benchmark document; most are
#: higher-is-better ratios (speedups, rates, throughputs) so "regressed"
#: usually means "dropped".  An entry with ``lower_is_better: True``
#: inverts the direction (error deltas, latencies); its optional
#: ``floor`` sets the smallest baseline magnitude used as the relative
#: denominator, so near-zero baselines don't turn measurement noise
#: into a reported regression.  ``waived_by`` names a boolean path
#: that, when true in *either* document, exempts the metric — the
#: recorded honesty flags (e.g. ``core_capped`` on single-core hosts)
#: mark numbers the machine cannot physically improve.
HEADLINE_METRICS: dict[str, list[dict]] = {
    "cascade": [
        {"path": "cascade.fee_reduction"},
        {"path": "cascade.f1_retention"},
    ],
    "pipeline": [
        {"path": "survey.speedup"},
        {"path": "llm_cache.warm_speedup"},
    ],
    "async": [
        {"path": "pipeline.async_speedup"},
        {"path": "pipeline.async_peak_inflight"},
    ],
    "detect": [
        {
            "path": "process_parallel.speedup",
            "waived_by": "process_parallel.core_capped",
        },
        {"path": "artifact_cache.warm_speedup"},
        {"path": "detect.extract_speedup"},
        {"path": "detect.int8_speedup"},
        {
            "path": "detect.int8_f1_delta",
            "lower_is_better": True,
            "floor": 0.005,
        },
    ],
    "stream": [
        {"path": "streaming.stream_locations_per_s"},
    ],
    "obs": [
        {"path": "tracing.noop_locations_per_s"},
        {"path": "tracing.traced_relative_throughput"},
    ],
    "service": [
        {"path": "service.job_throughput"},
        {
            "path": "service.multiplex_overhead",
            "lower_is_better": True,
            "floor": 0.25,
        },
    ],
}


def _lookup(document: dict, dotted: str):
    value = document
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def compare_benchmarks(
    fresh: dict, baseline: dict, threshold: float = 0.20
) -> dict:
    """Diff two benchmark documents over their headline metrics.

    Returns ``{"bench", "compared", "waived", "missing", "regressions"}``
    where ``regressions`` lists every headline metric that dropped by
    more than ``threshold`` (relative) against the baseline.  A metric
    absent from either document is reported in ``missing`` rather than
    failing the comparison — old trajectory entries predate newer
    metrics.  Pure function: the CLI turns a non-empty ``regressions``
    into a non-zero exit.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive: {threshold}")
    name = fresh.get("bench")
    result: dict = {
        "bench": name,
        "compared": [],
        "waived": [],
        "missing": [],
        "regressions": [],
    }
    if baseline.get("bench") != name:
        raise ValueError(
            f"benchmark mismatch: fresh is {name!r}, "
            f"baseline is {baseline.get('bench')!r}"
        )
    for spec in HEADLINE_METRICS.get(name, []):
        path = spec["path"]
        waiver = spec.get("waived_by")
        if waiver is not None and (
            _lookup(fresh, waiver) or _lookup(baseline, waiver)
        ):
            result["waived"].append(path)
            continue
        new = _lookup(fresh, path)
        old = _lookup(baseline, path)
        if not isinstance(new, (int, float)) or not isinstance(
            old, (int, float)
        ):
            result["missing"].append(path)
            continue
        entry = {"path": path, "baseline": old, "fresh": new}
        result["compared"].append(entry)
        if spec.get("lower_is_better"):
            # A *rise* regresses.  The denominator is floored so a
            # near-perfect baseline (e.g. an F1 delta of 1e-4) does
            # not make any nonzero fresh value look like a blow-up.
            denominator = max(abs(old), float(spec.get("floor", 0.0)))
            if denominator > 0:
                rise = (new - old) / denominator
                entry["relative_change"] = round(rise, 4)
                if rise > threshold:
                    result["regressions"].append(entry)
        elif old > 0:
            drop = (old - new) / old
            entry["relative_change"] = round(-drop, 4)
            if drop > threshold:
                result["regressions"].append(entry)
    return result


def git_sha(repo_root: str | Path | None = None) -> str:
    """The current commit, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(repo_root) if repo_root else None,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def write_bench(
    path: str | Path, name: str, payload: dict, repo_root: str | Path | None = None
) -> dict:
    """Write one benchmark document atomically; returns what was written.

    The document wraps ``payload`` with the benchmark name, a
    timestamp, the running machine, and the git SHA, making every
    ``BENCH_*.json`` self-describing and trajectory-comparable.
    """
    path = Path(path)
    document = {
        "bench": name,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_sha": git_sha(repo_root if repo_root is not None else path.parent),
        "machine": machine_info(),
        **payload,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    tmp.replace(path)
    return document
