"""Run one workload of the survey benchmark and print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload cascade-survey --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of an untraced timed phase; ``--trace 1``
runs the same work twice at half size, untraced then traced, and
reports the per-layer metrics of the traced half plus the tracing
overhead between the two.  The line before it carries the run's
context: host CPU steal, sample counts, set-up samples and the report
digest.  A failed output check prints ``"correct": false`` with no
metrics and exits 1.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from probes import (  # noqa: E402
    Timer,
    cpu_ticks,
    peak_rss_mb,
    quantile,
    reset_peak_rss,
    steal_share,
)

#: Pinned before numpy loads: multithreaded OpenBLAS spin threads
#: compete with the engine's threads on a 2-vCPU host.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

ROOT = Path.cwd()
SRC = ROOT / "src"
STATE = ROOT / ".perfbench-state"
#: Set-up is built this many times per run; ``setup_s`` uses the median.
SETUP_REPEATS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no src/repro under {ROOT}; run from the repository root"
        )
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


class Window(Timer):
    """The timed phase: wall, process CPU, peak RSS, and tracing if asked."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.recorder = None
        self.reports: list = []

    def __enter__(self) -> "Window":
        self.rss_reset = reset_peak_rss()
        if self.traced:
            import layers

            self.recorder, self.reports = layers.install()
        return super().__enter__()

    def __exit__(self, *exc_info: object) -> None:
        super().__exit__(*exc_info)
        if self.recorder is not None:
            self.recorder.restore()
        self.peak_rss_mb, self.rss_method = peak_rss_mb(self.rss_reset)


def check_digest(key: str, phase) -> list[str]:
    """Compare the report digest, fees and F1 with the first run of ``key``."""
    path = STATE / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    record = {"digest": phase.digest, "usd": phase.usd, "macro_f1": phase.macro_f1}
    first = known.setdefault(key, record)
    if first != record:
        return [f"{key}: {record} differs from the first run's {first}"]
    STATE.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)
    return []


def declared(section: str, values: dict) -> dict:
    """The metrics ``BENCHMARK.json`` lists in ``section``, with their units."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    return {
        metric["name"]: {"value": float(values[metric["name"]]), "unit": metric["unit"]}
        for metric in listed
    }


def end_to_end(phase, window: Window, setup_s: float) -> dict:
    per_location = max(phase.locations, 1)
    return {
        "setup_s": setup_s,
        "wall_ms_per_location": 1000.0 * phase.wall_s / per_location,
        "cpu_ms_per_location": 1000.0 * phase.cpu_s / per_location,
        "usd_per_location": phase.usd / per_location,
        "macro_f1": phase.macro_f1,
        "peak_rss_mb": window.peak_rss_mb,
        "completed_share": 1.0 - phase.failed / phase.attempted,
        "job_latency_p50_ms": 1000.0 * quantile(phase.job_latencies_s, 0.5),
        "job_latency_p75_ms": 1000.0 * quantile(phase.job_latencies_s, 0.75),
        "jobs_per_s": len(phase.job_latencies_s) / phase.wall_s,
    }


async def build(workload, seed: int, work: Path, keep: int, envs: list) -> list[float]:
    """Build the set-up ``SETUP_REPEATS`` times; returns each build's time.

    The first ``keep`` builds go into ``envs`` for the timed phases.
    Every other build is closed as soon as it is timed, so the timed
    phase's memory holds one live set-up (two in a traced run).
    """
    builds = []
    for index in range(SETUP_REPEATS):
        started = time.perf_counter()
        env = await workload.build(seed, work / f"env{index}")
        builds.append(time.perf_counter() - started)
        if len(envs) < keep:
            envs.append(env)
        else:
            await workload.close(env)
        del env
    gc.collect()
    return builds


async def run(workload, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    imported_s = time.perf_counter() - STARTED
    size = max(workload.min_size, round(seconds * workload.rate))
    if traced:
        size = max(workload.min_size, size // 2)
    work = ROOT / ".perfbench-work" / f"{workload.name}-{os.getpid()}"
    ticks0 = cpu_ticks()
    envs: list = []
    try:
        builds = await build(workload, seed, work, 2 if traced else 1, envs)
        started = time.perf_counter()
        await workload.warm(envs[0])
        warm_s = time.perf_counter() - started
        window = Window(traced=False)
        phase = await workload.measure(envs[0], size, window)
        problems = list(phase.problems)
        key = f"{workload.name} seed={seed} size={size}"
        if traced:
            await workload.warm(envs[1])
            traced_window = Window(traced=True)
            traced_phase = await workload.measure(envs[1], size, traced_window)
            problems += traced_phase.problems
            if traced_phase.digest != phase.digest:
                problems.append("the traced phase decoded differently")
        if not problems:
            problems += check_digest(key, phase)
    finally:
        for env in envs:
            await workload.close(env)
        shutil.rmtree(work, ignore_errors=True)
    ticks1 = cpu_ticks()

    setup_s = imported_s + statistics.median(builds) + warm_s
    if traced:
        import layers

        metrics = declared(
            "per_layer",
            layers.layer_metrics(
                traced_window.recorder, traced_window.reports, traced_phase, phase
            ),
        )
        trace_dir = STATE / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        with open(trace_dir / f"{workload.name}-seed{seed}.jsonl", "w") as out:
            for span in traced_window.recorder.spans:
                out.write(json.dumps(span.as_dict()) + "\n")
    else:
        metrics = declared("end_to_end", end_to_end(phase, window, setup_s))
    context = {
        "workload": workload.name,
        "seed": seed,
        "size": size,
        "traced": traced,
        "host_steal_share": steal_share(ticks0, ticks1),
        "blas_env": BLAS_ENV,
        "import_s": imported_s,
        "setup_build_s": builds,
        "warm_s": warm_s,
        "peak_rss_method": window.rss_method,
        "locations": phase.locations,
        "job_samples": len(phase.job_latencies_s),
        "digest": phase.digest,
        "problems": problems,
    }
    result = {
        "correct": not problems,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": metrics if not problems else {},
    }
    return context, result


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_ENV)
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}"
        )
    context, result = asyncio.run(
        run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    )
    print(json.dumps({"perfbench": context}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
