"""Perf benchmark: what crash-safety costs (``BENCH_coord.json``).

The coordinator wraps every shard in durability machinery — an
fsynced manifest write per state transition, a per-location
checkpoint, heartbeats, an atomic result document, and a full
durable-record merge.  The contract is that a county-scale survey
buys all of that for a modest multiple of the raw serial engine, and
that forked shard workers claw the overhead back on multi-core hosts.

Three measurements:

* **serial** — a window-1 ``survey`` over the frame, the
  baseline every coordinated run must byte-match;
* **coordinated** — the same frame through
  :class:`~repro.coordinator.SurveyCoordinator` (clean run, two
  workers); headline ``coordinator.locations_per_s`` and the
  coordinated/serial throughput ratio;
* **crash recovery** — the same plan under a seeded SIGKILL storm
  (half the shards die mid-flight), measuring what a storm adds on
  top of a clean coordinated run.

On a single-core host the process fan-out cannot show its win, so the
document records the ``core_capped`` honesty flag (the convention
shared with ``BENCH_detect.json`` / ``BENCH_stream.json``) and the
relative-throughput bar is waived; byte-identity is always enforced.

Excluded from tier-1 (``perf`` marker); run with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_coordinator.py -m perf -q
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.coordinator import CrashSchedule, SurveyCoordinator
from repro.core.classifier import LLMIndicatorClassifier
from repro.core.pipeline import NeighborhoodDecoder
from repro.geo.county import make_durham_like
from repro.geo.sampling import plan_survey_points
from repro.gsv.api import StreetViewClient
from repro.gsv.dataset import build_survey_dataset
from repro.llm.paper_targets import GEMINI_15_PRO
from repro.llm.registry import build_clients
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.parallel import effective_cpu_count
from repro.perf import Stopwatch, write_bench

pytestmark = pytest.mark.perf

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_coord.json"

N_LOCATIONS = 192
SHARD_SIZE = 24  # 8 shards
MAX_WORKERS = 2
SEED = 5

#: A clean coordinated run may cost at most this multiple of the raw
#: serial engine's wall-clock on a core-capped host (fsyncs, forks,
#: polling, and the merge are all overhead there; parallelism cannot
#: pay any of it back).
COORD_OVERHEAD_LIMIT = 6.0


def _decoder(county, clients):
    return NeighborhoodDecoder(
        street_view=StreetViewClient(counties=[county], api_key="bench"),
        classifier=LLMIndicatorClassifier(clients[GEMINI_15_PRO]),
    )


def _coordinator(state_dir, county, clients, **overrides):
    kwargs = dict(
        state_dir=state_dir,
        counties=[county],
        n_locations=N_LOCATIONS,
        seed=SEED,
        decoder=_decoder(county, clients),
        shard_size=SHARD_SIZE,
        max_workers=MAX_WORKERS,
        lease_ttl_s=30.0,
        keep_locations=True,
    )
    kwargs.update(overrides)
    return SurveyCoordinator(**kwargs)


def test_coordinator_overhead_trajectory(tmp_path):
    county = make_durham_like(seed=3)
    calibration = build_survey_dataset(n_images=60, size=256, seed=77)
    clients = build_clients(
        [image.scene for image in calibration], model_ids=(GEMINI_15_PRO,)
    )
    cores = effective_cpu_count()
    core_capped = cores < 2

    points = plan_survey_points([county], N_LOCATIONS, seed=SEED)
    with Stopwatch() as serial_sw:
        serial = _decoder(county, clients).survey(locations=points)

    with use_metrics(MetricsRegistry()):
        with Stopwatch() as coord_sw:
            clean = _coordinator(tmp_path / "clean", county, clients).run()

    n_shards = -(-N_LOCATIONS // SHARD_SIZE)
    storm = CrashSchedule.seeded_kills(
        n_shards, seed=11, attempts=1, max_after=4, fraction=0.5
    )
    with use_metrics(MetricsRegistry()):
        with Stopwatch() as crash_sw:
            crashed = _coordinator(
                tmp_path / "crash", county, clients, crash_schedule=storm
            ).run()

    # Durability must be payload-invisible, storms included.
    byte_identical = (
        clean.report.to_json() == serial.to_json()
        and crashed.report.to_json() == serial.to_json()
    )

    locations_per_s = N_LOCATIONS / coord_sw.elapsed_s
    relative_throughput = serial_sw.elapsed_s / coord_sw.elapsed_s
    recovery_overhead = crash_sw.elapsed_s / coord_sw.elapsed_s

    document = write_bench(
        BENCH_PATH,
        "coord",
        {
            "config": {
                "n_locations": N_LOCATIONS,
                "shard_size": SHARD_SIZE,
                "shards": n_shards,
                "max_workers": MAX_WORKERS,
                "storm_kills": len(storm),
            },
            "coordinator": {
                "serial_s": round(serial_sw.elapsed_s, 4),
                "coordinated_s": round(coord_sw.elapsed_s, 4),
                "crashed_s": round(crash_sw.elapsed_s, 4),
                "locations_per_s": round(locations_per_s, 2),
                "relative_throughput": round(relative_throughput, 4),
                "recovery_overhead": round(recovery_overhead, 4),
                "requeues": crashed.requeues,
                "workers_spawned": crashed.workers_spawned,
                "byte_identical": byte_identical,
                "effective_cpu_count": cores,
                "core_capped": core_capped,
                "note": (
                    f"host exposes {cores} usable core(s); forked shard "
                    "workers cannot outrun the serial engine here, so "
                    "the throughput bar is waived and byte-identity is "
                    "the acceptance criterion"
                )
                if core_capped
                else f"{cores} usable cores",
            },
        },
        repo_root=REPO_ROOT,
    )

    assert BENCH_PATH.exists()
    assert document["coordinator"]["byte_identical"]
    assert crashed.requeues == len(storm)
    if core_capped:
        # Parallelism cannot pay the durability bill: bound the bill.
        assert (
            coord_sw.elapsed_s
            < serial_sw.elapsed_s * COORD_OVERHEAD_LIMIT
        ), (
            f"coordinated run cost {relative_throughput:.2f}x serial "
            f"throughput; even core-capped it must stay within "
            f"{COORD_OVERHEAD_LIMIT}x wall-clock"
        )
    else:
        # With real cores, sharded fan-out must at least break even
        # against the serial engine despite the durability machinery.
        assert relative_throughput >= 0.9, (
            f"coordinated throughput only {relative_throughput:.2f}x "
            f"serial on {cores} cores"
        )
