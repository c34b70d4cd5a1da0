"""Chaos drills for the sharded coordinator (``-m faults``).

The acceptance drill for the crash-safe coordinator: SIGKILL workers
at seeded-random progress points across a 1,000+ location sharded
survey, resume, and require the merged report to be **byte-identical**
to an undisturbed window-1 ``survey`` of the same frame — with
zero re-billed fee units for shards that had already completed.
"""

from __future__ import annotations

import pytest

from repro.coordinator import (
    CrashSchedule,
    ShardState,
    SurveyCoordinator,
)
from repro.core import LLMIndicatorClassifier, NeighborhoodDecoder
from repro.geo import make_durham_like, plan_survey_points
from repro.gsv import StreetViewClient
from repro.obs.audit import COORDINATOR_STAGES, audit_trace, reconcile_survey
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.trace import Tracer, use_tracer

pytestmark = pytest.mark.faults

N_LOCATIONS = 1_100
SHARD_SIZE = 64  # 18 shards


@pytest.fixture(scope="module")
def county():
    return make_durham_like(seed=3)


@pytest.fixture(scope="module")
def frame(county):
    points = plan_survey_points([county], N_LOCATIONS, seed=5)
    assert len(points) == N_LOCATIONS
    return points


@pytest.fixture(scope="module")
def baseline(county, clients, frame):
    """The undisturbed serial run every drill must reproduce exactly."""
    return _decoder(county, clients).survey(locations=frame)


def _decoder(county, clients):
    return NeighborhoodDecoder(
        street_view=StreetViewClient(counties=[county], api_key="x"),
        classifier=LLMIndicatorClassifier(clients["gemini-1.5-pro"]),
    )


def _coordinator(tmp_path, county, clients, **overrides):
    kwargs = dict(
        state_dir=tmp_path / "state",
        counties=[county],
        n_locations=N_LOCATIONS,
        seed=5,
        decoder=_decoder(county, clients),
        shard_size=SHARD_SIZE,
        max_workers=4,
        lease_ttl_s=30.0,
        max_attempts=3,
        keep_locations=True,
    )
    kwargs.update(overrides)
    return SurveyCoordinator(**kwargs)


class TestSeededKillDrill:
    def test_sigkill_storm_then_resume_is_byte_identical(
        self, tmp_path, county, clients, baseline
    ):
        """The headline acceptance drill.

        Phase 1: roughly half the shards' first attempts are SIGKILLed
        at seeded-random progress points, and shard 0 is killed on
        *every* attempt so the budget quarantines it.  Phase 2 resumes
        (fresh budget), completes, and must merge to the exact bytes of
        the serial baseline without re-dispatching completed shards.
        """
        n_shards = -(-N_LOCATIONS // SHARD_SIZE)
        schedule = CrashSchedule.seeded_kills(
            n_shards, seed=99, attempts=1, max_after=3, fraction=0.5
        )
        for attempt in range(1, 4):
            schedule.kill(0, attempt, after_locations=2)
        assert len(schedule) >= 4  # the storm actually scheduled kills

        with use_metrics(MetricsRegistry()):
            crashed = _coordinator(
                tmp_path, county, clients, crash_schedule=schedule
            ).run()
        assert crashed.quarantined == (0,)
        assert crashed.requeues >= 1
        assert crashed.report.completed_locations < N_LOCATIONS
        completed_before = len(
            crashed.manifest.in_state(ShardState.COMPLETED)
        )
        assert completed_before >= 1

        tracer = Tracer()
        with use_metrics(MetricsRegistry()), use_tracer(tracer):
            resumed = _coordinator(tmp_path, county, clients).run(
                resume=True
            )
        report = resumed.report

        # Byte-identity is the whole contract: every location, every
        # fee cent, every retry counter — exactly the serial run.
        assert report.to_json() == baseline.to_json()
        assert report.fees_usd == baseline.fees_usd
        assert report.payload() == baseline.payload()

        # Zero re-billing: completed shards were not re-dispatched.
        assert resumed.workers_spawned == n_shards - completed_before
        assert reconcile_survey(report) == []
        assert (
            audit_trace(tracer, required_names=COORDINATOR_STAGES) == []
        )

    def test_kill_storm_without_poison_self_heals_in_one_run(
        self, tmp_path, county, clients, baseline
    ):
        """Kills on first attempts only: requeues absorb the storm and
        a single run (no resume needed) already matches the baseline."""
        n_shards = -(-N_LOCATIONS // SHARD_SIZE)
        schedule = CrashSchedule.seeded_kills(
            n_shards, seed=7, attempts=1, max_after=5, fraction=0.4
        )
        with use_metrics(MetricsRegistry()):
            result = _coordinator(
                tmp_path, county, clients, crash_schedule=schedule
            ).run()
        assert result.requeues == len(schedule)
        assert result.quarantined == ()
        assert result.report.to_json() == baseline.to_json()
        assert reconcile_survey(result.report) == []


class TestFrozenStragglerDrill:
    def test_heartbeat_freeze_is_fenced_by_lease_expiry(
        self, tmp_path, county, clients
    ):
        """A wedged worker (alive, silent) is fenced and re-dispatched.

        Smaller frame so the drill's wall-clock cost is one lease TTL,
        not many.
        """
        n = 120
        points = plan_survey_points([county], n, seed=5)
        serial = _decoder(county, clients).survey(locations=points)
        schedule = CrashSchedule().freeze(1, 1, after_locations=3)
        with use_metrics(MetricsRegistry()):
            result = _coordinator(
                tmp_path,
                county,
                clients,
                n_locations=n,
                shard_size=24,
                lease_ttl_s=2.0,
                heartbeat_interval_s=0.25,
                crash_schedule=schedule,
            ).run()
        assert result.lease_expiries == 1
        assert result.requeues == 1
        assert result.report.to_json() == serial.to_json()
        assert reconcile_survey(result.report) == []
