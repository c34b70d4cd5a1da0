"""Crash-safe sharded coordination: manifest durability, leases,
chaos scheduling, and coordinated-run determinism."""

from __future__ import annotations

import json
import multiprocessing
import time

import pytest

from repro.coordinator import (
    CoordinatorError,
    CrashAction,
    CrashSchedule,
    LeaseError,
    LeaseTable,
    ManifestCorruptError,
    ManifestMismatchError,
    ShardManifest,
    ShardState,
    SurveyCoordinator,
    checkpoint_path,
    plan_fingerprint,
    points_digest,
    result_path,
)
from repro.core import LLMIndicatorClassifier, NeighborhoodDecoder
from repro.geo import make_durham_like, plan_survey_points
from repro.gsv import StreetViewClient
from repro.obs.audit import COORDINATOR_STAGES, audit_trace, reconcile_survey
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.trace import Tracer, use_tracer
from repro.resilience import VirtualClock


@pytest.fixture(scope="module")
def county():
    return make_durham_like(seed=3)


@pytest.fixture(scope="module")
def points(county):
    return plan_survey_points([county], 10, seed=0)


def _decoder(county, clients):
    return NeighborhoodDecoder(
        street_view=StreetViewClient(counties=[county], api_key="x"),
        classifier=LLMIndicatorClassifier(clients["gemini-1.5-pro"]),
    )


def _coordinator(tmp_path, county, clients, **overrides):
    kwargs = dict(
        state_dir=tmp_path / "state",
        counties=[county],
        n_locations=10,
        seed=0,
        decoder=_decoder(county, clients),
        shard_size=3,
        max_workers=2,
        lease_ttl_s=30.0,
        max_attempts=3,
        keep_locations=True,
    )
    kwargs.update(overrides)
    return SurveyCoordinator(**kwargs)


class TestManifest:
    def test_plan_shards_slices_and_digests(self, tmp_path, points):
        manifest = ShardManifest.plan_shards(
            tmp_path / "m.json", points, 3, "fp"
        )
        assert [(r.start, r.stop) for r in manifest.shards] == [
            (0, 3), (3, 6), (6, 9), (9, 10),
        ]
        for record in manifest.shards:
            assert record.digest == points_digest(
                points[record.start : record.stop]
            )
            assert record.state is ShardState.PENDING
        assert not manifest.finished

    def test_save_load_round_trip(self, tmp_path, points):
        manifest = ShardManifest.plan_shards(
            tmp_path / "m.json", points, 4, "fp", plan={"seed": 0}
        )
        manifest.shards[1].state = ShardState.COMPLETED
        manifest.shards[2].attempts = 2
        manifest.save()
        loaded = ShardManifest.load(tmp_path / "m.json")
        assert loaded.fingerprint == "fp"
        assert loaded.plan == {"seed": 0}
        assert [r.as_dict() for r in loaded.shards] == [
            r.as_dict() for r in manifest.shards
        ]

    def test_corrupt_manifest_raises(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(ManifestCorruptError):
            ShardManifest.load(path)
        path.write_text(json.dumps({"format_version": 99, "shards": []}))
        with pytest.raises(ManifestCorruptError):
            ShardManifest.load(path)

    def test_missing_manifest_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ShardManifest.load(tmp_path / "nope.json")

    def test_fingerprint_sensitive_to_config_and_frame(self, points):
        base = dict(
            counties=["Durham"],
            n_locations=10,
            seed=0,
            shard_size=3,
            frame_digest=points_digest(points),
        )
        fp = plan_fingerprint(**base)
        assert fp == plan_fingerprint(**base)
        assert fp != plan_fingerprint(**{**base, "seed": 1})
        assert fp != plan_fingerprint(**{**base, "shard_size": 4})
        assert fp != plan_fingerprint(
            **{**base, "frame_digest": points_digest(points[:5])}
        )

    def test_points_digest_orders_and_contents(self, points):
        assert points_digest(points) != points_digest(points[::-1])
        assert points_digest(points[:3]) != points_digest(points[:4])


class TestLeaseTable:
    def test_claim_renew_release_cycle(self):
        clock = VirtualClock()
        table = LeaseTable(ttl_s=10.0, clock=clock)
        lease = table.claim(0, "w1")
        assert lease.expires_s == 10.0
        clock.sleep(6.0)
        assert table.expired() == []
        table.renew(0)
        clock.sleep(6.0)  # t=12 < 16: renewal pushed expiry out
        assert table.expired() == []
        table.release(0)
        assert table.active(0) is None

    def test_double_claim_raises_until_expiry_then_steals(self):
        clock = VirtualClock()
        table = LeaseTable(ttl_s=5.0, clock=clock)
        table.claim(0, "w1")
        with pytest.raises(LeaseError):
            table.claim(0, "w2")
        clock.sleep(5.1)
        assert [lease.shard_id for lease in table.expired()] == [0]
        stolen = table.claim(0, "w2")
        assert stolen.worker == "w2"
        assert table.steals == 1
        assert table.claims == 2

    def test_renew_without_lease_raises(self):
        table = LeaseTable(ttl_s=1.0, clock=VirtualClock())
        with pytest.raises(LeaseError):
            table.renew(7)

    def test_ttl_must_be_positive(self):
        with pytest.raises(ValueError):
            LeaseTable(ttl_s=0.0, clock=VirtualClock())


class TestCrashSchedule:
    def test_builders_and_lookup(self):
        schedule = (
            CrashSchedule()
            .kill(1, 1, after_locations=2)
            .freeze(0, 2, after_locations=1)
        )
        assert len(schedule) == 2
        assert schedule.action_for(1, 1) == CrashAction("sigkill", 2)
        assert schedule.action_for(0, 2) == CrashAction("freeze", 1)
        assert schedule.action_for(1, 2) is None

    def test_seeded_kills_deterministic(self):
        a = CrashSchedule.seeded_kills(8, seed=42, fraction=0.5)
        b = CrashSchedule.seeded_kills(8, seed=42, fraction=0.5)
        assert a._plan == b._plan
        assert a._plan != CrashSchedule.seeded_kills(8, seed=43)._plan

    def test_action_validation(self):
        with pytest.raises(ValueError):
            CrashAction("explode")
        with pytest.raises(ValueError):
            CrashAction("sigkill", after_locations=-1)


class TestCoordinatedRun:
    def test_byte_identical_to_serial_and_audited(
        self, tmp_path, county, clients
    ):
        serial = _decoder(county, clients).survey(
            locations=plan_survey_points([county], 10, seed=0)
        )
        tracer = Tracer()
        with use_metrics(MetricsRegistry()), use_tracer(tracer):
            result = _coordinator(tmp_path, county, clients).run()
            report = result.report
            assert report.to_json() == serial.to_json()
            assert report.payload() == serial.payload()
            assert report.fees_usd == serial.fees_usd
            assert reconcile_survey(report) == []
        assert audit_trace(tracer, required_names=COORDINATOR_STAGES) == []
        assert result.workers_spawned == 4  # ceil(10 / 3) shards
        assert result.requeues == 0
        assert result.shard_counts["completed"] == 4

    def test_resume_of_finished_run_spawns_nothing(
        self, tmp_path, county, clients
    ):
        with use_metrics(MetricsRegistry()):
            first = _coordinator(tmp_path, county, clients).run()
            again = _coordinator(tmp_path, county, clients).run(resume=True)
        assert first.workers_spawned == 4
        assert again.workers_spawned == 0  # nothing re-dispatched, no re-bill
        assert again.report.to_json() == first.report.to_json()

    def test_fresh_run_wipes_prior_state(self, tmp_path, county, clients):
        with use_metrics(MetricsRegistry()):
            first = _coordinator(tmp_path, county, clients).run()
            second = _coordinator(tmp_path, county, clients).run()
        assert first.workers_spawned == second.workers_spawned == 4
        assert second.report.to_json() == first.report.to_json()

    def test_resume_with_changed_plan_refuses(
        self, tmp_path, county, clients
    ):
        with use_metrics(MetricsRegistry()):
            _coordinator(tmp_path, county, clients).run()
            with pytest.raises(ManifestMismatchError):
                _coordinator(
                    tmp_path, county, clients, n_locations=12
                ).plan(resume=True)

    def test_crashing_shard_requeued_then_completes(
        self, tmp_path, county, clients
    ):
        serial = _decoder(county, clients).survey(
            locations=plan_survey_points([county], 10, seed=0)
        )
        schedule = CrashSchedule().kill(1, 1, after_locations=1)
        with use_metrics(MetricsRegistry()):
            result = _coordinator(
                tmp_path, county, clients, crash_schedule=schedule
            ).run()
        assert result.requeues == 1
        assert result.workers_spawned == 5
        assert result.report.to_json() == serial.to_json()
        assert reconcile_survey(result.report) == []

    def test_poison_shard_quarantined_and_salvaged(
        self, tmp_path, county, clients
    ):
        schedule = (
            CrashSchedule()
            .kill(0, 1, after_locations=1)
            .kill(0, 2, after_locations=1)
        )
        with use_metrics(MetricsRegistry()):
            result = _coordinator(
                tmp_path,
                county,
                clients,
                crash_schedule=schedule,
                max_attempts=2,
            ).run()
        report = result.report
        assert result.quarantined == (0,)
        assert result.shard_counts["quarantined"] == 1
        # Attempt 1 checkpointed 1 location, attempt 2 one more: both
        # salvaged; the third degrades to a failed row.
        assert report.completed_locations == 9
        assert len(report.failed_locations) == 1
        assert "quarantined after 2 attempts" in (
            report.failed_locations[0].reason
        )
        assert report.coverage == pytest.approx(0.9)
        assert reconcile_survey(report) == []

    def test_quarantined_shard_resumes_with_fresh_budget(
        self, tmp_path, county, clients
    ):
        serial = _decoder(county, clients).survey(
            locations=plan_survey_points([county], 10, seed=0)
        )
        schedule = CrashSchedule().kill(0, 1).kill(0, 2)
        with use_metrics(MetricsRegistry()):
            crashed = _coordinator(
                tmp_path,
                county,
                clients,
                crash_schedule=schedule,
                max_attempts=2,
            ).run()
            assert crashed.quarantined == (0,)
            resumed = _coordinator(tmp_path, county, clients).run(
                resume=True
            )
        assert resumed.report.to_json() == serial.to_json()
        # Only the quarantined shard was re-dispatched.
        assert resumed.workers_spawned == 1

    def test_empty_frame_refused(self, tmp_path, county, clients):
        coordinator = _coordinator(tmp_path, county, clients)
        coordinator.n_locations = 0
        with pytest.raises((CoordinatorError, ValueError)):
            coordinator.plan()

    def test_requires_decoder(self, tmp_path, county):
        with pytest.raises(ValueError):
            SurveyCoordinator(
                state_dir=tmp_path,
                counties=[county],
                n_locations=4,
            )


class TestWorkerArtifacts:
    def test_shard_files_survive_and_validate(
        self, tmp_path, county, clients
    ):
        with use_metrics(MetricsRegistry()):
            coordinator = _coordinator(tmp_path, county, clients)
            coordinator.run()
        manifest = coordinator.manifest
        for record in manifest.shards:
            ckpt = checkpoint_path(coordinator.state_dir, record.shard_id)
            res = result_path(coordinator.state_dir, record.shard_id)
            assert ckpt.exists() and res.exists()
            payload = json.loads(res.read_text())
            assert payload["fingerprint"] == manifest.fingerprint
            assert payload["shard_id"] == record.shard_id
            assert payload["completed"] == record.size

    def test_tampered_result_demotes_on_resume(
        self, tmp_path, county, clients
    ):
        with use_metrics(MetricsRegistry()):
            coordinator = _coordinator(tmp_path, county, clients)
            coordinator.run()
            result_path(coordinator.state_dir, 2).write_text("garbage")
            resumed = _coordinator(tmp_path, county, clients).run(
                resume=True
            )
        # The demoted shard re-ran (from its intact checkpoint: no
        # re-billing) and the merged report is whole again.
        assert resumed.workers_spawned == 1
        assert resumed.report.completed_locations == 10


class TestFencing:
    def test_expired_lease_fences_the_worker(self, tmp_path, county, clients):
        """A frozen worker (beats stopped) is SIGKILLed, not waited on."""
        schedule = CrashSchedule().freeze(0, 1, after_locations=1)
        started = time.monotonic()
        with use_metrics(MetricsRegistry()):
            result = _coordinator(
                tmp_path,
                county,
                clients,
                crash_schedule=schedule,
                lease_ttl_s=1.5,
                heartbeat_interval_s=0.2,
            ).run()
        assert result.lease_expiries == 1
        assert result.requeues == 1
        assert result.report.completed_locations == 10
        # Fencing must not have waited for the frozen worker to finish
        # (it never would); generous bound to absorb slow CI hosts.
        assert time.monotonic() - started < 60.0
        assert not _any_orphan_children()


def _any_orphan_children() -> bool:
    """True if this process still has live multiprocessing children."""
    return any(
        child.is_alive() for child in multiprocessing.active_children()
    )


class TestCoordinateCLI:
    def test_noop_resume_of_finished_run_exits_clean(
        self, tmp_path, capsys
    ):
        """Resuming a finished run spawns no workers — the trace then
        has no ``coordinate.shard`` span, which must read as a clean
        no-op, not a missing-stage audit failure."""
        from repro.cli import main

        argv = [
            "coordinate",
            "--locations",
            "6",
            "--shards",
            "2",
            "--state-dir",
            str(tmp_path / "state"),
            "--trace-out",
            str(tmp_path / "trace.jsonl"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "workers spawned 0" in out
        assert "coordination audit ok" in out
