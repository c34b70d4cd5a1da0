"""The crash-safe survey supervisor: plan, lease, fence, merge.

:class:`SurveyCoordinator` turns a county-scale sampling frame into a
durable :class:`~repro.coordinator.manifest.ShardManifest`, drives its
shards through forked worker processes under expiring leases, and
merges the survivors' durable records into one canonical
:class:`~repro.core.pipeline.SurveyReport`.  The contract it defends:

* **Crash-invariance** — SIGKILL any worker, or the whole coordinator,
  at any instant; a resumed run completes and its merged report is
  byte-identical to an undisturbed serial survey of the same frame.
* **No re-billing** — a location checkpointed by any attempt is never
  decoded (or billed) again; re-dispatch resumes from the durable
  prefix.
* **Bounded poison** — a shard that keeps killing its workers is
  QUARANTINED after ``max_attempts`` dispatches and degrades to
  ``failed_locations`` rows instead of wedging the run.

Workers are forked (POSIX ``fork`` start method), so the parent-built
decoder is inherited copy-on-write: no pickling, no per-worker model
rebuild, and — because ``fork`` snapshots the parent — every attempt
starts from the identical pristine decoder state, which is one of the
pillars of byte-identity.  The coordinator itself stays single-threaded
precisely so those forks are safe.

Straggler detection is lease-based (:mod:`repro.coordinator.lease`):
workers heartbeat to advisory files, fresh beats renew the lease, and
a lease that expires gets its worker *fenced* — SIGKILL, never a
polite request — before the shard is re-dispatched.  Fencing is what
makes re-dispatch safe: a wedged worker that woke up later could
otherwise double-write its shard's result.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from ..core.pipeline import NeighborhoodDecoder, SurveyReport
from ..geo.county import County
from ..geo.sampling import SamplePoint, plan_survey_points
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from ..resilience.clock import Clock, WallClock
from .chaos import CrashSchedule
from .lease import LeaseTable
from .manifest import (
    MANIFEST_FILENAME,
    ManifestCorruptError,
    ManifestMismatchError,
    ShardManifest,
    ShardRecord,
    ShardState,
    plan_fingerprint,
    points_digest,
)
from .merge import merge_shards
from .worker import (
    RESULT_FORMAT_VERSION,
    ShardTask,
    heartbeat_path,
    read_heartbeat,
    result_path,
    run_shard,
)

__all__ = ["CoordinationResult", "CoordinatorError", "SurveyCoordinator"]


class CoordinatorError(RuntimeError):
    """The coordinated run cannot proceed as configured."""


@dataclass
class CoordinationResult:
    """What one coordinated run did, beyond the report itself."""

    report: SurveyReport
    manifest: ShardManifest
    workers_spawned: int = 0
    requeues: int = 0
    lease_expiries: int = 0
    quarantined: tuple[int, ...] = ()
    shard_counts: dict = field(default_factory=dict)


@dataclass
class _ActiveWorker:
    """Parent-side handle on one live shard attempt."""

    proc: "multiprocessing.process.BaseProcess"
    record: ShardRecord
    last_beat_t: float | None = None


def _child_main(task: ShardTask, decoder_factory) -> None:
    """Worker-process entry: resolve the decoder, then run the shard."""
    if task.decoder is None and decoder_factory is not None:
        task.decoder = decoder_factory()
    run_shard(task)


class SurveyCoordinator:
    """Supervise a sharded, crash-safe survey of one or many counties.

    Parameters mirror the CLI flags: ``shard_size`` (locations per
    shard), ``max_workers`` (concurrent shard processes),
    ``lease_ttl_s`` (heartbeat silence tolerated before fencing),
    ``max_attempts`` (dispatches per shard before quarantine).  Pass a
    pre-built ``decoder`` to fork-inherit it (the fast path), or a
    ``decoder_factory`` to build one inside each worker.  ``clock``
    and ``crash_schedule`` exist for tests and drills.
    """

    def __init__(
        self,
        *,
        state_dir: str | Path,
        counties: list[County],
        n_locations: int,
        seed: int = 0,
        decoder: NeighborhoodDecoder | None = None,
        decoder_factory=None,
        shard_size: int = 32,
        max_workers: int = 2,
        lease_ttl_s: float = 30.0,
        heartbeat_interval_s: float | None = None,
        poll_interval_s: float = 0.02,
        max_attempts: int = 3,
        keep_locations: bool = True,
        clock: Clock | None = None,
        crash_schedule: CrashSchedule | None = None,
    ) -> None:
        if decoder is None and decoder_factory is None:
            raise ValueError("need a decoder or a decoder_factory")
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1: {max_workers}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {max_attempts}")
        self.state_dir = Path(state_dir)
        self.counties = counties
        self.n_locations = n_locations
        self.seed = seed
        self.decoder = decoder
        self.decoder_factory = decoder_factory
        self.shard_size = shard_size
        self.max_workers = max_workers
        self.lease_ttl_s = lease_ttl_s
        self.heartbeat_interval_s = (
            heartbeat_interval_s
            if heartbeat_interval_s is not None
            else max(lease_ttl_s / 4.0, 0.01)
        )
        self.poll_interval_s = poll_interval_s
        self.max_attempts = max_attempts
        self.keep_locations = keep_locations
        self.clock: Clock = clock if clock is not None else WallClock()
        self.crash_schedule = crash_schedule
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as err:  # pragma: no cover - non-POSIX
            raise CoordinatorError(
                "the coordinator requires the fork start method"
            ) from err
        self.points: list[SamplePoint] = []
        self.manifest: ShardManifest | None = None

    # -- planning ------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.state_dir / MANIFEST_FILENAME

    def plan(self, resume: bool = False) -> ShardManifest:
        """Plan the frame and adopt, normalize, or replace prior state.

        * no manifest → fresh plan;
        * fingerprint mismatch → ``resume`` raises
          :class:`~repro.coordinator.manifest.ManifestMismatchError`
          (the operator asked to continue a run that no longer exists),
          a fresh start wipes the stale state and replans;
        * match without ``resume`` → start over (wipe shard state);
        * match with ``resume`` → normalize: LEASED demotes to PENDING
          (those workers are gone; attempts already counted), COMPLETED
          without a valid result document demotes to PENDING, and
          QUARANTINED returns to PENDING with a *fresh* attempt budget —
          an explicit resume is the operator asking to try again.
        """
        self.points = plan_survey_points(
            self.counties, self.n_locations, seed=self.seed
        )
        if not self.points:
            raise CoordinatorError(
                "sampling frame is empty: no roads produced any points"
            )
        fingerprint = plan_fingerprint(
            counties=[county.name for county in self.counties],
            n_locations=self.n_locations,
            seed=self.seed,
            shard_size=self.shard_size,
            frame_digest=points_digest(self.points),
        )
        existing = self._load_existing(resume, fingerprint)
        if existing is not None:
            self.manifest = existing
            if resume:
                self._normalize_for_resume(existing)
            return existing
        self._wipe_shard_state()
        manifest = ShardManifest.plan_shards(
            self.manifest_path,
            self.points,
            self.shard_size,
            fingerprint,
            plan={
                "counties": [county.name for county in self.counties],
                "n_locations": self.n_locations,
                "seed": self.seed,
                "shard_size": self.shard_size,
            },
        )
        manifest.save()
        self.manifest = manifest
        return manifest

    def _load_existing(
        self, resume: bool, fingerprint: str
    ) -> ShardManifest | None:
        try:
            manifest = ShardManifest.load(self.manifest_path)
        except FileNotFoundError:
            return None
        except ManifestCorruptError:
            if resume:
                raise
            return None
        if manifest.fingerprint != fingerprint:
            if resume:
                raise ManifestMismatchError(
                    "manifest on disk was planned from a different "
                    f"config/frame (have {manifest.fingerprint[:12]}…, "
                    f"want {fingerprint[:12]}…)"
                )
            return None
        if not resume:
            return None
        return manifest

    def _normalize_for_resume(self, manifest: ShardManifest) -> None:
        changed = False
        for record in manifest.shards:
            if record.state is ShardState.LEASED:
                record.state = ShardState.PENDING
                record.worker = None
                record.lease_expires_s = None
                changed = True
            elif record.state is ShardState.COMPLETED:
                if not self._valid_result(record):
                    record.state = ShardState.PENDING
                    record.worker = None
                    record.lease_expires_s = None
                    changed = True
            elif record.state is ShardState.QUARANTINED:
                record.state = ShardState.PENDING
                record.attempts = 0
                record.error = None
                changed = True
        if changed:
            manifest.save()

    def _wipe_shard_state(self) -> None:
        shutil.rmtree(self.state_dir / "shards", ignore_errors=True)
        shutil.rmtree(self.state_dir / "heartbeats", ignore_errors=True)
        self.manifest_path.unlink(missing_ok=True)

    # -- supervision ---------------------------------------------------

    def run(self, resume: bool = False) -> CoordinationResult:
        """Drive every shard to COMPLETED or QUARANTINED, then merge."""
        manifest = self.plan(resume=resume)
        tracer = get_tracer()
        metrics = get_metrics()
        leases = LeaseTable(self.lease_ttl_s, self.clock)
        active: dict[int, _ActiveWorker] = {}
        result = CoordinationResult(
            report=SurveyReport(), manifest=manifest
        )
        quarantined: list[int] = []

        with tracer.span(
            "coordinate",
            counties=[county.name for county in self.counties],
            n_locations=self.n_locations,
            shards=len(manifest.shards),
            resume=resume,
        ) as root:
            while True:
                self._dispatch(manifest, leases, active, metrics, result)
                if not active and manifest.finished:
                    break
                self._poll(
                    manifest,
                    leases,
                    active,
                    metrics,
                    result,
                    quarantined,
                    tracer,
                    root,
                )
                if active or not manifest.finished:
                    self.clock.sleep(self.poll_interval_s)
            with tracer.span("coordinate.merge", parent=root) as span:
                report = merge_shards(
                    manifest,
                    self.state_dir,
                    self.points,
                    keep_locations=self.keep_locations,
                )
                span.set(
                    completed=report.completed_locations,
                    failed=len(report.failed_locations),
                )
            root.set(counts=manifest.counts())

        # The merged delta becomes part of the parent's books, so
        # reconcile_survey audits the coordinated run exactly like a
        # single-process survey.
        metrics.merge(report.metrics)
        result.report = report
        result.quarantined = tuple(quarantined)
        result.shard_counts = manifest.counts()
        return result

    def _dispatch(
        self,
        manifest: ShardManifest,
        leases: LeaseTable,
        active: dict[int, _ActiveWorker],
        metrics,
        result: CoordinationResult,
    ) -> None:
        for record in manifest.in_state(ShardState.PENDING):
            if len(active) >= self.max_workers:
                return
            attempt = record.attempts + 1
            worker_name = f"worker-{record.shard_id:04d}-a{attempt}"
            lease = leases.claim(record.shard_id, worker_name)
            record.attempts = attempt
            record.state = ShardState.LEASED
            record.worker = worker_name
            record.lease_expires_s = lease.expires_s
            manifest.save()
            # Stale result/heartbeat files from a previous attempt must
            # not be mistaken for this attempt's output.  The shard
            # *checkpoint* stays — resuming it is the whole point.
            result_path(self.state_dir, record.shard_id).unlink(
                missing_ok=True
            )
            heartbeat_path(self.state_dir, record.shard_id).unlink(
                missing_ok=True
            )
            crash = (
                self.crash_schedule.action_for(record.shard_id, attempt)
                if self.crash_schedule is not None
                else None
            )
            task = ShardTask(
                shard_id=record.shard_id,
                attempt=attempt,
                points=self.points[record.start : record.stop],
                digest=record.digest,
                fingerprint=manifest.fingerprint,
                state_dir=str(self.state_dir),
                heartbeat_interval_s=self.heartbeat_interval_s,
                decoder=self.decoder,
                crash=crash,
            )
            proc = self._ctx.Process(
                target=_child_main,
                args=(task, self.decoder_factory),
                name=worker_name,
            )
            proc.start()
            metrics.inc("coord.workers.spawned")
            result.workers_spawned += 1
            active[record.shard_id] = _ActiveWorker(
                proc=proc, record=record
            )

    def _poll(
        self,
        manifest: ShardManifest,
        leases: LeaseTable,
        active: dict[int, _ActiveWorker],
        metrics,
        result: CoordinationResult,
        quarantined: list[int],
        tracer,
        root,
    ) -> None:
        now = self.clock.now()
        for shard_id, worker in list(active.items()):
            record = worker.record
            if not worker.proc.is_alive():
                worker.proc.join()
                exitcode = worker.proc.exitcode
                if exitcode == 0 and self._valid_result(record):
                    record.state = ShardState.COMPLETED
                    record.worker = None
                    record.lease_expires_s = None
                    record.error = None
                    leases.release(shard_id)
                    manifest.save()
                    outcome = "completed"
                else:
                    outcome = self._requeue_or_quarantine(
                        manifest,
                        leases,
                        record,
                        f"worker died (exit {exitcode})",
                        metrics,
                        result,
                        quarantined,
                    )
                del active[shard_id]
                self._shard_span(tracer, root, record, outcome)
                continue
            beat = read_heartbeat(
                heartbeat_path(self.state_dir, shard_id)
            )
            if beat is not None and beat["t"] != worker.last_beat_t:
                worker.last_beat_t = beat["t"]
                lease = leases.renew(shard_id)
                record.lease_expires_s = lease.expires_s
            lease = leases.active(shard_id)
            if lease is not None and lease.expired(now):
                # Fence before re-dispatch: a wedged worker that woke
                # up later must never double-write its shard.
                worker.proc.kill()
                worker.proc.join()
                metrics.inc("coord.leases.expired")
                result.lease_expiries += 1
                outcome = self._requeue_or_quarantine(
                    manifest,
                    leases,
                    record,
                    "lease expired (heartbeats went silent)",
                    metrics,
                    result,
                    quarantined,
                )
                del active[shard_id]
                self._shard_span(tracer, root, record, outcome)

    def _requeue_or_quarantine(
        self,
        manifest: ShardManifest,
        leases: LeaseTable,
        record: ShardRecord,
        reason: str,
        metrics,
        result: CoordinationResult,
        quarantined: list[int],
    ) -> str:
        leases.release(record.shard_id)
        record.worker = None
        record.lease_expires_s = None
        record.error = reason
        if record.attempts >= self.max_attempts:
            record.state = ShardState.QUARANTINED
            metrics.inc("coord.shards.quarantined")
            quarantined.append(record.shard_id)
            outcome = "quarantined"
        else:
            record.state = ShardState.PENDING
            metrics.inc("coord.shards.requeued")
            result.requeues += 1
            outcome = "requeued"
        manifest.save()
        return outcome

    @staticmethod
    def _shard_span(tracer, root, record: ShardRecord, outcome: str) -> None:
        with tracer.span(
            "coordinate.shard",
            parent=root,
            shard=record.shard_id,
            attempt=record.attempts,
            outcome=outcome,
        ):
            pass

    def _valid_result(self, record: ShardRecord) -> bool:
        """Does a durable, internally consistent result document exist?

        A crashed worker leaves no result file (it is written once,
        atomically, as the final act); a stale or foreign one fails the
        fingerprint/attempt checks.  Either way the shard is not done.
        """
        path = result_path(self.state_dir, record.shard_id)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return False
        if not isinstance(payload, dict):
            return False
        manifest = self.manifest
        fingerprint = manifest.fingerprint if manifest else None
        if payload.get("format_version") != RESULT_FORMAT_VERSION:
            return False
        if payload.get("fingerprint") != fingerprint:
            return False
        if payload.get("shard_id") != record.shard_id:
            return False
        completed = payload.get("completed")
        failed = payload.get("failed")
        if not isinstance(completed, int) or not isinstance(failed, list):
            return False
        return completed + len(failed) == record.size
