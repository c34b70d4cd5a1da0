"""Durable service state: the fsynced job manifest and per-job files.

One JSON manifest (``<state_dir>/service.json``) holds every job
record, the per-tenant fee ledger, and the submission sequence — the
whole restart-critical state of a daemon.  Every mutation rewrites it
through :func:`~repro.durable.atomic_write_json` (temp file + fsync +
rename + directory fsync): the file on disk is always the last
*complete* document, so a daemon killed mid-write restarts from the
previous consistent state.

Per-job survey progress does **not** live here — it rides the
existing per-location :class:`~repro.resilience.checkpoint.SurveyCheckpoint`
under ``<state_dir>/checkpoints/``, which is also the billing source
of truth: :func:`canonical_fees_usd` re-accumulates a job's imagery
bill from the checkpoint's durable per-location image counts, so
however many attempts a job burned, each completed location is billed
exactly once.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..durable import atomic_write_json
from ..gsv.api import FEE_PER_IMAGE_USD
from ..resilience.checkpoint import SurveyCheckpoint
from .jobs import JobRecord, JobSpec, ServiceError

__all__ = [
    "FORMAT_VERSION",
    "JobStore",
    "ServiceStoreError",
    "canonical_fees_usd",
    "checkpoint_key",
]

FORMAT_VERSION = 1


class ServiceStoreError(ServiceError):
    """The service manifest on disk is unreadable or inconsistent."""


def checkpoint_key(spec: JobSpec, county_name: str) -> dict:
    """The engine's checkpoint identity for a job's survey.

    Must match :meth:`NeighborhoodDecoder._open_checkpoint` exactly —
    the daemon opens the store itself (to tap progress through
    ``record`` calls) and hands it to the engine, so a drifting key
    would make resumption silently impossible.
    """
    return {
        "county": county_name,
        "n_locations": spec.n_locations,
        "seed": spec.seed,
    }


def canonical_fees_usd(path: Path, key: dict) -> float:
    """A job's exactly-once imagery bill, rebuilt from durable records.

    The same arithmetic as a survey report's fee sum: one
    ``FEE_PER_IMAGE_USD`` addition per recorded image, in location
    order.  Crashed attempts left no trace here except the locations
    they completed — which is precisely what the tenant should pay
    for.  Returns 0.0 when the job never checkpointed anything.
    """
    if not path.exists():
        return 0.0
    store = SurveyCheckpoint(path, key)
    fees = 0.0
    for index in store.completed_indices:
        for _ in range(int(store.get(index).get("images", 0))):
            fees += FEE_PER_IMAGE_USD
    return round(fees, 9)


class JobStore:
    """Load/persist the daemon's manifest; hand out per-job paths."""

    def __init__(self, state_dir: str | Path) -> None:
        self.state_dir = Path(state_dir)
        self.manifest_path = self.state_dir / "service.json"
        self.checkpoint_dir = self.state_dir / "checkpoints"
        self.report_dir = self.state_dir / "reports"
        self.records: dict[str, JobRecord] = {}
        self.ledger: dict[str, dict] = {}
        self.next_seq = 0
        if self.manifest_path.exists():
            self._load()

    # -- paths ----------------------------------------------------------

    def checkpoint_path(self, job_id: str) -> Path:
        return self.checkpoint_dir / f"{job_id}.json"

    def report_path(self, job_id: str) -> Path:
        return self.report_dir / f"{job_id}.json"

    # -- persistence ----------------------------------------------------

    def _load(self) -> None:
        try:
            payload = json.loads(self.manifest_path.read_text())
        except (OSError, ValueError) as err:
            raise ServiceStoreError(
                f"service manifest at {self.manifest_path} is unreadable: "
                f"{err}"
            ) from err
        if payload.get("format_version") != FORMAT_VERSION:
            raise ServiceStoreError(
                "unsupported service manifest version: "
                f"{payload.get('format_version')!r}"
            )
        try:
            self.records = {
                entry["job_id"]: JobRecord.from_dict(entry)
                for entry in payload["jobs"]
            }
            self.ledger = dict(payload.get("ledger", {}))
            self.next_seq = int(payload["next_seq"])
        except (KeyError, TypeError, ValueError) as err:
            raise ServiceStoreError(
                f"service manifest at {self.manifest_path} is mangled: {err}"
            ) from err

    def flush(self) -> None:
        """Persist the whole manifest durably (fsynced atomic write).

        Called on every job mutation.  Writing the full document keeps
        settlement atomic with the terminal transition it belongs to:
        a crash leaves either both on disk or neither, never a settled
        fee for a job still RUNNING.
        """
        jobs = [
            record.to_dict()
            for record in sorted(self.records.values(), key=lambda r: r.seq)
        ]
        atomic_write_json(
            self.manifest_path,
            {
                "format_version": FORMAT_VERSION,
                "jobs": jobs,
                "ledger": self.ledger,
                "next_seq": self.next_seq,
            },
        )

    def allocate(self, spec: JobSpec, submitted_at: float) -> JobRecord:
        """Mint the next job record (not yet flushed)."""
        seq = self.next_seq
        self.next_seq += 1
        record = JobRecord(
            job_id=f"job-{seq:04d}",
            spec=spec,
            seq=seq,
            submitted_at=submitted_at,
        )
        self.records[record.job_id] = record
        return record

    def write_report(self, job_id: str, report_payload: dict) -> Path:
        """Persist a job's final report document (fsynced, atomic)."""
        path = self.report_path(job_id)
        atomic_write_json(
            path, {"job_id": job_id, "report": report_payload}
        )
        return path

    def read_report(self, job_id: str) -> dict | None:
        path = self.report_path(job_id)
        if not path.exists():
            return None
        return json.loads(path.read_text())["report"]
