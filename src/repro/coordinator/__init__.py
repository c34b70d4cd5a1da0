"""Crash-safe sharded survey coordination.

County-scale surveys run for hours and bill real money per image; a
crash that loses progress — or worse, re-bills it — is not acceptable.
This package supervises a survey as a fleet of forked shard workers
over a durable manifest:

* :mod:`~repro.coordinator.manifest` — the fsynced document of record
  (plan fingerprint, shard lifecycle states);
* :mod:`~repro.coordinator.lease` — expiring leases + heartbeat
  renewal, the straggler-detection state machine;
* :mod:`~repro.coordinator.worker` — what runs inside one worker
  process (a checkpointed window-1 ``survey`` + heartbeats + an atomic
  result document);
* :mod:`~repro.coordinator.merge` — deterministic reconstruction of
  the canonical report from durable records only;
* :mod:`~repro.coordinator.chaos` — scripted worker deaths for
  drills (SIGKILL / heartbeat freeze at deterministic points);
* :mod:`~repro.coordinator.coordinator` — the supervisor tying it
  together.

See DESIGN.md §12 for the full state machine and invariants, and
``repro coordinate --drill`` for the self-checking chaos drill.
"""

from .chaos import ChaosCheckpoint, CrashAction, CrashSchedule
from .coordinator import (
    CoordinationResult,
    CoordinatorError,
    SurveyCoordinator,
)
from .lease import Lease, LeaseError, LeaseTable
from .manifest import (
    ManifestCorruptError,
    ManifestMismatchError,
    ShardManifest,
    ShardRecord,
    ShardState,
    atomic_write_json,
    plan_fingerprint,
    points_digest,
)
from .merge import CoordinatorMergeError, merge_shards
from .worker import (
    ShardTask,
    checkpoint_path,
    heartbeat_path,
    read_heartbeat,
    result_path,
    run_shard,
)

__all__ = [
    "ChaosCheckpoint",
    "CoordinationResult",
    "CoordinatorError",
    "CoordinatorMergeError",
    "CrashAction",
    "CrashSchedule",
    "Lease",
    "LeaseError",
    "LeaseTable",
    "ManifestCorruptError",
    "ManifestMismatchError",
    "ShardManifest",
    "ShardRecord",
    "ShardState",
    "ShardTask",
    "SurveyCoordinator",
    "atomic_write_json",
    "checkpoint_path",
    "heartbeat_path",
    "merge_shards",
    "plan_fingerprint",
    "points_digest",
    "read_heartbeat",
    "result_path",
    "run_shard",
]
