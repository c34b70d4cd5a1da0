"""What runs inside one shard worker process.

A worker is a forked child of the coordinator (POSIX ``fork`` start
method, so the parent-built decoder — calibrated clients and all — is
inherited copy-on-write instead of being rebuilt or pickled).  Its
contract is deliberately minimal:

1. verify its points match the manifest digest (a mismatched shard is
   a bug, not a fault — crash loudly and let the budget quarantine it);
2. heartbeat to ``heartbeats/shard_NNNN.hb`` on a daemon thread so the
   coordinator can tell wedged from working;
3. run the shard through
   :meth:`~repro.core.pipeline.NeighborhoodDecoder.survey` at window 1
   with a per-shard :class:`~repro.resilience.checkpoint.SurveyCheckpoint`
   (provenance recording needs one location at a time, and
   cross-shard parallelism is the coordinator's job);
4. write ``shards/shard_NNNN.result.json`` atomically+durably, then
   exit 0.

Everything else — leases, retries of the whole shard, quarantine,
merging — belongs to the coordinator.  A worker that dies at any
point leaves only (a) a valid checkpoint prefix and (b) no result
file, which is exactly the state a re-dispatch resumes from.

Heartbeat timestamps use ``time.monotonic()``: on Linux
``CLOCK_MONOTONIC`` is system-wide, so the parent can compare a
child's reading against its own clock without trusting wall time.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ..geo.sampling import SamplePoint
from ..obs.metrics import get_metrics
from ..resilience.checkpoint import SurveyCheckpoint
from ..resilience.retry import RetryStats
from .chaos import ChaosCheckpoint, CrashAction, execute_crash
from .manifest import atomic_write_json, points_digest

if TYPE_CHECKING:  # the decoder rides the task object, not an import
    from ..core.pipeline import NeighborhoodDecoder

__all__ = [
    "RESULT_FORMAT_VERSION",
    "ShardTask",
    "checkpoint_path",
    "heartbeat_path",
    "read_heartbeat",
    "result_path",
    "run_shard",
]

RESULT_FORMAT_VERSION = 1


def checkpoint_path(state_dir: str | Path, shard_id: int) -> Path:
    return Path(state_dir) / "shards" / f"shard_{shard_id:04d}.ckpt.json"


def result_path(state_dir: str | Path, shard_id: int) -> Path:
    return Path(state_dir) / "shards" / f"shard_{shard_id:04d}.result.json"


def heartbeat_path(state_dir: str | Path, shard_id: int) -> Path:
    return Path(state_dir) / "heartbeats" / f"shard_{shard_id:04d}.hb"


def shard_checkpoint_key(fingerprint: str, shard_id: int, digest: str) -> dict:
    """The identity a shard checkpoint is keyed by.

    Embedding the plan fingerprint means a checkpoint from a previous,
    differently-configured run raises
    :class:`~repro.resilience.checkpoint.CheckpointMismatchError`
    instead of being silently resumed into the wrong survey.
    """
    return {
        "fingerprint": fingerprint,
        "shard_id": shard_id,
        "digest": digest,
    }


@dataclass
class ShardTask:
    """Everything one worker attempt needs, bundled for the fork."""

    shard_id: int
    attempt: int
    points: list[SamplePoint]
    digest: str
    fingerprint: str
    state_dir: str
    heartbeat_interval_s: float
    decoder: "NeighborhoodDecoder | None" = None
    crash: CrashAction | None = None


def write_heartbeat(
    path: Path, shard_id: int, attempt: int, seq: int
) -> None:
    """One liveness beat: atomic so the reader never sees a torn file."""
    payload = json.dumps(
        {
            "shard_id": shard_id,
            "attempt": attempt,
            "seq": seq,
            "t": time.monotonic(),
        }
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(payload, encoding="utf-8")
    tmp.replace(path)


def read_heartbeat(path: Path) -> dict | None:
    """Parse the latest beat; any unreadability reads as silence."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or "t" not in payload:
        return None
    return payload


def run_shard(task: ShardTask) -> None:
    """Process entry point for one shard attempt (see module docs)."""
    registry = get_metrics()
    before = registry.snapshot()

    stop_beats = threading.Event()
    hb_path = heartbeat_path(task.state_dir, task.shard_id)

    def beat_loop() -> None:
        seq = 0
        while not stop_beats.is_set():
            write_heartbeat(hb_path, task.shard_id, task.attempt, seq)
            seq += 1
            stop_beats.wait(task.heartbeat_interval_s)

    beats = threading.Thread(target=beat_loop, daemon=True)
    beats.start()

    if task.decoder is None:
        raise ValueError(f"shard {task.shard_id}: task carries no decoder")
    if points_digest(task.points) != task.digest:
        raise ValueError(
            f"shard {task.shard_id}: points do not match manifest digest"
        )
    if task.crash is not None and task.crash.after_locations <= 0:
        # "Crash before any progress" — triggered here rather than in
        # the checkpoint so a zero-progress crash needs no record().
        execute_crash(task.crash, on_freeze=stop_beats.set)

    key = shard_checkpoint_key(task.fingerprint, task.shard_id, task.digest)
    ckpt_path = checkpoint_path(task.state_dir, task.shard_id)
    if task.crash is not None:
        store: SurveyCheckpoint = ChaosCheckpoint(
            ckpt_path, key, task.crash, on_freeze=stop_beats.set
        )
    else:
        store = SurveyCheckpoint(ckpt_path, key)

    prior = set(store.completed_indices)
    report = task.decoder.survey(
        locations=task.points,
        checkpoint_store=store,
        keep_locations=False,
    )

    # Retry provenance: what the *fresh* completions of this attempt
    # recorded in their payloads, subtracted from the attempt's total,
    # leaves the fault handling spent on locations that ultimately
    # failed — the merge needs that remainder to reconstruct canonical
    # run-wide retry stats.
    fresh_total = RetryStats()
    for index in store.completed_indices:
        if index in prior:
            continue
        fresh_total.merge(
            RetryStats.from_dict(store.get(index).get("retry", {}))
        )
    failed_remainder = report.retry_stats.subtract(fresh_total)

    if len(store) + len(report.failed_locations) != len(task.points):
        raise RuntimeError(
            f"shard {task.shard_id}: durable records do not cover the "
            f"shard ({len(store)} checkpointed + "
            f"{len(report.failed_locations)} failed != {len(task.points)})"
        )

    stop_beats.set()
    atomic_write_json(
        result_path(task.state_dir, task.shard_id),
        {
            "format_version": RESULT_FORMAT_VERSION,
            "fingerprint": task.fingerprint,
            "shard_id": task.shard_id,
            "attempt": task.attempt,
            "completed": len(store),
            "failed": [
                {
                    "index": failed.index,
                    "latitude": failed.latitude,
                    "longitude": failed.longitude,
                    "reason": failed.reason,
                }
                for failed in report.failed_locations
            ],
            "failed_retry": failed_remainder.as_dict(),
            "fees_usd": round(report.fees_usd, 9),
            "metrics": registry.delta_since(before),
        },
    )
