"""Durable writes: the one fsynced atomic-replace idiom.

The daemon's restart-critical documents (the job manifest, each DONE
job's report, :class:`~repro.service.sinks.ReportDirSink` files) are
rare, high-value writes: losing one loses books, and a torn one must
never be read back.  They all go through :func:`atomic_write_json`.
Per-location survey checkpoints do not — they are an append-only log
that drops a torn tail instead (see :mod:`repro.resilience.checkpoint`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["atomic_write_json"]


def atomic_write_json(path: str | Path, payload: dict) -> None:
    """Durable atomic JSON write: temp file + fsync + rename + dir fsync.

    The rename makes the update atomic (readers see old or new, never
    torn); the fsyncs make it durable (a machine crash after return
    cannot roll it back).  Used for the daemon's manifest, report and
    sink documents — the rare, high-value writes; per-location
    checkpoints skip the fsyncs (see :mod:`repro.resilience.checkpoint`).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, sort_keys=True))
        handle.flush()
        os.fsync(handle.fileno())
    tmp.replace(path)
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
