"""Pluggable result sinks: where finished jobs' reports are delivered.

A sink receives every *terminal* job exactly once, right after the
terminal transition was durably flushed — so a sink never sees a job
the manifest does not already agree is finished, and a crash between
flush and delivery re-delivers at most the jobs of the interrupted
batch (sinks should be idempotent on ``job_id``).

Three implementations cover the tentpole's delivery modes:

* :class:`JsonlSink` — append-only session journal, one sorted-key
  JSON line per finished job (the obs export idiom);
* :class:`ReportDirSink` — one fsynced report document per DONE job in
  a directory, named by ``job_id``;
* :class:`CallbackSink` — in-process hand-off for embedding hosts
  (tests, notebooks, the protocol server's ``watch`` op).

Sink failures are contained: the daemon logs the failure into the
job's audit trail and keeps going — a broken downstream must not wedge
the scheduler or poison other tenants' deliveries.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Protocol

from ..durable import atomic_write_json
from .jobs import JobRecord

__all__ = [
    "CallbackSink",
    "JsonlSink",
    "ReportDirSink",
    "ResultSink",
]


class ResultSink(Protocol):
    """One delivery target for finished jobs."""

    def deliver(self, record: JobRecord, report: dict | None) -> None:
        """Receive one terminal job (``report`` is ``None`` unless DONE)."""
        ...


class JsonlSink:
    """Append one JSON line per finished job to a session journal."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def deliver(self, record: JobRecord, report: dict | None) -> None:
        line = json.dumps(
            {
                "job_id": record.job_id,
                "tenant": record.spec.tenant,
                "kind": record.spec.kind,
                "state": record.state.value,
                "fees_settled_usd": record.fees_settled_usd,
                "error": record.error,
                "report": report,
            },
            sort_keys=True,
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")


class ReportDirSink:
    """Write each DONE job's report document into a directory.

    Files are written with the fsynced atomic idiom
    (:func:`~repro.durable.atomic_write_json`) and named
    ``<job_id>.json``, so re-delivery after a crash overwrites with
    identical bytes instead of duplicating.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def deliver(self, record: JobRecord, report: dict | None) -> None:
        if report is None:
            return
        atomic_write_json(
            self.directory / f"{record.job_id}.json",
            {
                "job_id": record.job_id,
                "tenant": record.spec.tenant,
                "report": report,
            },
        )


class CallbackSink:
    """Invoke an in-process callable per finished job."""

    def __init__(
        self, callback: Callable[[JobRecord, dict | None], None]
    ) -> None:
        self.callback = callback

    def deliver(self, record: JobRecord, report: dict | None) -> None:
        self.callback(record, report)
