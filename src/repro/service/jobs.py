"""Job model for the survey service: specs, states, durable records.

A *job* is one survey-shaped unit of tenant work — a full
``survey_async`` run, an aggregate-only ``survey_stream_async`` run,
or a cascade-routed survey — submitted to the long-lived
:class:`~repro.service.daemon.SurveyService` daemon.  This module owns
the vocabulary every other service module speaks: the immutable
:class:`JobSpec` a tenant submits, the :class:`JobState` lifecycle, and
the mutable, JSON-durable :class:`JobRecord` the daemon checkpoints to
its manifest on every transition.

The state machine is deliberately small and strictly enforced::

    QUEUED ──▶ RUNNING ──▶ DONE
      │           │ ├────▶ FAILED
      │           │ └────▶ CANCELLED
      │           └──────▶ QUEUED   (daemon restart re-queues)
      ├──────────────────▶ CANCELLED
      └──────────────────▶ FAILED   (quarantined at recovery)

Terminal states are frozen: a record that reached DONE / FAILED /
CANCELLED never transitions again, which — together with the rule that
fee settlement happens *in the same durable write* as the terminal
transition — is what makes tenant billing exactly-once across daemon
crashes (see DESIGN.md §16).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from enum import Enum

from ..geo.coordinates import CARDINAL_HEADINGS
from ..gsv.api import FEE_PER_IMAGE_USD

__all__ = [
    "CAPTURES_PER_LOCATION",
    "JOB_KINDS",
    "JobRecord",
    "JobSpec",
    "JobState",
    "ServiceError",
    "TERMINAL_STATES",
    "UnknownJobError",
    "estimated_fee_usd",
]


class ServiceError(RuntimeError):
    """Base class for survey-service failures."""


class UnknownJobError(ServiceError, KeyError):
    """No job with the requested id exists in this daemon's registry."""


#: Every survey captures the four cardinal headings per location; the
#: worst-case fee estimate a budget reservation is sized to.
CAPTURES_PER_LOCATION = len(CARDINAL_HEADINGS)

#: Job kinds the daemon multiplexes onto the async engines.
#:
#: * ``survey``   — ``survey_async`` with retained per-location results;
#: * ``classify`` — ``survey_stream_async`` in aggregate mode (presence
#:   accumulators only, bounded memory);
#: * ``cascade``  — ``survey_async`` through the cost-aware cascade
#:   router instead of the single classifier.
JOB_KINDS = ("survey", "classify", "cascade")


class JobState(str, Enum):
    """Lifecycle of one submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)

#: Legal transitions; everything else is a programming error worth
#: failing loudly over (a daemon that double-finishes a job would also
#: double-settle its fees).
_TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    JobState.QUEUED: frozenset(
        {JobState.RUNNING, JobState.CANCELLED, JobState.FAILED}
    ),
    JobState.RUNNING: frozenset(
        {JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.QUEUED}
    ),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
}


@dataclass(frozen=True)
class JobSpec:
    """What a tenant asks for: the immutable half of a job.

    ``county_seed`` names the synthetic study county
    (``make_durham_like(seed=county_seed)``) — a JSON-stable identity,
    so a durable record can rebuild its world after a daemon restart.  ``priority``
    is higher-runs-sooner; ties break FIFO on submission order.
    """

    tenant: str
    kind: str = "survey"
    county_seed: int = 3
    n_locations: int = 4
    seed: int = 0
    priority: int = 0
    max_inflight: int = 2

    def validate(self) -> None:
        if not self.tenant or not self.tenant.strip():
            raise ValueError("job spec needs a non-empty tenant")
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r}; expected one of {JOB_KINDS}"
            )
        if self.n_locations < 1:
            raise ValueError(
                f"n_locations must be positive: {self.n_locations}"
            )
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be positive: {self.max_inflight}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        # Records written before micro-batching followed the window
        # carry ``"microbatch": null``; restart recovery must still
        # load them.  Any other unknown key is rejected.
        return cls(**{k: v for k, v in payload.items() if k != "microbatch"})


def estimated_fee_usd(spec: JobSpec) -> float:
    """Worst-case imagery bill for a spec, the budget reservation size.

    Every location costs at most :data:`CAPTURES_PER_LOCATION` billed
    images; retries never re-bill (billing happens on success), so the
    actual settle is always ≤ this estimate.
    """
    return round(
        spec.n_locations * CAPTURES_PER_LOCATION * FEE_PER_IMAGE_USD, 9
    )


@dataclass
class JobRecord:
    """The durable, mutable half of a job.

    Persisted in full on every state transition through the service
    manifest (fsynced :func:`~repro.durable.atomic_write_json`).
    ``fees_settled_usd`` is written *in the same durable write* as the
    terminal transition — the exactly-once-billing invariant.
    ``progress`` (completed locations so far) is deliberately **not**
    durable per tick: the per-location checkpoint already is, and
    recovery recomputes it from there.
    """

    job_id: str
    spec: JobSpec
    seq: int
    state: JobState = JobState.QUEUED
    attempts: int = 0
    resumed: bool = False
    progress: int = 0
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    fees_settled_usd: float | None = None
    report_path: str | None = None
    audit: list[str] = field(default_factory=list)
    cancel_requested: bool = False

    def transition(self, new_state: JobState) -> None:
        """Move to ``new_state``, enforcing the lifecycle machine."""
        if new_state not in _TRANSITIONS[self.state]:
            raise ServiceError(
                f"job {self.job_id}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def snapshot(self) -> "JobRecord":
        """A detached copy safe to hand across the API boundary."""
        return replace(self, spec=self.spec, audit=list(self.audit))

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_dict(),
            "seq": self.seq,
            "state": self.state.value,
            "attempts": self.attempts,
            "resumed": self.resumed,
            "progress": self.progress,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "fees_settled_usd": self.fees_settled_usd,
            "report_path": self.report_path,
            "audit": list(self.audit),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobRecord":
        return cls(
            job_id=payload["job_id"],
            spec=JobSpec.from_dict(payload["spec"]),
            seq=int(payload["seq"]),
            state=JobState(payload["state"]),
            attempts=int(payload.get("attempts", 0)),
            resumed=bool(payload.get("resumed", False)),
            progress=int(payload.get("progress", 0)),
            submitted_at=float(payload.get("submitted_at", 0.0)),
            started_at=payload.get("started_at"),
            finished_at=payload.get("finished_at"),
            error=payload.get("error"),
            fees_settled_usd=payload.get("fees_settled_usd"),
            report_path=payload.get("report_path"),
            audit=list(payload.get("audit", [])),
        )
