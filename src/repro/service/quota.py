"""Per-tenant quotas and fee budgets for the survey service.

Two layers of admission control:

* **Quotas** (:class:`TenantQuota`) bound *shape*: how many jobs a
  tenant may have active at once and how large a single job may be.
  Violations reject at submit time (:class:`TenantQuotaError`).
* **Budgets** bound *spend*: a tenant's imagery fees, enforced through
  a reserve → settle → release cycle on :class:`TenantLedger` using
  the existing :data:`~repro.gsv.api.FEE_PER_IMAGE_USD` fee
  accounting.  The scheduler reserves the worst-case estimate before
  dispatch and settles the canonical (checkpoint-derived) bill at the
  terminal transition, so ``settled + reserved ≤ budget`` holds at
  every instant and a budget can never go negative.

``on_budget_exhausted`` picks the tentpole's "reject or pause"
semantics per tenant: ``"reject"`` refuses the submit outright;
``"pause"`` admits the job but leaves it QUEUED until a
:meth:`~repro.service.daemon.SurveyService.grant_budget` top-up makes
the reservation fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .jobs import ServiceError

__all__ = [
    "AdmissionError",
    "BudgetExhaustedError",
    "QueueFullError",
    "TenantLedger",
    "TenantQuota",
    "TenantQuotaError",
]


class AdmissionError(ServiceError):
    """The daemon refused to admit a job."""


class QueueFullError(AdmissionError):
    """The bounded admission queue is full — backpressure, try later."""


class TenantQuotaError(AdmissionError):
    """The tenant's job-shape quota would be exceeded."""


class BudgetExhaustedError(AdmissionError):
    """The tenant's fee budget cannot cover the job's estimate."""


@dataclass(frozen=True)
class TenantQuota:
    """Limits applied to one tenant (or the service default).

    ``budget_usd=None`` means unmetered spend; a float is the tenant's
    total imagery-fee allowance, extendable at runtime through budget
    grants (which are durable, so a restart cannot forget a top-up).
    """

    max_active_jobs: int = 8
    max_locations_per_job: int = 256
    budget_usd: float | None = None
    on_budget_exhausted: str = "reject"

    def __post_init__(self) -> None:
        if self.max_active_jobs < 1:
            raise ValueError(
                f"max_active_jobs must be positive: {self.max_active_jobs}"
            )
        if self.max_locations_per_job < 1:
            raise ValueError(
                "max_locations_per_job must be positive: "
                f"{self.max_locations_per_job}"
            )
        if self.budget_usd is not None and not (
            math.isfinite(self.budget_usd) and self.budget_usd >= 0
        ):
            raise ValueError(
                f"budget must be finite and non-negative: {self.budget_usd}"
            )
        if self.on_budget_exhausted not in ("reject", "pause"):
            raise ValueError(
                "on_budget_exhausted must be 'reject' or 'pause': "
                f"{self.on_budget_exhausted!r}"
            )


class TenantLedger:
    """One tenant's running fee books: settled, reserved, granted.

    ``settled_usd`` and ``grants_usd`` are durable (persisted in the
    service manifest alongside the job records whose settlement they
    reflect); ``reserved_usd`` is runtime-only and rebuilt empty at
    recovery, because after a restart nothing is RUNNING until the
    scheduler reserves again.
    """

    def __init__(
        self,
        tenant: str,
        quota: TenantQuota,
        *,
        settled_usd: float = 0.0,
        grants_usd: float = 0.0,
    ) -> None:
        self.tenant = tenant
        self.quota = quota
        self.settled_usd = settled_usd
        self.grants_usd = grants_usd
        self.reserved_usd = 0.0

    # -- budget arithmetic ---------------------------------------------

    @property
    def budget_usd(self) -> float | None:
        """Total allowance: the quota budget plus runtime grants."""
        if self.quota.budget_usd is None:
            return None
        return round(self.quota.budget_usd + self.grants_usd, 9)

    def remaining_usd(self) -> float | None:
        """Unreserved headroom (``None`` = unmetered)."""
        budget = self.budget_usd
        if budget is None:
            return None
        return round(budget - self.settled_usd - self.reserved_usd, 9)

    def can_afford(self, estimate_usd: float) -> bool:
        remaining = self.remaining_usd()
        return remaining is None or estimate_usd <= remaining + 1e-12

    # -- reserve / settle / release ------------------------------------

    def reserve(self, estimate_usd: float) -> None:
        """Hold worst-case headroom for a job about to dispatch."""
        if not self.can_afford(estimate_usd):
            raise BudgetExhaustedError(
                f"tenant {self.tenant!r}: estimate ${estimate_usd:.3f} "
                f"exceeds remaining budget ${self.remaining_usd():.3f}"
            )
        self.reserved_usd = round(self.reserved_usd + estimate_usd, 9)

    def settle(self, reservation_usd: float, actual_usd: float) -> None:
        """Convert a reservation into a settled bill, releasing the rest.

        ``actual`` is the canonical checkpoint-derived fee, which by
        construction never exceeds the worst-case reservation — the
        assertion guards the never-negative invariant rather than
        trusting the caller.
        """
        if actual_usd > reservation_usd + 1e-9:
            raise ServiceError(
                f"tenant {self.tenant!r}: settle ${actual_usd:.6f} exceeds "
                f"reservation ${reservation_usd:.6f}"
            )
        self.reserved_usd = round(
            max(0.0, self.reserved_usd - reservation_usd), 9
        )
        self.settled_usd = round(self.settled_usd + actual_usd, 9)

    def release(self, reservation_usd: float) -> None:
        """Drop a reservation without settling (job never billed)."""
        self.reserved_usd = round(
            max(0.0, self.reserved_usd - reservation_usd), 9
        )

    def grant(self, usd: float) -> None:
        # A NaN grant would persist and make every later budget check
        # fail, so only a finite, non-negative amount reaches the books.
        if not (math.isfinite(usd) and usd >= 0):
            raise ValueError(f"grant must be finite and non-negative: {usd}")
        self.grants_usd = round(self.grants_usd + usd, 9)

    def to_dict(self) -> dict:
        return {
            "settled_usd": self.settled_usd,
            "grants_usd": self.grants_usd,
        }
