"""Survey-as-a-service: a multi-tenant daemon session, end to end.

Spins up the §16 :class:`~repro.service.SurveyService` over a shared
client stack, submits a mixed schedule from two tenants — different
priorities, a budget-capped tenant, one job cancelled while queued —
drains it, and prints the durable books the daemon kept: per-job state
and settlement, per-tenant ledgers, the order the priority scheduler
dispatched the jobs in, and the order they finished (jobs run
concurrently within the shared bridge's thread budget).

Everything shown here survives a crash: re-running the daemon over the
same ``state_dir`` resumes interrupted jobs from their per-location
checkpoints instead of re-billing them (see ``repro serve``).

Run:  python examples/service_demo.py
"""

import asyncio
import tempfile
from pathlib import Path

from repro.service import (
    DEFAULT_MIDDLEWARE,
    CallbackSink,
    JobSpec,
    ServiceStack,
    SurveyService,
    TenantQuota,
)


async def main():
    dispatched = []

    async def record_dispatch(ctx, call_next):
        dispatched.append(ctx.record.job_id)
        return await call_next()

    delivered = []
    sink = CallbackSink(
        lambda record, report: delivered.append(
            (record.job_id, record.state.value)
        )
    )
    quotas = {
        # acme pays for whatever it queues...
        "acme": TenantQuota(max_active_jobs=4),
        # ...while beta has a hard budget: jobs it cannot afford are
        # rejected at the door instead of stranding reservations.
        "beta": TenantQuota(
            max_active_jobs=4, budget_usd=0.10, on_budget_exhausted="reject"
        ),
    }

    with tempfile.TemporaryDirectory() as tmp:
        stack = ServiceStack()
        async with SurveyService(
            stack,
            Path(tmp) / "state",
            quotas=quotas,
            sinks=(sink,),
            middleware=DEFAULT_MIDDLEWARE + (record_dispatch,),
        ) as service:
            urgent = await service.submit(
                JobSpec(tenant="acme", n_locations=3, seed=11, priority=5)
            )
            backfill = await service.submit(
                JobSpec(tenant="acme", n_locations=2, seed=12, priority=0)
            )
            metered = await service.submit(
                JobSpec(tenant="beta", n_locations=3, seed=13, priority=1)
            )
            doomed = await service.submit(
                JobSpec(tenant="acme", n_locations=2, seed=14, priority=0)
            )
            await service.cancel(doomed)  # still queued: free, immediate

            try:
                await service.submit(
                    JobSpec(tenant="beta", n_locations=8, seed=15)
                )
            except Exception as err:
                print(f"beta over budget, rejected at admission: {err}")

            await service.run_until_idle()

            # The scheduler dispatches in priority order; the three
            # jobs then run side by side and finish in whatever order
            # their work takes.  Sinks fire at every terminal
            # transition, so the queued cancellation lands first.
            print(f"\ndispatch order: {dispatched}")
            print(f"sink delivery order: {delivered}")
            assert dispatched == [urgent, metered, backfill]
            assert delivered[0] == (doomed, "cancelled")
            assert sorted(j for j, _ in delivered[1:]) == sorted(dispatched)
            for job_id in (urgent, backfill, metered, doomed):
                record = await service.status(job_id)
                print(
                    f"{job_id}: {record.spec.tenant:>4} "
                    f"{record.state.value:>9}  "
                    f"settled ${record.fees_settled_usd:.3f}"
                )
            for tenant in ("acme", "beta"):
                print(f"{tenant} ledger: {service.ledger_snapshot(tenant)}")


if __name__ == "__main__":
    asyncio.run(main())
