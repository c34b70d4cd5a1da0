"""Seeded property tests for the service scheduler's invariants.

Each case drives a :class:`~repro.service.SurveyService` (real
scheduler, ledgers, manifest, checkpoints — fake engine, see
``service_fakes``) through a seeded random schedule of submits,
cancels, budget grants, drains, injected engine faults, and simulated
daemon restarts, then asserts the invariants that must hold under
*any* interleaving:

* conservation — ``queued + running + done + failed + cancelled ==
  submitted`` at every observation point;
* budgets never negative — ``settled + reserved <= budget`` for every
  tenant with a budget, and nothing is ever reserved at idle;
* quota — no tenant ever holds more active jobs than its quota allows;
* exactly-once billing — every terminal job's settlement equals the
  canonical fee rebuilt from its durable checkpoint, and each tenant's
  ledger equals the sum of its jobs' settlements.

The background-scheduler schedules run the same checks while jobs run
concurrently: the fake engine yields at every location, so submits,
cancels and grants land between the steps of several running jobs.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.service import (
    DEFAULT_MIDDLEWARE,
    AdmissionError,
    JobSpec,
    JobState,
    SurveyService,
    TenantQuota,
    canonical_fees_usd,
    checkpoint_key,
)

from .service_fakes import FakeStack

TENANTS = ("acme", "beta", "gamma", "delta")

QUOTAS = {
    "acme": TenantQuota(max_active_jobs=3, budget_usd=1.0,
                        on_budget_exhausted="pause"),
    "beta": TenantQuota(max_active_jobs=2, budget_usd=0.3,
                        on_budget_exhausted="reject"),
    "gamma": TenantQuota(max_active_jobs=4),  # unmetered
    "delta": TenantQuota(max_active_jobs=1, budget_usd=0.1,
                         on_budget_exhausted="pause"),
}


def assert_invariants(service: SurveyService, *, idle: bool) -> None:
    counts = service.counts()
    states = sum(
        counts[state.value] for state in JobState
    )
    assert states == counts["submitted"], "conservation law broken"

    for tenant in TENANTS:
        quota = service.quota_for(tenant)
        books = service.ledger_snapshot(tenant)
        active = sum(
            1
            for r in service.store.records.values()
            if r.spec.tenant == tenant and not r.terminal
        )
        assert active <= quota.max_active_jobs
        if books["budget_usd"] is not None:
            assert books["remaining_usd"] >= 0.0, (
                f"{tenant} overdrawn: {books}"
            )
            assert books["settled_usd"] + books["reserved_usd"] <= (
                books["budget_usd"] + 1e-9
            )
        assert books["settled_usd"] >= 0.0
        assert books["reserved_usd"] >= 0.0
        if idle:
            assert books["reserved_usd"] == 0.0

    settled_by_tenant = {tenant: 0.0 for tenant in TENANTS}
    for record in service.store.records.values():
        if not record.terminal:
            assert record.fees_settled_usd is None
            continue
        key = checkpoint_key(
            record.spec, service.stack.county(record.spec.county_seed).name
        )
        canonical = canonical_fees_usd(
            service.store.checkpoint_path(record.job_id), key
        )
        assert record.fees_settled_usd == canonical, (
            f"{record.job_id}: settled {record.fees_settled_usd} != "
            f"canonical {canonical}"
        )
        settled_by_tenant[record.spec.tenant] += record.fees_settled_usd
    for tenant in TENANTS:
        assert service.ledger_snapshot(tenant)["settled_usd"] == (
            pytest.approx(settled_by_tenant[tenant])
        )


@pytest.mark.parametrize("schedule_seed", [0, 1, 2, 3, 4])
def test_random_interleavings_preserve_invariants(schedule_seed, tmp_path):
    rng = random.Random(1000 + schedule_seed)

    async def drill():
        stack = FakeStack()
        service = SurveyService(
            stack,
            tmp_path / "state",
            quotas=dict(QUOTAS),
            max_queue_depth=6,
            max_attempts=2,
            close_stack=True,
        )
        submitted: list[str] = []
        next_seed = 0
        for step in range(60):
            op = rng.random()
            if op < 0.45:
                spec = JobSpec(
                    tenant=rng.choice(TENANTS),
                    kind=rng.choice(("survey", "classify")),
                    n_locations=rng.randint(1, 3),
                    seed=next_seed,
                    priority=rng.randint(0, 3),
                )
                next_seed += 1
                if rng.random() < 0.15:
                    # Schedule an engine fault partway through this job;
                    # the retry attempt resumes past the checkpoint.
                    stack.fail_plan[spec.seed] = rng.randint(
                        0, spec.n_locations - 1
                    )
                try:
                    submitted.append(await service.submit(spec))
                except AdmissionError:
                    pass  # rejection is a legal outcome, not a failure
            elif op < 0.60 and submitted:
                await service.cancel(rng.choice(submitted))
            elif op < 0.70:
                await service.grant_budget(
                    rng.choice(TENANTS), rng.uniform(0.0, 0.2)
                )
            elif op < 0.85:
                await service.run_until_idle()
                assert_invariants(service, idle=True)
            else:
                # Simulated daemon restart: abandon the instance
                # without settling and recover from the manifest.
                service = SurveyService(
                    stack,
                    tmp_path / "state",
                    quotas=dict(QUOTAS),
                    max_queue_depth=6,
                    max_attempts=2,
                    close_stack=True,
                )
            assert_invariants(service, idle=False)
        await service.run_until_idle()
        assert_invariants(service, idle=True)
        # Every submitted job is still known (none lost) ...
        for job_id in submitted:
            assert job_id in service.store.records
        # ... and nothing dispatchable remains except budget-paused work.
        for record in service.store.records.values():
            if record.terminal:
                continue
            assert record.state is JobState.QUEUED
            quota = service.quota_for(record.spec.tenant)
            assert quota.on_budget_exhausted == "pause"
        await service.close()

    asyncio.run(drill())


def test_restart_mid_running_job_never_double_settles(tmp_path):
    """The sharpest billing case: kill with a RUNNING record and a
    partial checkpoint, restart twice, and watch each location get
    settled exactly once."""

    async def drill():
        stack = FakeStack()
        service = SurveyService(
            stack, tmp_path / "state", max_attempts=3, close_stack=True
        )
        job_id = await service.submit(
            JobSpec(tenant="acme", n_locations=3, seed=0)
        )
        # Crash mid-job: RUNNING in the manifest, one location durable.
        record = service.store.records[job_id]
        record.transition(JobState.RUNNING)
        record.attempts = 1
        service.store.flush()
        from repro.resilience.checkpoint import SurveyCheckpoint

        key = checkpoint_key(record.spec, "Durham")
        partial = SurveyCheckpoint(
            service.store.checkpoint_path(job_id), key
        )
        partial.record(0, {"images": 4})

        for _ in range(2):  # two successive restarts
            service = SurveyService(
                stack, tmp_path / "state", max_attempts=3, close_stack=True
            )
            assert_invariants(service, idle=False)
        assert await service.run_until_idle() == 1
        record = service.store.records[job_id]
        assert record.state is JobState.DONE
        assert record.resumed
        assert record.fees_settled_usd == pytest.approx(3 * 4 * 0.007)
        assert service.ledger_snapshot("acme")["settled_usd"] == (
            pytest.approx(3 * 4 * 0.007)
        )
        await service.close()

    asyncio.run(drill())


def test_jobs_run_concurrently_within_the_thread_budget(tmp_path):
    """Queued jobs overlap, but the windows of the running jobs never
    sum past the shared bridge's threads."""

    async def drill():
        stack = FakeStack(overlap=True)
        service = SurveyService(
            stack, tmp_path / "state", max_queue_depth=32, close_stack=True
        )
        for index in range(12):
            await service.submit(
                JobSpec(
                    tenant=TENANTS[index % 4],
                    n_locations=3,
                    seed=index,
                    max_inflight=(4, 6, 8)[index % 3],
                )
            )
        await service.start()
        await asyncio.sleep(0)
        await service.drain()
        await service.close()
        assert stack.started == 12
        assert stack.peak_concurrent >= 2
        assert service.peak_running == stack.peak_concurrent
        assert stack.peak_threads <= stack.bridge.max_threads
        assert service.counts()["done"] == 12

    asyncio.run(drill())


@pytest.mark.parametrize("schedule_seed", [0, 1, 2, 3, 4])
def test_background_scheduler_interleavings_preserve_invariants(
    schedule_seed, tmp_path
):
    """Submits, cancels and grants race the background scheduler while
    its jobs run concurrently; every invariant holds at every step."""
    rng = random.Random(2000 + schedule_seed)

    async def drill():
        stack = FakeStack(overlap=True)
        service = SurveyService(
            stack,
            tmp_path / "state",
            quotas=dict(QUOTAS),
            max_queue_depth=8,
            max_attempts=2,
            close_stack=True,
        )
        await service.start()
        submitted: list[str] = []
        for step in range(80):
            op = rng.random()
            if op < 0.45:
                spec = JobSpec(
                    tenant=rng.choice(TENANTS),
                    kind=rng.choice(("survey", "classify")),
                    n_locations=rng.randint(1, 4),
                    seed=step,
                    priority=rng.randint(0, 3),
                    max_inflight=rng.randint(1, 8),
                )
                if rng.random() < 0.15:
                    stack.fail_plan[spec.seed] = rng.randint(
                        0, spec.n_locations - 1
                    )
                try:
                    submitted.append(await service.submit(spec))
                except AdmissionError:
                    pass
            elif op < 0.60 and submitted:
                await service.cancel(rng.choice(submitted))
            elif op < 0.70:
                await service.grant_budget(
                    rng.choice(TENANTS), rng.uniform(0.0, 0.2)
                )
            # Let the running jobs advance a random number of steps.
            for _ in range(rng.randint(0, 6)):
                await asyncio.sleep(0)
            assert_invariants(service, idle=False)
            assert stack.threads <= stack.bridge.max_threads
        await service.drain()
        assert_invariants(service, idle=True)
        await service.stop()
        assert_invariants(service, idle=True)
        for job_id in submitted:
            assert job_id in service.store.records
        for record in service.store.records.values():
            if record.terminal:
                continue
            assert record.state is JobState.QUEUED
            assert service.quota_for(record.spec.tenant).on_budget_exhausted == (
                "pause"
            )
        await service.close()
        return stack.peak_concurrent

    assert asyncio.run(drill()) >= 2


def test_reject_policy_waits_for_its_tenants_running_settlement(tmp_path):
    """A reject-policy job that looks unaffordable only because its
    tenant's running job still holds a reservation is not failed: it
    waits for that settlement, as a serial daemon would have."""

    async def cancel_first(ctx, call_next):
        if ctx.record.seq == 0:
            ctx.record.cancel_requested = True  # settles 1 of 2 locations
        return await call_next()

    async def drill():
        stack = FakeStack(overlap=True)
        # $0.07 holds the first job's $0.056 reservation but not the
        # second's $0.028 beside it; once the first settles $0.028
        # for its one location, the second fits.
        quota = TenantQuota(budget_usd=0.07, on_budget_exhausted="reject")
        service = SurveyService(
            stack,
            tmp_path / "state",
            quotas={"beta": quota},
            middleware=DEFAULT_MIDDLEWARE + (cancel_first,),
            close_stack=True,
        )
        first = await service.submit(
            JobSpec(tenant="beta", n_locations=2, seed=1)
        )
        second = await service.submit(
            JobSpec(tenant="beta", n_locations=1, seed=2)
        )
        assert await service.run_until_idle() == 2
        states = [
            (await service.status(job_id)).state for job_id in (first, second)
        ]
        assert_invariants(service, idle=True)
        await service.close()
        return states

    assert asyncio.run(drill()) == [JobState.CANCELLED, JobState.DONE]
