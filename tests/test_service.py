"""Service daemon tests: scheduler, quotas, billing, golden session.

Everything here is deterministic: stacks run on a
:class:`~repro.resilience.VirtualClock`, jobs drain through
``run_until_idle`` (the dispatcher the background scheduler also
uses; jobs overlap within the bridge's thread budget), and mid-stream
cancellation is injected through the middleware chain rather than
racing a wall clock.

The centerpiece is the golden multi-tenant session: three jobs from
two tenants through one shared stack, every DONE report byte-identical
to a standalone ``survey_async`` run with the same parameters against
a fresh stack — the multiplexing-changes-nothing contract of
DESIGN.md §16.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import replace

import pytest

from repro.obs.audit import SERVICE_STAGES
from repro.resilience import VirtualClock
from repro.service import (
    BudgetExhaustedError,
    CallbackSink,
    DEFAULT_MIDDLEWARE,
    JobSpec,
    JobState,
    JsonlSink,
    QueueFullError,
    ReportDirSink,
    ServiceError,
    ServiceProtocol,
    ServiceStack,
    SurveyService,
    TenantQuota,
    TenantQuotaError,
    UnknownJobError,
    canonical_fees_usd,
    checkpoint_key,
    estimated_fee_usd,
)
from repro.service.jobs import JobRecord


def make_stack(clients, **kwargs):
    kwargs.setdefault("clients", clients)
    kwargs.setdefault("clock", VirtualClock())
    return ServiceStack(**kwargs)


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# job model


def test_job_spec_validation():
    with pytest.raises(ValueError):
        JobSpec(tenant="").validate()
    with pytest.raises(ValueError):
        JobSpec(tenant="a", kind="mystery").validate()
    with pytest.raises(ValueError):
        JobSpec(tenant="a", n_locations=0).validate()
    with pytest.raises(ValueError):
        JobSpec(tenant="a", max_inflight=0).validate()
    JobSpec(tenant="a").validate()


def test_spec_loads_a_record_with_the_retired_microbatch_key():
    """Records written before micro-batching followed the window still load."""
    legacy = {**JobSpec(tenant="acme").to_dict(), "microbatch": None}
    assert JobSpec.from_dict(legacy) == JobSpec(tenant="acme")
    with pytest.raises(TypeError):
        JobSpec.from_dict({**legacy, "shard_size": 8})


def test_estimated_fee_is_worst_case():
    spec = JobSpec(tenant="a", n_locations=5)
    assert estimated_fee_usd(spec) == pytest.approx(5 * 4 * 0.007)


def test_state_machine_rejects_illegal_transitions():
    record = JobRecord(job_id="job-0000", spec=JobSpec(tenant="a"), seq=0)
    with pytest.raises(ServiceError):
        record.transition(JobState.DONE)  # QUEUED cannot finish directly
    record.transition(JobState.RUNNING)
    record.transition(JobState.DONE)
    assert record.terminal
    with pytest.raises(ServiceError):
        record.transition(JobState.QUEUED)  # terminal states are frozen


def test_job_record_roundtrips_through_json():
    record = JobRecord(
        job_id="job-0003",
        spec=JobSpec(tenant="acme", priority=2),
        seq=3,
        submitted_at=1.5,
    )
    record.transition(JobState.RUNNING)
    record.audit.append("note")
    clone = JobRecord.from_dict(json.loads(json.dumps(record.to_dict())))
    assert clone.to_dict() == record.to_dict()


# ---------------------------------------------------------------------------
# admission: quotas, backpressure, budgets


def test_quota_caps_active_jobs_and_job_size(clients, tmp_path):
    async def drill():
        quota = TenantQuota(max_active_jobs=1, max_locations_per_job=3)
        async with SurveyService(
            make_stack(clients), tmp_path, default_quota=quota
        ) as service:
            await service.submit(JobSpec(tenant="acme", n_locations=2))
            with pytest.raises(TenantQuotaError):
                await service.submit(JobSpec(tenant="acme", n_locations=2))
            with pytest.raises(TenantQuotaError):
                await service.submit(JobSpec(tenant="beta", n_locations=9))
            # Other tenants are unaffected by acme's cap.
            await service.submit(JobSpec(tenant="beta", n_locations=2))

    run(drill())


def test_backpressure_rejects_when_queue_is_full(clients, tmp_path):
    async def drill():
        async with SurveyService(
            make_stack(clients), tmp_path, max_queue_depth=2
        ) as service:
            await service.submit(JobSpec(tenant="t1", n_locations=1))
            await service.submit(JobSpec(tenant="t2", n_locations=1))
            with pytest.raises(QueueFullError):
                await service.submit(JobSpec(tenant="t3", n_locations=1))

    run(drill())


def test_budget_reject_policy_refuses_submit(clients, tmp_path):
    async def drill():
        quota = TenantQuota(budget_usd=0.01, on_budget_exhausted="reject")
        async with SurveyService(
            make_stack(clients), tmp_path, default_quota=quota
        ) as service:
            with pytest.raises(BudgetExhaustedError):
                await service.submit(JobSpec(tenant="poor", n_locations=2))
            assert service.counts()["submitted"] == 0

    run(drill())


def test_budget_pause_policy_waits_for_grant(clients, tmp_path):
    async def drill():
        quota = TenantQuota(budget_usd=0.01, on_budget_exhausted="pause")
        async with SurveyService(
            make_stack(clients), tmp_path, default_quota=quota
        ) as service:
            job_id = await service.submit(
                JobSpec(tenant="poor", n_locations=2, seed=5)
            )
            assert await service.run_until_idle() == 0
            record = await service.status(job_id)
            assert record.state is JobState.QUEUED  # paused, not failed
            books = await service.grant_budget("poor", 1.0)
            assert books["remaining_usd"] > 0
            assert await service.run_until_idle() == 1
            record = await service.status(job_id)
            assert record.state is JobState.DONE
            ledger = service.ledger_snapshot("poor")
            assert ledger["settled_usd"] == record.fees_settled_usd
            assert ledger["reserved_usd"] == 0.0
            assert ledger["remaining_usd"] >= 0.0

    run(drill())


@pytest.mark.parametrize("amount", ["NaN", "Infinity"])
def test_non_finite_grant_is_refused_and_never_persisted(
    clients, tmp_path, amount
):
    """A non-finite grant is an error response and never reaches the
    manifest, so a restarted daemon cannot inherit a budget of $nan."""
    quota = TenantQuota(budget_usd=1.0)
    line = '{"op": "budget", "tenant": "acme", "grant_usd": %s}' % amount

    async def first_daemon():
        async with SurveyService(
            make_stack(clients), tmp_path, default_quota=quota
        ) as service:
            [response] = await ServiceProtocol(service).handle_request(
                json.loads(line)
            )
            assert response["ok"] is False
            assert response["error"] == "ValueError"
            assert service.ledger_snapshot("acme")["grants_usd"] == 0.0
            assert "acme" not in service.store.ledger

    async def restarted_daemon():
        async with SurveyService(
            make_stack(clients), tmp_path, default_quota=quota
        ) as service:
            assert service.ledger_snapshot("acme")["remaining_usd"] == 1.0
            await service.submit(JobSpec(tenant="acme", n_locations=2))

    run(first_daemon())
    run(restarted_daemon())


def test_quota_rejects_a_non_finite_budget():
    for budget in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="finite and non-negative"):
            TenantQuota(budget_usd=budget)


def test_unknown_job_raises(clients, tmp_path):
    async def drill():
        async with SurveyService(make_stack(clients), tmp_path) as service:
            with pytest.raises(UnknownJobError):
                await service.status("job-9999")

    run(drill())


# ---------------------------------------------------------------------------
# scheduling


def test_priority_ordering_with_fifo_ties(clients, tmp_path):
    # Jobs run concurrently, so finish order is up to the engine; the
    # scheduler's contract is the order it dispatches them in.
    dispatched: list[str] = []

    async def record_dispatch(ctx, call_next):
        dispatched.append(ctx.record.job_id)
        return await call_next()

    async def drill():
        async with SurveyService(
            make_stack(clients),
            tmp_path,
            middleware=DEFAULT_MIDDLEWARE + (record_dispatch,),
        ) as service:
            low = await service.submit(
                JobSpec(tenant="a", n_locations=1, priority=0, seed=1)
            )
            high = await service.submit(
                JobSpec(tenant="b", n_locations=1, priority=5, seed=2)
            )
            mid = await service.submit(
                JobSpec(tenant="c", n_locations=1, priority=1, seed=3)
            )
            mid2 = await service.submit(
                JobSpec(tenant="d", n_locations=1, priority=1, seed=4)
            )
            assert await service.run_until_idle() == 4
            return high, mid, mid2, low

    expected = run(drill())
    assert tuple(dispatched) == expected


def test_cancel_queued_job_is_immediate_and_free(clients, tmp_path):
    async def drill():
        async with SurveyService(make_stack(clients), tmp_path) as service:
            job_id = await service.submit(JobSpec(tenant="a", n_locations=2))
            assert await service.cancel(job_id) is True
            record = await service.status(job_id)
            assert record.state is JobState.CANCELLED
            assert record.fees_settled_usd == 0.0
            assert await service.run_until_idle() == 0
            assert await service.cancel(job_id) is False  # already terminal

    run(drill())


def test_cancellation_mid_stream_keeps_checkpointed_work(clients, tmp_path):
    """Cancel after the first completed location: the job lands
    CANCELLED with exactly that location checkpointed and billed."""

    async def cancel_at_dispatch(ctx, call_next):
        ctx.record.cancel_requested = True
        return await call_next()

    async def drill():
        stack = make_stack(clients)
        async with SurveyService(
            stack,
            tmp_path,
            middleware=DEFAULT_MIDDLEWARE + (cancel_at_dispatch,),
        ) as service:
            job_id = await service.submit(
                JobSpec(tenant="a", n_locations=4, seed=9)
            )
            assert await service.run_until_idle() == 1
            record = await service.status(job_id)
            assert record.state is JobState.CANCELLED
            assert record.progress == 1
            key = checkpoint_key(
                record.spec, stack.county(record.spec.county_seed).name
            )
            canonical = canonical_fees_usd(
                service.store.checkpoint_path(job_id), key
            )
            assert record.fees_settled_usd == canonical > 0.0
            assert await service.result(job_id) is None
            ledger = service.ledger_snapshot("a")
            assert ledger["settled_usd"] == canonical
            assert ledger["reserved_usd"] == 0.0

    run(drill())


def test_watch_streams_progress_then_terminal(clients, tmp_path):
    async def drill():
        async with SurveyService(make_stack(clients), tmp_path) as service:
            job_id = await service.submit(
                JobSpec(tenant="a", n_locations=2, seed=3)
            )
            await service.start()
            events = []
            async for event in service.watch(job_id):
                events.append(event)
            await service.stop()
            assert events[-1]["terminal"]
            assert events[-1]["state"] == "done"
            progress = [e for e in events if e["event"] == "progress"]
            assert len(progress) == 2
            assert [e["progress"] for e in progress] == [1, 2]

    run(drill())


# ---------------------------------------------------------------------------
# golden multi-tenant session


GOLDEN_SPECS = (
    JobSpec(tenant="acme", kind="survey", county_seed=3, n_locations=3,
            seed=11, priority=2),
    JobSpec(tenant="beta", kind="survey", county_seed=5, n_locations=2,
            seed=7),
    JobSpec(tenant="acme", kind="classify", county_seed=7, n_locations=3,
            seed=19),
)


def test_golden_multitenant_session(clients, tmp_path):
    """Three jobs, two tenants, one stack — reports byte-identical to
    standalone engine runs, books reconciled, fees settled exactly."""
    jsonl_path = tmp_path / "session.jsonl"
    report_dir = tmp_path / "delivered"

    async def session():
        stack = make_stack(clients)
        async with SurveyService(
            stack,
            tmp_path / "state",
            sinks=[JsonlSink(jsonl_path), ReportDirSink(report_dir)],
        ) as service:
            ids = [await service.submit(spec) for spec in GOLDEN_SPECS]
            assert await service.run_until_idle() == len(GOLDEN_SPECS)
            # The jobs overlapped, so the byte-identity below covers
            # concurrent execution.
            assert service.peak_running >= 2
            out = []
            for spec, job_id in zip(GOLDEN_SPECS, ids):
                record = await service.status(job_id)
                assert record.state is JobState.DONE
                books = service.observability[job_id]
                assert books["reconcile"] == []
                assert books["audit_trace"] == []
                assert {
                    s.name for s in books["tracer"].spans
                } >= set(SERVICE_STAGES)
                key = checkpoint_key(
                    spec, stack.county(spec.county_seed).name
                )
                canonical = canonical_fees_usd(
                    service.store.checkpoint_path(job_id), key
                )
                assert record.fees_settled_usd == canonical
                out.append((record, await service.result(job_id)))
            for tenant in ("acme", "beta"):
                ledger = service.ledger_snapshot(tenant)
                assert ledger["reserved_usd"] == 0.0
                assert ledger["settled_usd"] == pytest.approx(
                    sum(
                        record.fees_settled_usd
                        for record, _ in out
                        if record.spec.tenant == tenant
                    )
                )
            return out

    async def standalone(spec):
        with make_stack(clients) as fresh:
            decoder = fresh.decoder(spec.kind, spec.county_seed)
            county = fresh.county(spec.county_seed)
            if spec.kind == "classify":
                return await decoder.survey_stream_async(
                    county,
                    spec.n_locations,
                    seed=spec.seed,
                    max_inflight=spec.max_inflight,
                )
            return await decoder.survey_async(
                county,
                spec.n_locations,
                seed=spec.seed,
                max_inflight=spec.max_inflight,
            )

    results = run(session())
    for spec, (record, served) in zip(GOLDEN_SPECS, results):
        baseline = run(standalone(spec))
        assert json.dumps(served, sort_keys=True) == baseline.to_json(), (
            f"{record.job_id} ({spec.kind}) diverged from standalone"
        )

    # Sink deliveries: one journal line per job, one report per DONE job.
    lines = [
        json.loads(line)
        for line in jsonl_path.read_text().splitlines()
    ]
    assert [line["state"] for line in lines] == ["done"] * 3
    assert sorted(p.name for p in report_dir.glob("*.json")) == [
        f"{record.job_id}.json" for record, _ in results
    ]


def test_session_is_deterministic_across_fresh_daemons(clients, tmp_path):
    async def one_pass(root):
        async with SurveyService(
            make_stack(clients), root
        ) as service:
            job_id = await service.submit(
                JobSpec(tenant="acme", n_locations=2, seed=13)
            )
            await service.run_until_idle()
            return json.dumps(
                await service.result(job_id), sort_keys=True
            )

    first = run(one_pass(tmp_path / "a"))
    second = run(one_pass(tmp_path / "b"))
    assert first == second


def test_each_tenant_pays_for_its_own_imagery_on_a_shared_cache(
    clients, tmp_path
):
    """Who pays: two tenants submit the same spec together.  Both jobs
    run at once and share every LLM response (single-flight), yet each
    settles the full imagery fee rebuilt from its own checkpoint."""
    spec = JobSpec(tenant="acme", n_locations=3, seed=21)

    async def session():
        stack = make_stack(clients)
        async with SurveyService(stack, tmp_path / "state") as service:
            ids = [
                await service.submit(spec),
                await service.submit(replace(spec, tenant="beta")),
            ]
            assert await service.run_until_idle() == 2
            assert service.peak_running == 2
            records = [await service.status(job_id) for job_id in ids]
            reports = [await service.result(job_id) for job_id in ids]
            key = checkpoint_key(spec, stack.county(spec.county_seed).name)
            canonical = [
                canonical_fees_usd(service.store.checkpoint_path(job_id), key)
                for job_id in ids
            ]
            ledgers = [
                service.ledger_snapshot(tenant) for tenant in ("acme", "beta")
            ]
            return records, reports, canonical, ledgers, (
                stack.chat_client().misses
            )

    async def alone():
        with make_stack(clients) as fresh:
            await fresh.decoder(spec.kind, spec.county_seed).survey_async(
                fresh.county(spec.county_seed),
                spec.n_locations,
                seed=spec.seed,
                max_inflight=spec.max_inflight,
            )
            return fresh.chat_client().misses

    records, reports, canonical, ledgers, upstream = run(session())
    assert [record.state for record in records] == [JobState.DONE] * 2
    assert reports[0] == reports[1]
    fee = estimated_fee_usd(spec)
    assert canonical == [fee, fee]
    for record, ledger, paid in zip(records, ledgers, canonical):
        assert record.fees_settled_usd == paid
        assert ledger["settled_usd"] == paid
        assert ledger["reserved_usd"] == 0.0
    assert upstream == run(alone())


def test_submit_rejects_a_window_wider_than_the_bridge(clients, tmp_path):
    async def drill():
        stack = make_stack(clients)
        async with SurveyService(stack, tmp_path) as service:
            wide = stack.bridge.max_threads + 1
            with pytest.raises(TenantQuotaError) as caught:
                await service.submit(
                    JobSpec(tenant="acme", n_locations=1, max_inflight=wide)
                )
            assert str(wide) in str(caught.value)
            assert str(stack.bridge.max_threads) in str(caught.value)
            assert service.counts()["submitted"] == 0
            await service.submit(
                JobSpec(
                    tenant="acme",
                    n_locations=1,
                    max_inflight=stack.bridge.max_threads,
                )
            )

    run(drill())


# ---------------------------------------------------------------------------
# restart recovery (in-process)


def test_restart_requeues_interrupted_job_without_double_billing(
    clients, tmp_path
):
    state = tmp_path / "state"

    async def first_daemon():
        async with SurveyService(
            make_stack(clients), state, close_stack=True
        ) as service:
            job_id = await service.submit(
                JobSpec(tenant="acme", n_locations=3, seed=11)
            )
            # Simulate a crash mid-job: durably RUNNING, one location
            # checkpointed, then the process "dies" (no settlement).
            record = service.store.records[job_id]
            record.transition(JobState.RUNNING)
            record.attempts = 1
            service.store.flush()
            stack = service.stack
            county = stack.county(record.spec.county_seed)
            checkpoint = stack.decoder(
                "survey", record.spec.county_seed
            )
            report = await checkpoint.survey_async(
                county,
                record.spec.n_locations,
                seed=record.spec.seed,
                checkpoint=str(service.store.checkpoint_path(job_id)),
                max_inflight=1,
            )
            # Keep only the first location in the checkpoint to model
            # an interrupt: rewrite with a partial record set.
            from repro.resilience.checkpoint import SurveyCheckpoint

            key = checkpoint_key(record.spec, county.name)
            full = SurveyCheckpoint(
                service.store.checkpoint_path(job_id), key
            )
            partial_payload = full.get(0)
            service.store.checkpoint_path(job_id).unlink()
            partial = SurveyCheckpoint(
                service.store.checkpoint_path(job_id), key
            )
            partial.record(0, partial_payload)
            return job_id, report.to_json()

    async def second_daemon(job_id):
        async with SurveyService(
            make_stack(clients), state
        ) as service:
            assert service.recovered  # the RUNNING record was noticed
            record = await service.status(job_id)
            assert record.state is JobState.QUEUED
            assert record.resumed
            assert record.progress == 1
            assert await service.run_until_idle() == 1
            record = await service.status(job_id)
            assert record.state is JobState.DONE
            ledger = service.ledger_snapshot("acme")
            # Every location settled exactly once, however many
            # daemons touched the job.
            assert ledger["settled_usd"] == record.fees_settled_usd
            assert record.fees_settled_usd == pytest.approx(
                record.spec.n_locations * 4 * 0.007
            )
            return await service.result(job_id), record.fees_settled_usd

    job_id, undisturbed = run(first_daemon())
    served, settled = run(second_daemon(job_id))
    undisturbed = json.loads(undisturbed)
    assert len(served["locations"]) == 3
    # The resumed report is the undisturbed one, except for the work
    # its own attempt did: it fetched 2 locations, not 3.  The bill
    # covers all 3, each exactly once.
    work = ("fees_usd", "retry_stats")
    assert {k: v for k, v in served.items() if k not in work} == {
        k: v for k, v in undisturbed.items() if k not in work
    }
    assert served["fees_usd"] < undisturbed["fees_usd"]
    assert settled == undisturbed["fees_usd"]


def test_restart_fails_clean_when_attempts_exhausted(clients, tmp_path):
    state = tmp_path / "state"

    async def first_daemon():
        async with SurveyService(
            make_stack(clients), state, max_attempts=1
        ) as service:
            job_id = await service.submit(
                JobSpec(tenant="acme", n_locations=2, seed=3)
            )
            record = service.store.records[job_id]
            record.transition(JobState.RUNNING)
            record.attempts = 1
            service.store.flush()
            return job_id

    async def second_daemon(job_id):
        async with SurveyService(
            make_stack(clients), state, max_attempts=1
        ) as service:
            record = await service.status(job_id)
            assert record.state is JobState.FAILED
            assert "restart" in record.error
            assert record.fees_settled_usd == 0.0  # nothing checkpointed
            assert await service.run_until_idle() == 0

    job_id = run(first_daemon())
    run(second_daemon(job_id))


# ---------------------------------------------------------------------------
# shared stack lifecycle (satellite 4)


def test_stack_close_releases_cache_journal_and_bridge(clients, tmp_path):
    async def drill():
        stack = make_stack(clients, cache_path=tmp_path / "cache.jsonl")
        async with SurveyService(stack, tmp_path / "state") as service:
            await service.submit(JobSpec(tenant="a", n_locations=1, seed=2))
            await service.run_until_idle()
            chat = stack.chat_client()
            assert chat.journaling  # journal opened by the cache miss
            bridge = stack.bridge
        # Service close closed the stack: journal released, bridge shut.
        assert stack.closed
        assert not chat.journaling
        assert bridge.closed
        with pytest.raises(ServiceError):
            stack.chat_client()

    run(drill())


def test_stack_close_is_idempotent_and_reentrant(clients, tmp_path):
    stack = make_stack(clients)
    stack.close()
    stack.close()
    assert stack.closed


# ---------------------------------------------------------------------------
# middleware


def test_middleware_chain_wraps_inside_out(clients, tmp_path):
    order: list[str] = []

    def tag(name):
        async def mw(ctx, call_next):
            order.append(f"{name}:before")
            result = await call_next()
            order.append(f"{name}:after")
            return result

        return mw

    async def drill():
        async with SurveyService(
            make_stack(clients),
            tmp_path,
            middleware=(tag("outer"), tag("inner")),
        ) as service:
            await service.submit(JobSpec(tenant="a", n_locations=1, seed=6))
            await service.run_until_idle()

    run(drill())
    assert order == [
        "outer:before", "inner:before", "inner:after", "outer:after"
    ]


def test_default_middleware_annotates_durable_audit(clients, tmp_path):
    async def drill():
        async with SurveyService(
            make_stack(clients), tmp_path
        ) as service:
            job_id = await service.submit(
                JobSpec(tenant="acme", n_locations=1, seed=8)
            )
            await service.run_until_idle()
            record = await service.status(job_id)
            audit = "\n".join(record.audit)
            assert "trace.root=service.job" in audit
            assert "budget.reserved_usd=" in audit
            assert "metrics.tenant=acme" in audit
            books = service.observability[job_id]
            delta = books["metrics_delta"]["counters"]
            assert delta["service.jobs.dispatched"] == 1
            assert delta["service.jobs.finished"] == 1

    run(drill())


def test_budget_guard_fails_overspending_job(clients, tmp_path):
    class Overspend:
        fees_usd = 10.0
        metrics: dict = {}

        def to_json(self):
            return "{}"

    async def lie_about_fees(ctx, call_next):
        await call_next()
        return Overspend()

    async def drill():
        async with SurveyService(
            make_stack(clients),
            tmp_path,
            max_attempts=1,
            middleware=DEFAULT_MIDDLEWARE + (lie_about_fees,),
        ) as service:
            job_id = await service.submit(
                JobSpec(tenant="a", n_locations=1, seed=4)
            )
            await service.run_until_idle()
            record = await service.status(job_id)
            assert record.state is JobState.FAILED
            assert "reservation" in record.error

    run(drill())


# ---------------------------------------------------------------------------
# sinks


def test_sink_failure_is_contained(clients, tmp_path):
    class BrokenSink:
        def deliver(self, record, report):
            raise RuntimeError("downstream on fire")

    delivered: list[str] = []

    async def drill():
        async with SurveyService(
            make_stack(clients),
            tmp_path,
            sinks=[
                BrokenSink(),
                CallbackSink(lambda r, _: delivered.append(r.job_id)),
            ],
        ) as service:
            job_id = await service.submit(
                JobSpec(tenant="a", n_locations=1, seed=5)
            )
            await service.run_until_idle()
            record = await service.status(job_id)
            assert record.state is JobState.DONE
            assert any("BrokenSink failed" in line for line in record.audit)
            assert delivered == [job_id]

    run(drill())
