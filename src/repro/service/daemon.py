"""The survey service daemon: multi-tenant jobs over one shared stack.

:class:`SurveyService` is the tentpole of DESIGN.md §16 — a long-lived
asyncio daemon that accepts survey/classify/cascade jobs from many
tenants and multiplexes them onto the existing async engines
(:meth:`~repro.core.pipeline.NeighborhoodDecoder.survey_async` /
``survey_stream_async``) behind one :class:`~repro.service.stack.ServiceStack`:
one LLM cache, one rate limiter, one circuit breaker, one usage meter,
one warm thread bridge.

**Execution model — jobs run concurrently within one thread budget.**
The admission APIs (``submit`` / ``status`` / ``cancel`` / ``watch`` /
``grant_budget``) are coroutines and may interleave freely.  One
dispatcher (behind both ``run_until_idle`` and the background loop)
starts jobs in priority order (priority desc, submission order asc),
each as its own task, while the ``max_inflight`` windows of the
running jobs plus the next job's fit in the shared bridge's
``max_threads``.  That sum bounds the threads because a job's engine
keeps at most ``max_inflight`` locations alive and each location
awaits one bridge call at a time: its fetch, then its classify.  The
fetch sends all four headings as one round inside that single call,
and the classify call's batched LLM window runs on the same thread,
so neither call parks a second thread.  Every
running job therefore gets its whole window; a job that does
not fit yet holds back the jobs behind it, so wide jobs are never
starved; ``submit`` rejects a window wider than the bridge, so every
admitted job can eventually run.  The engines spend their time
waiting on imagery and LLM round trips, so overlapping jobs turns
queue wait into useful work.  Overlap changes nothing a job reports:

* per-job observability — each job runs under its own
  :class:`~repro.obs.trace.Tracer` and
  :class:`~repro.obs.metrics.MetricsRegistry`, installed with
  ``use_tracer`` / ``use_metrics``.  Both are context-scoped, so every
  job gets a clean span tree rooted at ``service.job`` and a metrics
  delta that :func:`~repro.obs.audit.reconcile_survey` can check;
* byte-identical reports — every location tallies its fees, retries,
  cache traffic and cascade routing into its own
  :class:`~repro.obs.scope.Tally`, never reading the shared meter,
  classifier or cache, so a job's report equals a standalone
  ``survey_async`` run with the same parameters however it overlaps;
* who pays — a tenant's bill is the imagery fee rebuilt from its
  job's own checkpoint (below).  Two running jobs that request the
  same LLM response share one upstream call through the cache, but
  that never moves either bill; which job the cache counts as the
  leader depends on timing and is observability only.

**Billing — reserve, run, settle, exactly once.**  At dispatch the
scheduler reserves the spec's worst-case imagery estimate against the
tenant's ledger; at the terminal transition it settles the *canonical*
fee — rebuilt from the job's durable per-location checkpoint by
:func:`~repro.service.store.canonical_fees_usd` — in the **same**
fsynced manifest write as the terminal state.  A SIGKILL therefore
leaves either a terminal job with its fee settled, or a non-terminal
job with nothing settled; recovery re-queues (or fails-clean and
salvage-settles) the latter, and terminal records are frozen, so no
tenant is ever billed twice for a location.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import asyncio

from ..durable import atomic_write_json
from ..obs.audit import SERVICE_STAGES, audit_trace, reconcile_survey
from ..obs.metrics import MetricsRegistry, use_metrics
from ..obs.trace import Tracer, use_tracer
from ..resilience.checkpoint import SurveyCheckpoint
from .jobs import (
    JobRecord,
    JobSpec,
    JobState,
    ServiceError,
    UnknownJobError,
    estimated_fee_usd,
)
from .middleware import DEFAULT_MIDDLEWARE, JobContext, run_middleware_chain
from .quota import (
    BudgetExhaustedError,
    QueueFullError,
    TenantLedger,
    TenantQuota,
    TenantQuotaError,
)
from .sinks import ResultSink
from .stack import ServiceStack
from .store import JobStore, canonical_fees_usd, checkpoint_key

__all__ = ["JobCancelled", "SurveyService"]


class JobCancelled(ServiceError):
    """Raised inside a running job when its cancellation was requested."""


class _TappedCheckpoint(SurveyCheckpoint):
    """The engine's checkpoint with a progress tap on every record.

    The daemon owns each job's checkpoint (it passes it to the engine
    via ``checkpoint_store=``) precisely so it can observe per-location
    completions *as they durably land* — the tap fires after the
    location is persisted, which is also the instant it becomes
    billable.  The tap is where mid-stream cancellation takes effect:
    raising :class:`JobCancelled` aborts the engine between locations,
    leaving every already-recorded location checkpointed and billed
    and nothing else.
    """

    def __init__(self, path, key, on_record) -> None:
        super().__init__(path, key)
        self._on_record = on_record

    def record(self, index: int, payload: dict) -> None:
        super().record(index, payload)
        self._on_record(index, payload)


class SurveyService:
    """Multi-tenant survey daemon over one shared :class:`ServiceStack`."""

    def __init__(
        self,
        stack: ServiceStack,
        state_dir: str | Path,
        *,
        default_quota: TenantQuota | None = None,
        quotas: dict[str, TenantQuota] | None = None,
        max_queue_depth: int = 16,
        max_attempts: int = 2,
        sinks: Iterable[ResultSink] = (),
        middleware: Sequence = DEFAULT_MIDDLEWARE,
        close_stack: bool = True,
    ) -> None:
        if max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be positive: {max_queue_depth}"
            )
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be positive: {max_attempts}")
        self.stack = stack
        self.clock = stack.clock
        self.store = JobStore(state_dir)
        self.default_quota = default_quota or TenantQuota()
        self.quotas = dict(quotas or {})
        self.max_queue_depth = max_queue_depth
        self.max_attempts = max_attempts
        self.sinks: list[ResultSink] = list(sinks)
        self.middleware = tuple(middleware)
        self._close_stack = close_stack
        self._ledgers: dict[str, TenantLedger] = {}
        for tenant, books in self.store.ledger.items():
            self._ledgers[tenant] = TenantLedger(
                tenant,
                self.quota_for(tenant),
                settled_usd=float(books.get("settled_usd", 0.0)),
                grants_usd=float(books.get("grants_usd", 0.0)),
            )
        #: Per-job runtime observability: tracer, registry, reconcile
        #: findings, audit-trace findings.  Not durable — a restarted
        #: daemon has fresh books here, like any metrics process.
        self.observability: dict[str, dict] = {}
        self._watchers: dict[str, list[asyncio.Queue]] = {}
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._runner: asyncio.Task | None = None
        self._running = False
        #: Running jobs: job id → (task, the bridge threads it holds).
        self._jobs: dict[str, tuple[asyncio.Task, int]] = {}
        #: Most jobs this daemon has run at once (observability).
        self.peak_running = 0
        self._closed = False
        self.recovered: list[str] = self._recover()

    # -- recovery -------------------------------------------------------

    def _recover(self) -> list[str]:
        """Reconcile manifest state left by a previous daemon.

        RUNNING records are the crash signature: the old process died
        mid-job.  Each is either re-queued for resumption (attempts
        remaining — its checkpoint already holds the completed
        locations) or failed clean with a salvage settlement of
        exactly the checkpointed work.  Either way the decision is
        flushed before the daemon accepts new work.
        """
        notes: list[str] = []
        dirty = False
        for record in sorted(self.store.records.values(), key=lambda r: r.seq):
            if record.state is not JobState.RUNNING:
                continue
            dirty = True
            path = self.store.checkpoint_path(record.job_id)
            key = checkpoint_key(
                record.spec, self.stack.county(record.spec.county_seed).name
            )
            record.progress = (
                len(SurveyCheckpoint(path, key)) if path.exists() else 0
            )
            if record.attempts < self.max_attempts:
                record.transition(JobState.QUEUED)
                record.resumed = True
                note = (
                    f"recovered: re-queued after daemon restart "
                    f"(attempt {record.attempts}/{self.max_attempts}, "
                    f"{record.progress} locations checkpointed)"
                )
            else:
                fees = canonical_fees_usd(path, key)
                ledger = self._ledger(record.spec.tenant)
                ledger.settle(fees, fees)
                self.store.ledger[record.spec.tenant] = ledger.to_dict()
                record.transition(JobState.FAILED)
                record.error = (
                    "daemon restart exhausted attempts "
                    f"({record.attempts}/{self.max_attempts})"
                )
                record.finished_at = self.clock.now()
                record.fees_settled_usd = fees
                note = (
                    f"recovered: failed clean after daemon restart, "
                    f"salvage-settled ${fees:.6f}"
                )
            record.audit.append(note)
            notes.append(f"{record.job_id}: {note}")
        if dirty:
            self.store.flush()
        return notes

    # -- tenants --------------------------------------------------------

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    def _ledger(self, tenant: str) -> TenantLedger:
        if tenant not in self._ledgers:
            self._ledgers[tenant] = TenantLedger(tenant, self.quota_for(tenant))
        return self._ledgers[tenant]

    def ledger_snapshot(self, tenant: str) -> dict:
        ledger = self._ledger(tenant)
        return {
            "tenant": tenant,
            "budget_usd": ledger.budget_usd,
            "settled_usd": ledger.settled_usd,
            "reserved_usd": ledger.reserved_usd,
            "grants_usd": ledger.grants_usd,
            "remaining_usd": ledger.remaining_usd(),
        }

    # -- admission API --------------------------------------------------

    async def submit(self, spec: JobSpec) -> str:
        """Admit a job; returns its id or raises an admission error.

        Backpressure is explicit: a full admission queue rejects with
        :class:`QueueFullError` rather than buffering unboundedly, and
        quota/budget violations reject before anything durable is
        written — a rejected submit leaves no trace in the manifest.
        """
        self._require_open()
        spec.validate()
        quota = self.quota_for(spec.tenant)
        threads = self.stack.bridge.max_threads
        if spec.max_inflight > threads:
            raise TenantQuotaError(
                f"tenant {spec.tenant!r}: max_inflight {spec.max_inflight} "
                f"exceeds the shared bridge's {threads} threads"
            )
        if spec.n_locations > quota.max_locations_per_job:
            raise TenantQuotaError(
                f"tenant {spec.tenant!r}: {spec.n_locations} locations "
                f"exceeds per-job cap {quota.max_locations_per_job}"
            )
        active = sum(
            1
            for r in self.store.records.values()
            if r.spec.tenant == spec.tenant and not r.terminal
        )
        if active >= quota.max_active_jobs:
            raise TenantQuotaError(
                f"tenant {spec.tenant!r}: {active} active jobs at the "
                f"quota cap {quota.max_active_jobs}"
            )
        queued = sum(
            1
            for r in self.store.records.values()
            if r.state is JobState.QUEUED
        )
        if queued >= self.max_queue_depth:
            raise QueueFullError(
                f"admission queue full ({queued}/{self.max_queue_depth}); "
                "retry after a job finishes"
            )
        estimate = estimated_fee_usd(spec)
        ledger = self._ledger(spec.tenant)
        if not ledger.can_afford(estimate):
            if quota.on_budget_exhausted == "reject":
                raise BudgetExhaustedError(
                    f"tenant {spec.tenant!r}: estimate ${estimate:.3f} "
                    f"exceeds remaining budget "
                    f"${ledger.remaining_usd():.3f}"
                )
            record = self.store.allocate(spec, self.clock.now())
            record.audit.append(
                f"paused: estimate ${estimate:.3f} awaits a budget grant"
            )
            self.store.flush()
            return record.job_id
        record = self.store.allocate(spec, self.clock.now())
        self.store.flush()
        self._kick()
        return record.job_id

    async def status(self, job_id: str) -> JobRecord:
        return self._record(job_id).snapshot()

    async def result(self, job_id: str) -> dict | None:
        """The DONE job's report payload, or ``None`` before/without one."""
        self._record(job_id)
        return self.store.read_report(job_id)

    async def cancel(self, job_id: str) -> bool:
        """Request cancellation; returns whether it could still matter.

        A QUEUED job cancels immediately (terminal, zero fees); a
        RUNNING job gets its flag set and aborts at the next completed
        location, keeping (and paying for) everything checkpointed so
        far.  Terminal jobs are left untouched.
        """
        record = self._record(job_id)
        if record.terminal:
            return False
        if record.state is JobState.QUEUED:
            record.transition(JobState.CANCELLED)
            record.finished_at = self.clock.now()
            record.fees_settled_usd = 0.0
            record.audit.append("cancelled while queued")
            self.store.flush()
            self._finish_side_effects(record)
            return True
        record.cancel_requested = True
        return True

    async def grant_budget(self, tenant: str, usd: float) -> dict:
        """Durably extend a tenant's budget; wakes paused jobs."""
        self._require_open()
        ledger = self._ledger(tenant)
        ledger.grant(usd)
        self.store.ledger[tenant] = ledger.to_dict()
        self.store.flush()
        self._kick()
        return self.ledger_snapshot(tenant)

    async def watch(self, job_id: str):
        """Async-iterate a job's progress events until it is terminal."""
        record = self._record(job_id)
        if record.terminal:
            yield self._event(record, "terminal")
            return
        queue: asyncio.Queue = asyncio.Queue()
        self._watchers.setdefault(job_id, []).append(queue)
        try:
            while True:
                event = await queue.get()
                yield event
                if event["terminal"]:
                    return
        finally:
            self._watchers.get(job_id, []) and self._watchers[
                job_id
            ].remove(queue)

    def jobs(self) -> list[JobRecord]:
        return [
            record.snapshot()
            for record in sorted(
                self.store.records.values(), key=lambda r: r.seq
            )
        ]

    # -- scheduling -----------------------------------------------------

    def _record(self, job_id: str) -> JobRecord:
        try:
            return self.store.records[job_id]
        except KeyError:
            raise UnknownJobError(job_id) from None

    def _kick(self) -> None:
        self._idle.clear()
        self._wake.set()

    def _next_dispatch(self) -> JobRecord | None:
        """The head job, if it fits the thread budget now; else ``None``.

        The head is the highest-priority affordable QUEUED job, FIFO
        within a tier.  Jobs whose tenant cannot afford their
        reservation are skipped when the tenant's policy is ``pause``
        (they wait for a grant) and failed clean when it is ``reject``
        — but only once the tenant holds no reservation: a running job
        of the same tenant will settle at or below its estimate, and a
        serial daemon would have waited for that settlement before
        judging the next job.

        The head runs only if the ``max_inflight`` of every running job
        plus its own fits in the shared bridge's threads; a head that
        does not fit blocks the jobs behind it, so a wide job is never
        starved by narrow ones overtaking it.
        """
        candidates = sorted(
            (
                r
                for r in self.store.records.values()
                if r.state is JobState.QUEUED
            ),
            key=lambda r: (-r.spec.priority, r.seq),
        )
        for record in candidates:
            ledger = self._ledger(record.spec.tenant)
            estimate = estimated_fee_usd(record.spec)
            if ledger.can_afford(estimate):
                break
            if ledger.reserved_usd > 0:
                continue
            if self.quota_for(record.spec.tenant).on_budget_exhausted == (
                "reject"
            ):
                record.transition(JobState.FAILED)
                record.error = (
                    f"budget exhausted before dispatch: estimate "
                    f"${estimate:.3f} > remaining "
                    f"${ledger.remaining_usd():.3f}"
                )
                record.finished_at = self.clock.now()
                record.fees_settled_usd = 0.0
                self.store.flush()
                self._finish_side_effects(record)
        else:
            return None
        # A running job parks at most one bridge call per in-flight
        # location (its imagery dispatch or its classify window, never
        # both), so the summed windows are the threads in use.
        in_use = sum(threads for _, threads in self._jobs.values())
        if in_use + record.spec.max_inflight > self.stack.bridge.max_threads:
            return None
        return record

    async def run_until_idle(self) -> int:
        """Run every runnable job to completion; returns how many ran.

        The entry point tests and the ``--selftest`` drill use instead
        of the background scheduler.  It is the same dispatcher: jobs
        start in priority-then-FIFO order and run concurrently within
        the bridge's thread budget; it returns once nothing is running
        and nothing queued can start (every job is terminal or waiting
        for a budget grant).  A job re-queued after a failed attempt
        counts once per dispatch.
        """
        self._require_open()
        return await self._dispatch(until_idle=True)

    async def start(self) -> None:
        """Launch the background scheduler loop."""
        self._require_open()
        if self._runner is not None:
            return
        self._running = True
        self._runner = asyncio.get_running_loop().create_task(
            self._dispatch(until_idle=False)
        )

    async def stop(self) -> None:
        """Stop dispatching and wait for every running job to finish."""
        self._running = False
        self._wake.set()
        if self._runner is not None:
            await self._runner
            self._runner = None

    async def drain(self) -> None:
        """Wait until nothing is dispatchable (all terminal or paused)."""
        await self._idle.wait()

    async def _dispatch(self, *, until_idle: bool) -> int:
        """The one dispatcher behind ``run_until_idle`` and ``start``.

        Launches every job that fits, then sleeps until a job finishes
        or an admission call kicks it.  The background loop keeps going
        until :meth:`stop`; then it launches nothing more and returns
        once the running jobs have finished.
        """
        launched = 0
        while True:
            self._reap()
            if until_idle or self._running:
                while (record := self._next_dispatch()) is not None:
                    self._launch(record)
                    launched += 1
            if not self._jobs:
                self._idle.set()
                if until_idle or not self._running:
                    return launched
            # No await since the checks above, so no kick can be lost.
            self._wake.clear()
            await self._wake.wait()

    def _reap(self) -> None:
        """Forget finished job tasks; a daemon fault in one re-raises."""
        for job_id, (task, _) in list(self._jobs.items()):
            if task.done():
                del self._jobs[job_id]
                task.result()

    # -- execution ------------------------------------------------------

    def _launch(self, record: JobRecord) -> None:
        """Reserve and mark the job RUNNING, then run it as its own task.

        The reservation and the RUNNING flush happen here, before the
        task is created, so the next :meth:`_next_dispatch` already
        sees the tenant's reserved budget and the threads this job
        holds.
        """
        spec = record.spec
        estimate = estimated_fee_usd(spec)
        self._ledger(spec.tenant).reserve(estimate)
        record.transition(JobState.RUNNING)
        record.attempts += 1
        record.started_at = self.clock.now()
        record.cancel_requested = False
        self.store.flush()
        self._notify(record, "running")
        task = asyncio.get_running_loop().create_task(
            self._run_one(record, estimate)
        )
        self._jobs[record.job_id] = (task, spec.max_inflight)
        self.peak_running = max(self.peak_running, len(self._jobs))
        self._idle.clear()
        task.add_done_callback(lambda _: self._wake.set())

    async def _run_one(self, record: JobRecord, estimate: float) -> None:
        spec = record.spec
        ledger = self._ledger(spec.tenant)

        county = self.stack.county(spec.county_seed)
        key = checkpoint_key(spec, county.name)
        path = self.store.checkpoint_path(record.job_id)

        def on_record(index: int, payload: dict) -> None:
            record.progress += 1
            self._notify(record, "progress")
            if record.cancel_requested:
                raise JobCancelled(record.job_id)

        checkpoint = _TappedCheckpoint(path, key, on_record)
        record.progress = len(checkpoint)
        if record.progress:
            record.resumed = True

        tracer = Tracer(trace_id=record.job_id)
        registry = MetricsRegistry()
        ctx = JobContext(
            record=record,
            estimate_usd=estimate,
            tracer=tracer,
            registry=registry,
        )
        decoder = self.stack.decoder(spec.kind, spec.county_seed)

        async def engine_run():
            if spec.kind == "classify":
                return await decoder.survey_stream_async(
                    county,
                    spec.n_locations,
                    seed=spec.seed,
                    max_inflight=spec.max_inflight,
                    checkpoint_store=checkpoint,
                    bridge=self.stack.bridge,
                )
            return await decoder.survey_async(
                county,
                spec.n_locations,
                seed=spec.seed,
                max_inflight=spec.max_inflight,
                checkpoint_store=checkpoint,
                bridge=self.stack.bridge,
            )

        try:
            with use_metrics(registry), use_tracer(tracer):
                with tracer.span(
                    "service.job",
                    job_id=record.job_id,
                    tenant=spec.tenant,
                    kind=spec.kind,
                ):
                    report = await run_middleware_chain(
                        self.middleware, ctx, engine_run
                    )
        except JobCancelled:
            self._settle_terminal(
                record, ledger, estimate, JobState.CANCELLED, key, path
            )
            record.audit.append(
                f"cancelled mid-stream after {record.progress} locations"
            )
            self.store.flush()
            self._finish_side_effects(record, tracer, registry)
            return
        except Exception as err:  # noqa: BLE001 - job isolation boundary
            if record.cancel_requested:
                self._settle_terminal(
                    record, ledger, estimate, JobState.CANCELLED, key, path
                )
                record.audit.append(f"cancelled; engine aborted with: {err}")
                self.store.flush()
                self._finish_side_effects(record, tracer, registry)
                return
            if record.attempts < self.max_attempts:
                ledger.release(estimate)
                record.transition(JobState.QUEUED)
                record.audit.append(
                    f"attempt {record.attempts} failed "
                    f"({type(err).__name__}: {err}); re-queued"
                )
                self.store.flush()
                self._notify(record, "requeued")
                return
            self._settle_terminal(
                record, ledger, estimate, JobState.FAILED, key, path
            )
            record.error = f"{type(err).__name__}: {err}"
            self.store.flush()
            self._finish_side_effects(record, tracer, registry)
            return

        payload = json.loads(report.to_json())
        report_path = self.store.write_report(record.job_id, payload)
        record.report_path = str(report_path)
        for name, value in sorted(ctx.annotations.items()):
            record.audit.append(f"{name}={value}")
        self._settle_terminal(
            record, ledger, estimate, JobState.DONE, key, path
        )
        self.store.flush()
        self._finish_side_effects(record, tracer, registry, report)

    def _settle_terminal(
        self,
        record: JobRecord,
        ledger: TenantLedger,
        estimate: float,
        state: JobState,
        key: dict,
        path: Path,
    ) -> None:
        """Bind settlement to the terminal transition (one flush later).

        The canonical fee comes from the durable checkpoint, never the
        in-memory report — so however many attempts the job burned and
        whatever the daemon's meter says, each completed location is
        settled exactly once.
        """
        fees = canonical_fees_usd(path, key)
        ledger.settle(estimate, fees)
        self.store.ledger[record.spec.tenant] = ledger.to_dict()
        record.transition(state)
        record.finished_at = self.clock.now()
        record.fees_settled_usd = fees

    def _finish_side_effects(
        self,
        record: JobRecord,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
        report=None,
    ) -> None:
        """Post-flush delivery: obs books, sinks, watcher notification."""
        if tracer is not None and registry is not None:
            books: dict = {
                "tracer": tracer,
                "registry": registry,
                "metrics_delta": registry.delta_since(
                    {"counters": {}, "gauges": {}, "histograms": {}}
                ),
            }
            if report is not None:
                books["reconcile"] = reconcile_survey(report)
                books["audit_trace"] = audit_trace(tracer, SERVICE_STAGES)
            self.observability[record.job_id] = books
        payload = (
            self.store.read_report(record.job_id)
            if record.state is JobState.DONE
            else None
        )
        for sink in self.sinks:
            try:
                sink.deliver(record.snapshot(), payload)
            except Exception as err:  # noqa: BLE001 - sink isolation
                record.audit.append(
                    f"sink {type(sink).__name__} failed: "
                    f"{type(err).__name__}: {err}"
                )
        self._notify(record, "terminal")

    # -- events ---------------------------------------------------------

    def _event(self, record: JobRecord, kind: str) -> dict:
        return {
            "job_id": record.job_id,
            "event": kind,
            "state": record.state.value,
            "progress": record.progress,
            "terminal": record.terminal,
        }

    def _notify(self, record: JobRecord, kind: str) -> None:
        for queue in self._watchers.get(record.job_id, []):
            queue.put_nowait(self._event(record, kind))

    # -- accounting views ----------------------------------------------

    def counts(self) -> dict[str, int]:
        """Job-state census; the conservation-law invariant's left side."""
        census = {state.value: 0 for state in JobState}
        for record in self.store.records.values():
            census[record.state.value] += 1
        census["submitted"] = len(self.store.records)
        return census

    def export_state(self, path: str | Path) -> None:
        """Write a human-auditable daemon snapshot (not the manifest)."""
        atomic_write_json(
            Path(path),
            {
                "counts": self.counts(),
                "ledgers": {
                    tenant: self.ledger_snapshot(tenant)
                    for tenant in sorted(self._ledgers)
                },
                "recovered": self.recovered,
            },
        )

    # -- lifecycle ------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise ServiceError("service is closed")

    async def close(self) -> None:
        """Stop scheduling, flush, and release the shared stack."""
        if self._closed:
            return
        await self.stop()
        self._closed = True
        self.store.flush()
        if self._close_stack:
            self.stack.close()

    async def __aenter__(self) -> "SurveyService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()
