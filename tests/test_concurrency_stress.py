"""Concurrency stress tests: shared primitives under 16-thread load.

The rate limiter, the circuit breaker, and the metrics registry are
the three objects every worker thread in a parallel survey shares.
Each test hammers one of them from 16 threads and asserts *exact*
conserved quantities — not "roughly right under load" but the precise
counts a correct lock discipline guarantees:

* every :class:`~repro.llm.batch.TokenBucket` token is spent exactly
  once (no double-spends), and the total admission rate never exceeds
  the configured one;
* a failing :class:`~repro.resilience.breaker.CircuitBreaker` trips
  exactly once however many threads report failures concurrently;
* :class:`~repro.obs.metrics.MetricsRegistry` loses no increments and
  no histogram observations;
* every seat of a :func:`~repro.llm.base.complete_seats` window
  settles with its own response or error.
"""

from __future__ import annotations

import contextvars
import sys
import threading
import time

import pytest

from repro.llm import BatchError
from repro.llm.base import complete_seats
from repro.llm.batch import TokenBucket
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.scope import Tally, use_tally
from repro.resilience.breaker import CircuitBreaker, CircuitState
from repro.resilience.clock import VirtualClock, WallClock

N_THREADS = 16


def _hammer(worker, n_threads: int = N_THREADS) -> None:
    """Run ``worker(thread_index)`` on ``n_threads`` threads, joined.

    A barrier lines every thread up first so the contended window is
    as wide as possible; worker exceptions propagate to the test.  Each
    thread runs in a copy of the caller's context, so a registry scoped
    with ``use_metrics`` reaches it.
    """
    barrier = threading.Barrier(n_threads)
    errors: list[BaseException] = []

    def run(index: int) -> None:
        barrier.wait()
        try:
            worker(index)
        except BaseException as err:  # pragma: no cover - failure path
            errors.append(err)

    threads = [
        threading.Thread(
            target=contextvars.copy_context().run, args=(run, index)
        )
        for index in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestTokenBucketStress:
    def test_no_token_is_double_spent(self):
        """400 acquires against rate=400/s: wall time bounds admission.

        If two threads ever double-spent a token the 400 admissions
        would finish faster than the refill rate physically allows.
        ``capacity`` starts 32 tokens in the burst budget; the other
        368 must be refilled at 400/s, so the run cannot complete in
        under (400 - 32) / 400 seconds.
        """
        rate, capacity, per_thread = 400.0, 32.0, 25
        total = N_THREADS * per_thread
        bucket = TokenBucket(rate=rate, capacity=capacity, clock=WallClock())
        registry = MetricsRegistry()
        waits: list[float] = [0.0] * N_THREADS

        def worker(index: int) -> None:
            for _ in range(per_thread):
                waits[index] += bucket.acquire()

        started = time.perf_counter()
        with use_metrics(registry):
            _hammer(worker)
        elapsed = time.perf_counter() - started

        floor = (total - capacity) / rate
        assert elapsed >= floor, (
            f"{total} admissions in {elapsed:.3f}s beats the physical "
            f"floor {floor:.3f}s — a token was double-spent"
        )
        assert all(wait >= 0 for wait in waits)
        # The bucket cannot hold more than it started with plus refill.
        bucket._refill()
        assert bucket._tokens <= capacity + 1e-9

    def test_wait_metrics_conserve_total_waited_time(self):
        """ratelimit.waited_s equals the sum every thread observed."""
        bucket = TokenBucket(rate=200.0, capacity=1.0, clock=WallClock())
        registry = MetricsRegistry()
        waited = [0.0] * N_THREADS
        counts = [0] * N_THREADS

        def worker(index: int) -> None:
            for _ in range(10):
                wait = bucket.acquire()
                waited[index] += wait
                if wait > 0:
                    counts[index] += 1

        with use_metrics(registry):
            _hammer(worker)

        assert registry.counter("ratelimit.waits") == sum(counts)
        assert registry.counter("ratelimit.waited_s") == pytest.approx(
            sum(waited)
        )


class TestCircuitBreakerStress:
    def test_concurrent_failures_trip_exactly_once(self):
        """160 racing failure reports produce one trip, not sixteen."""
        breaker = CircuitBreaker(
            name="stress",
            failure_threshold=5,
            recovery_time_s=1e9,  # stays open: no half-open re-trips
            clock=VirtualClock(),
        )
        registry = MetricsRegistry()

        def worker(index: int) -> None:
            for _ in range(10):
                breaker.allow()
                breaker.record_failure()

        with use_metrics(registry):
            _hammer(worker)

        assert breaker.state is CircuitState.OPEN
        assert breaker.opens == 1
        assert registry.counter("breaker.trips") == 1

    def test_successes_keep_the_circuit_closed_under_load(self):
        breaker = CircuitBreaker(
            name="healthy", failure_threshold=3, clock=VirtualClock()
        )

        def worker(index: int) -> None:
            for _ in range(50):
                assert breaker.allow()
                breaker.record_success()

        _hammer(worker)
        assert breaker.state is CircuitState.CLOSED
        assert breaker.opens == 0


class TestMetricsRegistryStress:
    def test_no_increment_or_observation_is_lost(self):
        registry = MetricsRegistry()
        per_thread = 1000

        def worker(index: int) -> None:
            for step in range(per_thread):
                registry.inc("stress.shared")
                registry.inc(f"stress.thread.{index}")
                registry.inc("stress.weighted", 0.5)
                registry.observe(
                    "stress.values", float(step % 7), edges=(2.0, 5.0)
                )

        _hammer(worker)

        total = N_THREADS * per_thread
        assert registry.counter("stress.shared") == total
        assert registry.counter("stress.weighted") == pytest.approx(
            0.5 * total
        )
        for index in range(N_THREADS):
            assert registry.counter(f"stress.thread.{index}") == per_thread
        hist = registry.snapshot()["histograms"]["stress.values"]
        assert hist["count"] == total
        # step % 7 cycles 0..6: 0,1,2 -> first bucket; 3,4,5 -> second;
        # 6 -> overflow.  per_thread is a multiple of 7 plus remainder;
        # compute the exact expectation instead of assuming.
        cycle = [0, 0, 0]
        for step in range(per_thread):
            value = step % 7
            cycle[0 if value <= 2 else 1 if value <= 5 else 2] += 1
        assert hist["counts"] == [bucket * N_THREADS for bucket in cycle]
        assert hist["sum"] == pytest.approx(
            N_THREADS * sum(step % 7 for step in range(per_thread))
        )


class _OddSeatsFail:
    """Answers ``ans:<n>`` for even ``n``; odd ``n`` fail their seat."""

    def complete_batch(self, requests):
        outcomes = [
            ValueError(n) if n % 2 else f"ans:{n}" for n in requests
        ]
        if any(isinstance(o, Exception) for o in outcomes):
            raise BatchError(outcomes)
        return outcomes


class TestCompleteSeatsStress:
    def test_every_seat_settles_with_its_own_outcome(self):
        """Location windows race on one client and one set of books.

        Each thread sends whole groups; every seat must get exactly its
        own answer or error, and the shared tally and registry must
        count every served seat once.
        """
        client = _OddSeatsFail()
        books = Tally()
        rounds = 40

        def worker(index: int) -> None:
            with use_tally(books):
                for step in range(rounds):
                    base = (index * rounds + step) * 10
                    group = [base + k for k in range(4)]
                    for n, seat in zip(group, complete_seats(client, group)):
                        if n % 2:
                            assert isinstance(seat, ValueError)
                            assert seat.args == (n,)
                        else:
                            assert seat == f"ans:{n}"

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with use_metrics(MetricsRegistry()) as registry:
                _hammer(worker)
        finally:
            sys.setswitchinterval(interval)

        calls = N_THREADS * rounds
        assert books.section("llm.microbatch") == {
            "batches": calls,
            "requests": 2 * calls,
            "seats": 4 * calls,
        }
        assert registry.counter("llm.microbatch.batches") == calls
        assert registry.counter("llm.microbatch.requests") == 2 * calls


class TestServiceDaemonUnderLoad:
    """16 tenant threads hammering one service daemon's admission API.

    The daemon's coroutine APIs all execute on its event loop, so the
    threads funnel through ``run_coroutine_threadsafe`` — exactly how
    an embedding host drives it.  The assertions are exact conserved
    quantities again: every admitted job is in the store (none lost),
    the fake engine never sees two jobs in flight (no double-starts),
    and the state census plus every tenant ledger reconcile when the
    dust settles.
    """

    def test_sixteen_tenants_submit_cancel_status(self, tmp_path):
        import asyncio

        from repro.service import (
            AdmissionError,
            JobSpec,
            JobState,
            SurveyService,
            TenantQuota,
        )
        from repro.service.store import canonical_fees_usd, checkpoint_key

        from .service_fakes import FakeStack

        loop = asyncio.new_event_loop()
        loop_thread = threading.Thread(target=loop.run_forever)
        loop_thread.start()

        def call(coro):
            return asyncio.run_coroutine_threadsafe(coro, loop).result(30)

        stack = FakeStack()
        service = SurveyService(
            stack,
            tmp_path / "state",
            default_quota=TenantQuota(max_active_jobs=64, budget_usd=5.0,
                                      on_budget_exhausted="pause"),
            max_queue_depth=10_000,
            close_stack=True,
        )
        call(service.start())

        admitted: list[list[str]] = [[] for _ in range(N_THREADS)]
        cancelled: list[list[str]] = [[] for _ in range(N_THREADS)]

        def worker(index: int) -> None:
            tenant = f"tenant-{index:02d}"
            for step in range(12):
                try:
                    job_id = call(
                        service.submit(
                            JobSpec(
                                tenant=tenant,
                                n_locations=1 + step % 2,
                                seed=index * 1000 + step,
                                priority=step % 3,
                            )
                        )
                    )
                    admitted[index].append(job_id)
                except AdmissionError:
                    continue
                if step % 4 == 3:
                    if call(service.cancel(job_id)):
                        cancelled[index].append(job_id)
                record = call(service.status(job_id))
                assert record.spec.tenant == tenant

        _hammer(worker)
        call(service.drain())
        call(service.close())
        loop.call_soon_threadsafe(loop.stop)
        loop_thread.join()
        loop.close()

        all_admitted = [job_id for per in admitted for job_id in per]
        # No lost jobs, no duplicate ids.
        assert len(set(all_admitted)) == len(all_admitted)
        for job_id in all_admitted:
            assert job_id in service.store.records

        # No double-starts: the fake engine saw strictly serial runs,
        # and nobody ran more often than the retry budget allows.
        assert stack.peak_concurrent == 1
        for record in service.store.records.values():
            assert record.attempts <= service.max_attempts

        # Census reconciles: every admitted job reached a terminal
        # state (budgets were sized to cover the whole schedule).
        counts = service.counts()
        assert counts["submitted"] == len(all_admitted)
        assert counts["queued"] == counts["running"] == 0
        assert (
            counts["done"] + counts["failed"] + counts["cancelled"]
            == len(all_admitted)
        )
        assert counts["done"] > 0
        assert counts["cancelled"] == sum(len(per) for per in cancelled)

        # Billing reconciles tenant by tenant, job by job.
        for index in range(N_THREADS):
            tenant = f"tenant-{index:02d}"
            books = service.ledger_snapshot(tenant)
            assert books["reserved_usd"] == 0.0
            expected = 0.0
            for job_id in admitted[index]:
                record = service.store.records[job_id]
                key = checkpoint_key(record.spec, "Durham")
                canonical = canonical_fees_usd(
                    service.store.checkpoint_path(job_id), key
                )
                assert record.fees_settled_usd == canonical
                expected += canonical
            assert books["settled_usd"] == pytest.approx(expected)
