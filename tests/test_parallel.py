"""Unit tests for the parallel execution engine and thread-safety
of the resilience primitives it shares across workers."""

from __future__ import annotations

import threading
import time

import pytest

from repro.llm.base import Usage
from repro.llm.batch import TokenBucket
from repro.parallel import (
    ParallelExecutor,
    TaskOutcome,
    effective_cpu_count,
    resolve_workers,
)
from repro.resilience import (
    CircuitBreaker,
    RetryOutcome,
    RetryStats,
    WallClock,
)


def _square(item: int) -> int:
    return item * item


def _fail_on_three(item: int) -> int:
    if item == 3:
        raise ValueError("boom at 3")
    return item


class TestResolveWorkers:
    def test_explicit_count_passes_through(self):
        assert resolve_workers(3) == 3

    def test_none_and_zero_resolve_to_cpu_count(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1

    def test_auto_resolves_to_effective_cpu_count(self):
        assert resolve_workers("auto") == effective_cpu_count()

    def test_other_strings_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers("many")

    @pytest.mark.parametrize("workers", [-1, -3])
    def test_negative_counts_rejected(self, workers):
        # A negative count is a mistake, not a request for every core.
        with pytest.raises(ValueError, match="non-negative"):
            resolve_workers(workers)
        with pytest.raises(ValueError, match="non-negative"):
            ParallelExecutor(workers=workers)

    def test_effective_cpu_count_positive(self):
        assert effective_cpu_count() >= 1


class TestParallelExecutor:
    def test_auto_backend_is_serial_for_one_worker(self):
        assert ParallelExecutor(workers=1).backend == "serial"
        assert ParallelExecutor(workers=4).backend == "thread"

    def test_rejects_unknown_backend(self):
        # The strategy follows from the worker count alone; there is no
        # backend knob to pass.
        with pytest.raises(TypeError):
            ParallelExecutor(workers=2, backend="fork")

    @pytest.mark.parametrize("workers", [1, 4])
    def test_results_come_back_in_submission_order(self, workers):
        def task(item: int) -> int:
            # Later submissions finish first under the thread backend.
            time.sleep(0.002 * (8 - item))
            return item * item

        outcomes = ParallelExecutor(workers=workers).run(task, list(range(8)))
        assert [outcome.index for outcome in outcomes] == list(range(8))
        assert [outcome.result() for outcome in outcomes] == [
            item * item for item in range(8)
        ]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_error_is_captured_and_reraised(self, workers):
        def task(item: int) -> int:
            if item == 3:
                raise ValueError("boom at 3")
            return item

        outcomes = ParallelExecutor(workers=workers).run(task, list(range(6)))
        assert [outcome.ok for outcome in outcomes] == [
            True, True, True, False, True, True
        ]
        with pytest.raises(ValueError, match="boom at 3"):
            outcomes[3].result()
        # Other tasks are unaffected by one failure.
        assert outcomes[5].result() == 5

    def test_bounded_in_flight(self):
        running = 0
        peak = 0
        lock = threading.Lock()

        def task(item: int) -> int:
            nonlocal running, peak
            with lock:
                running += 1
                peak = max(peak, running)
            time.sleep(0.002)
            with lock:
                running -= 1
            return item

        ParallelExecutor(workers=3, max_in_flight=3).run(task, list(range(24)))
        assert peak <= 3

    def test_outcome_result_passthrough(self):
        assert TaskOutcome(index=0, value="v").result() == "v"

    def test_map_results_unwraps_values(self):
        executor = ParallelExecutor(workers=2)
        assert executor.map_results(_square, [1, 2, 3]) == [1, 4, 9]

    def test_map_results_reraises_first_error(self):
        with pytest.raises(ValueError, match="boom at 3"):
            ParallelExecutor(workers=2).map_results(
                _fail_on_three, list(range(6))
            )

    def test_map_results_joins_its_pool_before_reraising(self):
        # The pool must not wait for the garbage collector: a collection
        # that closes it inside another thread's start-up deadlocks.
        before = threading.active_count()
        with pytest.raises(ValueError, match="boom at 3"):
            ParallelExecutor(workers=2).map_results(
                _fail_on_three, list(range(6))
            )
        assert threading.active_count() == before


class TestTokenBucketThreadSafety:
    def test_no_double_spend_under_contention(self):
        """8 threads × 25 acquires cannot finish faster than the rate
        allows: the pre-fix race let two threads spend one token."""
        bucket = TokenBucket(rate=1000.0, capacity=100.0, clock=WallClock())
        acquires_per_thread = 25
        n_threads = 8

        def hammer() -> None:
            for _ in range(acquires_per_thread):
                bucket.acquire()

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started

        # 200 tokens spent from a burst of 100 at 1000/s: the last 100
        # must wait for refill, so at least ~0.1 s of wall time.
        assert elapsed >= 0.095
        # The bucket never goes negative (each token spent once).
        assert bucket._tokens >= 0.0

    def test_serial_semantics_unchanged(self):
        from repro.resilience import VirtualClock

        clock = VirtualClock()
        bucket = TokenBucket(rate=2.0, capacity=1.0, clock=clock)
        assert bucket.acquire() == 0.0
        assert bucket.acquire() == pytest.approx(0.5)
        assert clock.sleeps == [pytest.approx(0.5)]


class TestSharedStatsThreadSafety:
    def test_retry_stats_absorb_is_atomic(self):
        stats = RetryStats()
        outcome = RetryOutcome(value=1, attempts=2, retries=1, slept_s=0.25)

        def absorb_many() -> None:
            for _ in range(500):
                stats.absorb(outcome)

        threads = [threading.Thread(target=absorb_many) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert stats.operations == 4000
        assert stats.attempts == 8000
        assert stats.retries == 4000
        assert stats.slept_s == pytest.approx(1000.0)

    def test_client_stats_record_is_atomic(self):
        from repro.llm.base import ClientStats

        stats = ClientStats()

        def record_many() -> None:
            for _ in range(500):
                stats.record(Usage(prompt_tokens=3, completion_tokens=2))

        threads = [threading.Thread(target=record_many) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert stats.requests == 4000
        assert stats.prompt_tokens == 12000
        assert stats.completion_tokens == 8000

    def test_breaker_trips_exactly_under_contention(self):
        breaker = CircuitBreaker(
            name="x", failure_threshold=100, recovery_time_s=1e9
        )

        def fail_many() -> None:
            for _ in range(100):
                breaker.record_failure()

        threads = [threading.Thread(target=fail_many) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not breaker.allow()
        assert breaker.opens == 1
