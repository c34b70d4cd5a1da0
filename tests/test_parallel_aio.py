"""Unit tests for the asyncio pipeline primitives (``repro.parallel.aio``).

These cover the building blocks in isolation — ordering and windowing
of :func:`imap_async`, the AIMD congestion window and the sync/async
thread bridge — while ``tests/test_golden_report.py`` proves the
assembled engine is byte-identical to the serial survey.
"""

import asyncio
import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.parallel import AIMDController, ThreadBridge, imap_async


class TestImapAsync:
    def test_rejects_non_positive_window(self):
        async def main():
            async for _ in imap_async(asyncio.sleep, [0], max_inflight=0):
                pass

        with pytest.raises(ValueError, match="max_inflight"):
            asyncio.run(main())

    def test_results_arrive_in_submission_order(self):
        """Later-submitted items finish first; yields stay ordered."""
        n = 6

        async def work(i):
            await asyncio.sleep((n - i) * 0.002)  # reverse completion order
            return i * 10

        async def main():
            return [
                outcome
                async for outcome in imap_async(
                    work, range(n), max_inflight=n
                )
            ]

        outcomes = asyncio.run(main())
        assert [o.index for o in outcomes] == list(range(n))
        assert [o.value for o in outcomes] == [i * 10 for i in range(n)]

    def test_inflight_never_exceeds_the_window(self):
        running = 0
        peak = 0

        async def work(i):
            nonlocal running, peak
            running += 1
            peak = max(peak, running)
            await asyncio.sleep(0.001)
            running -= 1
            return i

        async def main():
            return [o async for o in imap_async(work, range(12), max_inflight=3)]

        outcomes = asyncio.run(main())
        assert len(outcomes) == 12
        assert peak <= 3

    def test_errors_are_captured_not_raised(self):
        async def work(i):
            if i == 2:
                raise RuntimeError("boom")
            return i

        async def main():
            return [o async for o in imap_async(work, range(4), max_inflight=2)]

        with use_metrics(MetricsRegistry()) as registry:
            outcomes = asyncio.run(main())
            assert registry.counter("parallel.tasks.errors") == 1
            assert registry.counter("parallel.tasks.completed") == 3
        assert [o.value for o in outcomes if o.error is None] == [0, 1, 3]
        failed = outcomes[2]
        assert isinstance(failed.error, RuntimeError)

    def test_abandoned_iteration_cancels_inflight_work(self):
        started = []
        release = asyncio.Event()

        async def work(i):
            started.append(i)
            if i == 0:
                return i
            await release.wait()  # parks forever unless cancelled
            return i

        async def main():
            agen = imap_async(work, range(10), max_inflight=4)
            first = await agen.__anext__()
            await agen.aclose()  # must cancel and drain, not hang
            return first

        first = asyncio.run(main())  # asyncio.run fails on leaked tasks
        assert first.value == 0
        assert len(started) <= 5  # the stream was drawn lazily


class TestThreadBridge:
    def test_rejects_non_positive_cap(self):
        with pytest.raises(ValueError, match="max_threads"):
            ThreadBridge(0)

    def test_runs_sync_functions_off_loop(self):
        def add(a, b):
            assert threading.current_thread().name.startswith("repro-aio")
            return a + b

        async def main():
            with ThreadBridge(2) as bridge:
                return await bridge.run(add, 2, 3)

        assert asyncio.run(main()) == 5

    def test_cap_bounds_concurrent_sync_calls(self):
        running = 0
        peak = 0
        lock = threading.Lock()

        def blocking():
            nonlocal running, peak
            with lock:
                running += 1
                peak = max(peak, running)
            import time

            time.sleep(0.005)
            with lock:
                running -= 1

        async def main():
            with ThreadBridge(2) as bridge:
                await asyncio.gather(*(bridge.run(blocking) for _ in range(8)))

        asyncio.run(main())
        assert peak <= 2


class TestAIMDController:
    def test_validates_limits(self):
        with pytest.raises(ValueError, match="min_limit"):
            AIMDController(4, min_limit=5)
        with pytest.raises(ValueError, match="decrease_factor"):
            AIMDController(4, decrease_factor=1.0)
        with pytest.raises(ValueError, match="increase_step"):
            AIMDController(4, increase_step=0)

    def test_slot_blocks_at_the_window_and_wakes_on_release(self):
        async def main():
            ctrl = AIMDController(2, max_limit=4)
            await ctrl.acquire()
            await ctrl.acquire()
            third = asyncio.ensure_future(ctrl.acquire())
            await asyncio.sleep(0)
            assert not third.done()  # window full: third caller parks
            ctrl.release()
            await third  # release hands the freed slot over
            assert ctrl.inflight == 2
            assert ctrl.peak_inflight == 2
            ctrl.release()
            ctrl.release()

        asyncio.run(main())

    def test_additive_increase_after_a_clean_window(self):
        ctrl = AIMDController(2, max_limit=4, increase_window=3)
        for _ in range(2):
            ctrl.on_success()
        assert ctrl.limit == 2  # streak not complete yet
        ctrl.on_success()
        assert ctrl.limit == 3
        assert ctrl.increases == 1

    def test_multiplicative_decrease_floors_at_min_limit(self):
        ctrl = AIMDController(8, min_limit=2, increase_window=3)
        ctrl.on_success()  # a part-built streak ...
        ctrl.on_throttle()
        assert ctrl.limit == 4
        for _ in range(3):  # ... was reset by the throttle
            ctrl.on_success()
        assert ctrl.limit == 5
        for _ in range(10):
            ctrl.on_throttle()
        assert ctrl.limit == 2  # never below the floor
        assert ctrl.throttle_events == 11

    def test_stats_summarize_the_run(self):
        ctrl = AIMDController(4, increase_window=1)
        ctrl.on_success()
        ctrl.on_throttle()
        assert ctrl.stats() == {
            "initial_limit": 4,
            "final_limit": 2,
            "peak_inflight": 0,
            "throttle_events": 1,
            "increases": 1,
            "decreases": 1,
        }
