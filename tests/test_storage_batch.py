"""Tests for the token-bucket rate limiter."""

import pytest

from repro.llm.batch import TokenBucket
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.resilience.clock import VirtualClock


class TestTokenBucket:
    def test_burst_within_capacity_is_free(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=1.0, capacity=5.0, clock=clock)
        waits = [bucket.acquire() for _ in range(5)]
        assert sum(waits) == 0.0

    def test_sustained_rate_enforced(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=2.0, capacity=1.0, clock=clock)
        bucket.acquire()
        wait = bucket.acquire()
        assert wait == pytest.approx(0.5)  # 2 req/s → 0.5 s apart

    def test_refills_over_time(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=1.0, capacity=2.0, clock=clock)
        bucket.acquire()
        bucket.acquire()
        clock.sleep(2.0)
        assert bucket.acquire() == 0.0

    def test_waits_are_recorded_in_the_throttle_metrics(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=2.0, capacity=1.0, clock=clock)
        with use_metrics(MetricsRegistry()) as registry:
            # The burst token is free; the next caller owes exactly one
            # refill interval, and the metrics record that wait.
            assert bucket.acquire() == 0.0
            assert bucket.acquire() == pytest.approx(0.5)
            assert clock.sleeps == [pytest.approx(0.5)]
            assert registry.counter("ratelimit.waits") == 1
            assert registry.counter("llm.throttle_wait_seconds") == (
                pytest.approx(0.5)
            )

    def test_refund_returns_tokens_up_to_capacity(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=1.0, capacity=3.0, clock=clock)
        for _ in range(3):
            bucket.acquire()
        bucket.refund(2)
        assert [bucket.acquire() for _ in range(2)] == [0.0, 0.0]
        assert bucket.acquire() == pytest.approx(1.0)
        # A refund never lifts the bucket above its capacity.
        clock.sleep(10.0)
        bucket.refund(5)
        assert [bucket.acquire() for _ in range(3)] == [0.0] * 3
        assert bucket.acquire() == pytest.approx(1.0)

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, capacity=1.0)

    @pytest.mark.parametrize(
        "rate,capacity",
        [
            # Less than one token: the bucket never refills to a whole
            # token, so acquire() would wait forever.
            (1.0, 0.5),
            (1.0, 0.999),
            # A NaN rate compares false everywhere and would wave every
            # request through instead of limiting it.
            (float("nan"), 1.0),
            (float("inf"), 1.0),
            (1.0, float("nan")),
            (1.0, float("inf")),
        ],
    )
    def test_rejects_unusable_parameters(self, rate, capacity):
        # Construction only: a bad bucket must never reach acquire().
        with pytest.raises(ValueError):
            TokenBucket(rate=rate, capacity=capacity, clock=VirtualClock())

    def test_bad_service_burst_is_rejected(self):
        from repro.service import ServiceStack

        with pytest.raises(ValueError, match="capacity"):
            ServiceStack(rate_limit_per_s=5.0, rate_limit_burst=0.5)
