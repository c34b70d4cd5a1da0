"""Lightweight fakes for scheduler-level service tests.

The real :class:`~repro.service.stack.ServiceStack` calibrates clients
and runs the full survey engine — exactly right for the golden session
and wrong for property/stress tests that need hundreds of jobs.  These
fakes keep the daemon's *own* machinery (admission, scheduling,
ledgers, checkpoints, settlement, recovery) fully real while replacing
the engine with a deterministic per-location recorder: every completed
location still lands in a real
:class:`~repro.resilience.checkpoint.SurveyCheckpoint` with the real
``images`` payload, so canonical fee reconstruction — the billing
invariant under test — runs the production code path.
"""

from __future__ import annotations

import asyncio
import json
from types import SimpleNamespace

from repro.resilience.clock import VirtualClock
from repro.service.jobs import CAPTURES_PER_LOCATION
from repro.service.stack import MAX_JOB_INFLIGHT


class FakeReport:
    """Just enough report surface for the daemon's DONE path."""

    def __init__(self, n_locations: int, fees_usd: float) -> None:
        self.n_locations = n_locations
        self.fees_usd = fees_usd
        self.metrics: dict = {}

    def to_json(self) -> str:
        return json.dumps(
            {"locations": self.n_locations, "fees_usd": self.fees_usd},
            sort_keys=True,
        )


class FakeDecoder:
    """Record one checkpoint entry per location, maybe failing.

    ``fail_plan`` maps a checkpoint-key seed to the location index at
    which the run should raise — *after* earlier locations were
    durably recorded, modelling a mid-job crash the next attempt
    resumes past (the plan entry is consumed, so the retry succeeds).

    With ``stack.overlap`` set, each location first yields to the event
    loop, as the real engine does at every bridge hop, so concurrently
    dispatched jobs interleave; otherwise a run never yields and jobs
    cannot overlap.
    """

    def __init__(self, stack: "FakeStack") -> None:
        self.stack = stack

    async def survey_async(
        self,
        county,
        n_locations,
        seed=0,
        checkpoint=None,
        max_inflight=1,
        checkpoint_store=None,
        bridge=None,
    ):
        assert checkpoint_store is not None, "daemon always owns the store"
        assert bridge is not None and not bridge.closed
        self.stack.started += 1
        self.stack.concurrent += 1
        self.stack.peak_concurrent = max(
            self.stack.peak_concurrent, self.stack.concurrent
        )
        self.stack.threads += max_inflight
        self.stack.peak_threads = max(
            self.stack.peak_threads, self.stack.threads
        )
        try:
            fees = 0.0
            fail_at = self.stack.fail_plan.pop(seed, None)
            for index in range(n_locations):
                if self.stack.overlap:
                    await asyncio.sleep(0)
                if checkpoint_store.has(index):
                    continue
                if fail_at is not None and index >= fail_at:
                    raise RuntimeError(f"engine fault at location {index}")
                checkpoint_store.record(
                    index, {"images": CAPTURES_PER_LOCATION}
                )
                fees += CAPTURES_PER_LOCATION * 0.007
            return FakeReport(n_locations, round(fees, 9))
        finally:
            self.stack.concurrent -= 1
            self.stack.threads -= max_inflight

    # The daemon calls the stream engine for "classify" jobs with the
    # same owned-store contract; aggregate vs retained is irrelevant
    # to scheduling and billing, so one implementation serves both.
    survey_stream_async = survey_async


class FakeStack:
    """Duck-typed :class:`ServiceStack` for scheduler-level tests."""

    def __init__(self, clock=None, *, overlap: bool = False) -> None:
        self.clock = clock or VirtualClock()
        self.bridge = SimpleNamespace(
            closed=False, max_threads=MAX_JOB_INFLIGHT
        )
        self.closed = False
        #: Yield to the loop before each location (see FakeDecoder).
        self.overlap = overlap
        #: seed -> location index to fail at (consumed on use).
        self.fail_plan: dict[int, int] = {}
        self.started = 0
        self.concurrent = 0
        self.peak_concurrent = 0
        #: Sum of the running jobs' windows, and its peak.
        self.threads = 0
        self.peak_threads = 0

    def county(self, seed: int):
        return SimpleNamespace(name="Durham")

    def decoder(self, kind: str, county_seed: int) -> FakeDecoder:
        return FakeDecoder(self)

    def close(self) -> None:
        self.closed = True
        self.bridge.closed = True
