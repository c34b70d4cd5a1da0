"""The service's shared client stack: one of everything, closed once.

Every job the daemon runs shares a single set of expensive resources —
the elspeth ``ExperimentSuiteRunner`` shape from SNIPPETS.md applied to
this codebase's clients:

* one simulated-VLM client set behind **one**
  :class:`~repro.llm.cache.CachingChatClient` (shared response cache +
  single-flight coalescing across jobs, optionally journaled to disk);
* an optional shared :class:`~repro.llm.batch.TokenBucket` in front of
  the LLM (one rate limit for the whole daemon, not per job);
* one shared :class:`~repro.resilience.breaker.CircuitBreaker` on the
  street-view endpoint;
* one shared :class:`~repro.gsv.api.UsageMeter`: every per-county
  street-view client is constructed over the *same* meter dict, so all
  imagery fees land in one bill however many synthetic counties jobs
  touch;
* one :class:`~repro.parallel.aio.ThreadBridge` lent to every engine
  run, so jobs reuse a warm thread pool instead of spinning one up
  each (the ``service.multiplex_overhead`` benchmark's main lever);
  its ``max_threads`` is the budget concurrent jobs share.

Decoders are built lazily per ``(profile, county_seed)`` and reuse the
shared pieces, so a job's report is byte-identical to a standalone
``survey_async`` run against a fresh stack with the same parameters —
the golden service-session test's contract.

Because the journal-backed cache's ``__del__`` is otherwise the only
close path in a long-lived daemon, the stack is an explicit resource:
``close()`` (or a ``with`` block) flushes and releases the cache
journal and shuts the thread bridge down; the daemon closes its stack
on exit.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Sequence

from ..core.classifier import LLMIndicatorClassifier
from ..core.pipeline import NeighborhoodDecoder
from ..geo.county import County, make_durham_like
from ..gsv.api import StreetViewClient, UsageMeter
from ..gsv.dataset import build_survey_dataset
from ..llm.base import (
    BatchError,
    ChatClient,
    ChatRequest,
    ChatResponse,
    UnsentError,
)
from ..llm.batch import TokenBucket
from ..llm.cache import CachingChatClient
from ..llm.paper_targets import GEMINI_15_PRO
from ..llm.registry import build_clients
from ..parallel.aio import ThreadBridge
from ..resilience.breaker import CircuitBreaker
from ..resilience.clock import Clock, WallClock
from ..resilience.faults import FaultSchedule
from .jobs import ServiceError

__all__ = ["RateLimitedChatClient", "ServiceStack"]

#: Threads of the shared bridge: the daemon's whole thread budget.  No
#: job may ask for a wider window, and the windows of all running jobs
#: together never exceed it (see :mod:`repro.service.daemon`).
MAX_JOB_INFLIGHT = 16


class RateLimitedChatClient(ChatClient):
    """Gate an inner client behind a shared token bucket.

    The bucket is daemon-wide: concurrent jobs' classify calls all
    draw from the same allowance, which is the whole point of running
    them behind one service instead of N standalone scripts.
    """

    def __init__(self, inner: ChatClient, bucket: TokenBucket) -> None:
        super().__init__(model_name=inner.model_name)
        self.inner = inner
        self.bucket = bucket

    def complete(self, request: ChatRequest) -> ChatResponse:
        self.bucket.acquire()
        response = self.inner.complete(request)
        self.stats.record(response.usage)
        return response

    def complete_batch(
        self, requests: Sequence[ChatRequest]
    ) -> list[ChatResponse]:
        # One token per request — a batch is cheaper in latency, not
        # in provider quota.
        for _ in requests:
            self.bucket.acquire()
        try:
            responses = self.inner.complete_batch(requests)
        except BatchError as partial:
            # The served part was billed: book it before re-raising.
            # The seats after the first failure never went out, and
            # the caller sends them again through this limiter: give
            # their tokens back so they are not paid for twice.
            self._record(partial.served)
            self.bucket.refund(
                sum(isinstance(o, UnsentError) for o in partial.outcomes)
            )
            raise
        self._record(responses)
        return responses

    def _record(self, responses: Sequence[ChatResponse]) -> None:
        for response in responses:
            self.stats.record(response.usage)


class ServiceStack:
    """Shared clients, limiter, breaker, meter, and lazy decoders."""

    def __init__(
        self,
        *,
        api_key: str = "service",
        model_id: str = GEMINI_15_PRO,
        clients: dict[str, ChatClient] | None = None,
        calibration_seed: int = 77,
        cache_path: str | Path | None = None,
        clock: Clock | None = None,
        gsv_latency_s: float = 0.0,
        gsv_failure_rate: float = 0.0,
        fault_schedule: FaultSchedule | None = None,
        rate_limit_per_s: float | None = None,
        rate_limit_burst: float = 8.0,
        breaker: CircuitBreaker | None = None,
        cascade_builder: Callable[[], object] | None = None,
    ) -> None:
        self.api_key = api_key
        self.model_id = model_id
        self.clock: Clock = clock or WallClock()
        self.gsv_latency_s = gsv_latency_s
        self.gsv_failure_rate = gsv_failure_rate
        self.fault_schedule = fault_schedule
        self._calibration_seed = calibration_seed
        self._raw_clients = clients
        self._cache_path = Path(cache_path) if cache_path else None
        self._cascade_builder = cascade_builder
        self.breaker = breaker or CircuitBreaker(
            name="gsv", clock=self.clock
        )
        self.limiter: TokenBucket | None = (
            TokenBucket(
                rate=rate_limit_per_s,
                capacity=rate_limit_burst,
                clock=self.clock,
            )
            if rate_limit_per_s
            else None
        )
        #: One meter dict shared by every per-county street-view client:
        #: the daemon's single bill.
        self._meters: dict[str, UsageMeter] = {}
        self.bridge = ThreadBridge(max_threads=MAX_JOB_INFLIGHT)
        self._counties: dict[int, County] = {}
        self._street_views: dict[int, StreetViewClient] = {}
        self._chat_client: CachingChatClient | None = None
        self._decoders: dict[tuple[str, int], NeighborhoodDecoder] = {}
        self._cascade = None
        self._closed = False

    # -- shared pieces --------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def usage(self) -> UsageMeter:
        """The daemon-wide usage meter (all counties, one bill)."""
        return self._meters.setdefault(self.api_key, UsageMeter())

    def county(self, seed: int) -> County:
        if seed not in self._counties:
            self._counties[seed] = make_durham_like(seed=seed)
        return self._counties[seed]

    def street_view(self, county_seed: int) -> StreetViewClient:
        """Per-county-seed client over the shared meter dict.

        Synthetic counties from different seeds share one bounding box,
        so one client cannot tell them apart; per-seed clients with an
        injected common ``_meters`` dict keep fetches unambiguous while
        the fee accounting stays a single shared meter.
        """
        if county_seed not in self._street_views:
            self._street_views[county_seed] = StreetViewClient(
                counties=[self.county(county_seed)],
                api_key=self.api_key,
                failure_rate=self.gsv_failure_rate,
                fault_schedule=self.fault_schedule,
                latency_s=self.gsv_latency_s,
                clock=self.clock,
                _meters=self._meters,
            )
        return self._street_views[county_seed]

    def chat_client(self) -> CachingChatClient:
        """The shared (cached, optionally rate-limited) LLM client."""
        self._require_open()
        if self._chat_client is None:
            raw = self._raw_clients
            if raw is None:
                calibration = build_survey_dataset(
                    n_images=60, size=256, seed=self._calibration_seed
                )
                raw = build_clients(
                    [image.scene for image in calibration],
                    model_ids=(self.model_id,),
                )
            inner: ChatClient = raw[self.model_id]
            if self.limiter is not None:
                inner = RateLimitedChatClient(inner, self.limiter)
            self._chat_client = CachingChatClient(
                inner, cache_path=self._cache_path
            )
        return self._chat_client

    # -- decoders -------------------------------------------------------

    def decoder(self, kind: str, county_seed: int) -> NeighborhoodDecoder:
        """The decoder a job of ``kind`` in ``county_seed`` runs on.

        ``survey`` and ``classify`` share the single-classifier decoder
        (they differ only in which engine method the daemon calls);
        ``cascade`` routes through the cost-aware cascade instead.
        """
        self._require_open()
        profile = "cascade" if kind == "cascade" else "llm"
        cache_key = (profile, county_seed)
        if cache_key not in self._decoders:
            street_view = self.street_view(county_seed)
            if profile == "cascade":
                self._decoders[cache_key] = NeighborhoodDecoder(
                    street_view=street_view,
                    cascade=self._build_cascade(),
                    gsv_breaker=self.breaker,
                    clock=self.clock,
                )
            else:
                self._decoders[cache_key] = NeighborhoodDecoder(
                    street_view=street_view,
                    classifier=LLMIndicatorClassifier(self.chat_client()),
                    gsv_breaker=self.breaker,
                    clock=self.clock,
                )
        return self._decoders[cache_key]

    def _build_cascade(self):
        if self._cascade is None:
            builder = self._cascade_builder or self._default_cascade
            self._cascade = builder()
        return self._cascade

    def _default_cascade(self):
        """Train-and-wire the shipped three-tier cascade, lazily.

        Deliberately deferred to first cascade job: detector training
        is the expensive part of the stack, and most deployments only
        run survey/classify jobs.  Tier fees are booked on the shared
        usage meter, so cascade jobs land on the same daemon bill as
        everything else.
        """
        from ..cascade import CascadeClassifier, fit_cascade_calibration
        from ..core.voting import VotingEnsemble
        from ..detect.train import TrainConfig, train_detector
        from ..llm.paper_targets import ALL_MODEL_IDS, GPT_4O_MINI

        train_images = build_survey_dataset(n_images=160, size=256, seed=21)
        holdout = build_survey_dataset(n_images=120, size=256, seed=33)
        detector = train_detector(
            train_images,
            train_config=TrainConfig(epochs=12, batch_size=16),
        ).model
        calibration = fit_cascade_calibration(detector, holdout)
        clients = build_clients(
            [image.scene for image in holdout],
            model_ids=tuple(ALL_MODEL_IDS),
        )
        return CascadeClassifier(
            detector=detector,
            calibration=calibration,
            scout=LLMIndicatorClassifier(clients[GPT_4O_MINI]),
            ensemble=VotingEnsemble(
                classifiers={
                    model_id: LLMIndicatorClassifier(client)
                    for model_id, client in clients.items()
                }
            ),
            meter=self.usage(),
        )

    # -- lifecycle ------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise ServiceError("service stack is closed")

    def close(self) -> None:
        """Release every held resource; idempotent.

        This is the explicit close path the journal-backed cache needs
        in a long-lived process — without it the journal file handle
        survives until interpreter shutdown and surfaces as a
        ``ResourceWarning`` under ``filterwarnings = ["error"]``.
        """
        if self._closed:
            return
        self._closed = True
        if self._chat_client is not None:
            self._chat_client.close()
        self.bridge.close()
        self._decoders.clear()

    def __enter__(self) -> "ServiceStack":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
