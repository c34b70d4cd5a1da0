"""Simulated network latency for the chat clients.

:class:`LatencyChatClient` wraps any chat client with a fixed
round-trip latency.  The commercial APIs the paper drives answer in
hundreds of milliseconds; the simulated ones answer in microseconds,
which would make overlapping requests look useless.  perfbench's
``service-mix`` workload, the examples and the tests put it in front
of the simulated models.
"""

from __future__ import annotations

from collections.abc import Sequence

from .llm.base import ChatClient, ChatRequest, ChatResponse, complete_each
from .resilience.clock import Clock, WallClock

__all__ = ["LatencyChatClient"]


class LatencyChatClient(ChatClient):
    """Add a fixed per-request latency in front of an inner client.

    The sleep goes through an injected
    :class:`~repro.resilience.clock.Clock`, so fault scripts can keep
    using a virtual clock while perfbench uses wall time (which
    releases the GIL, exactly like a real socket wait).
    """

    def __init__(
        self,
        inner: ChatClient,
        latency_s: float,
        clock: Clock | None = None,
    ) -> None:
        if latency_s < 0:
            raise ValueError(f"latency must be non-negative: {latency_s}")
        super().__init__(model_name=inner.model_name)
        self.inner = inner
        self.latency_s = latency_s
        self.clock = clock or WallClock()

    def complete(self, request: ChatRequest) -> ChatResponse:
        if self.latency_s > 0:
            self.clock.sleep(self.latency_s)
        return self._complete_inner(request)

    def complete_batch(
        self, requests: Sequence[ChatRequest]
    ) -> list[ChatResponse]:
        """One latency charge for the whole window, like a real batched
        endpoint: the round-trip is paid once and amortized across every
        request in it.  A failure raises :class:`~repro.llm.base.BatchError`
        with the responses served before it."""
        if self.latency_s > 0 and requests:
            self.clock.sleep(self.latency_s)
        return complete_each(self._complete_inner, requests)

    def _complete_inner(self, request: ChatRequest) -> ChatResponse:
        response = self.inner.complete(request)
        self.stats.record(response.usage)
        return response
