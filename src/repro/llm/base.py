"""Chat-completions API surface shared by all simulated VLM clients.

Mirrors the request/response shape of the commercial APIs the paper
used (OpenAI chat completions and its Gemini/Anthropic/xAI analogs):
messages with mixed text/image parts, sampling parameters
(``temperature``, ``top_p``), token-usage accounting, and a typed
error surface (:mod:`repro.llm.errors`).

An :class:`ImageAttachment` carries the *scene* behind the pixels —
the simulated model's perception layer reads scene ground truth
through a calibrated noisy channel rather than running a real neural
network over the raster (see DESIGN.md §1 for why this substitution
preserves the paper's observable behaviour).
"""

from __future__ import annotations

import abc
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..obs.metrics import get_metrics
from ..obs.scope import tally
from ..scene.model import Scene

#: Default sampling parameters, matching the Gemini defaults the paper
#: reports (temperature 1.0, top-p 0.95).
DEFAULT_TEMPERATURE = 1.0
DEFAULT_TOP_P = 0.95

#: Flat per-image prompt-token surcharge (the common VLM convention).
IMAGE_PROMPT_TOKENS = 85


@dataclass(frozen=True)
class ImageAttachment:
    """An image part of a chat message.

    ``scene`` is required (it is what the simulated model perceives);
    ``pixels`` may be attached for API fidelity but is not consulted
    by the simulation.
    """

    scene: Scene
    pixels: np.ndarray | None = None

    @property
    def image_id(self) -> str:
        return self.scene.scene_id


@dataclass(frozen=True)
class ChatMessage:
    """One message in a conversation."""

    role: str
    text: str = ""
    images: tuple[ImageAttachment, ...] = ()

    def __post_init__(self) -> None:
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"unknown role: {self.role!r}")


@dataclass(frozen=True)
class ChatRequest:
    """A chat-completion request."""

    model: str
    messages: tuple[ChatMessage, ...]
    temperature: float = DEFAULT_TEMPERATURE
    top_p: float = DEFAULT_TOP_P
    max_tokens: int = 256

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("request has no messages")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature out of range: {self.temperature}")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p out of range: {self.top_p}")
        if self.max_tokens <= 0:
            raise ValueError(f"max_tokens must be positive: {self.max_tokens}")

    @property
    def user_text(self) -> str:
        """Concatenated text of all user messages."""
        return "\n".join(
            m.text for m in self.messages if m.role == "user" and m.text
        )

    @property
    def images(self) -> tuple[ImageAttachment, ...]:
        attachments: list[ImageAttachment] = []
        for message in self.messages:
            attachments.extend(message.images)
        return tuple(attachments)


@dataclass(frozen=True)
class Usage:
    """Token accounting for one request."""

    prompt_tokens: int
    completion_tokens: int

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


@dataclass(frozen=True)
class ChatResponse:
    """A chat-completion response."""

    model: str
    content: str
    usage: Usage
    finish_reason: str = "stop"


def estimate_prompt_tokens(request: ChatRequest) -> int:
    """Rough token estimate: ~4 characters per text token + images."""
    text_chars = sum(len(m.text) for m in request.messages)
    return max(1, text_chars // 4) + IMAGE_PROMPT_TOKENS * len(request.images)


class UnsentError(Exception):
    """A batched request the dispatch never sent.

    :func:`complete_each` stops at a window's first failure; each
    request after it carries this marker (its ``__cause__`` is that
    failure), so a caller sends it fresh as its first attempt instead
    of counting a failed one.
    """

    def __init__(self, cause: Exception) -> None:
        super().__init__("not sent: an earlier request in the window failed")
        self.__cause__ = cause


class BatchError(Exception):
    """A batched dispatch in which at least one request failed.

    ``outcomes`` lines up with the batch's requests: each entry is
    that request's :class:`ChatResponse`, or the exception it failed
    with.  A request the dispatch never sent carries an
    :class:`UnsentError`.  The first failure is also the ``__cause__``.
    """

    def __init__(self, outcomes: Sequence[ChatResponse | Exception]) -> None:
        self.outcomes = list(outcomes)
        failed = [o for o in self.outcomes if isinstance(o, Exception)]
        super().__init__(
            f"{len(failed)} of {len(self.outcomes)} batched requests failed"
        )
        self.__cause__ = failed[0] if failed else None

    @property
    def served(self) -> list[ChatResponse]:
        """The responses the dispatch did deliver, in request order."""
        return [o for o in self.outcomes if not isinstance(o, Exception)]


def complete_each(
    complete: Callable[[ChatRequest], ChatResponse],
    requests: Sequence[ChatRequest],
) -> list[ChatResponse]:
    """Serve ``requests`` one after another as one batch window.

    Stops at the first failure and raises :class:`BatchError`: the
    requests before it keep their responses, the failed one carries
    the error and every one after it an :class:`UnsentError`.
    """
    responses: list[ChatResponse] = []
    for request in requests:
        try:
            responses.append(complete(request))
        except Exception as err:
            unsent = [UnsentError(err) for _ in requests[len(responses) + 1 :]]
            raise BatchError([*responses, err, *unsent])
    return responses


def complete_seats(
    client: ChatClient, requests: Sequence[ChatRequest]
) -> list[ChatResponse | Exception]:
    """Send ``requests`` as one ``complete_batch`` window; settle each seat.

    Returns one outcome per request, in order: its response, or the
    error it failed with.  A :class:`BatchError` settles each seat on
    its own, so the seats a failed window did serve keep their answers
    (they were billed), the failed ones carry their error and the
    unsent ones an :class:`UnsentError`; any other exception fails
    every seat.  A window that served at least one seat counts in the
    ``llm.microbatch.*`` metrics and in the active tally, which a
    survey folds into ``batch_stats``.
    """
    if not requests:
        return []
    try:
        outcomes = client.complete_batch(requests)
        if len(outcomes) != len(requests):  # pragma: no cover
            raise RuntimeError(
                f"client answered {len(outcomes)} of "
                f"{len(requests)} batched requests"
            )
    except BatchError as err:
        outcomes = err.outcomes
    except Exception as err:  # noqa: BLE001 - re-raised per seat
        outcomes = [err] * len(requests)
    served = sum(not isinstance(o, Exception) for o in outcomes)
    if served:
        metrics = get_metrics()
        metrics.inc("llm.microbatch.batches")
        metrics.inc("llm.microbatch.requests", served)
        tally("llm.microbatch.batches")
        tally("llm.microbatch.requests", served)
        tally("llm.microbatch.seats", len(requests))
    return outcomes


@dataclass
class ClientStats:
    """Cumulative usage across a client's lifetime.

    Clients may serve several :class:`~repro.parallel.ParallelExecutor`
    workers at once, so recording is lock-guarded.
    """

    requests: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    errors: int = 0
    _lock: threading.Lock = field(
        init=False, repr=False, compare=False, default_factory=threading.Lock
    )

    def record(self, usage: Usage) -> None:
        with self._lock:
            self.requests += 1
            self.prompt_tokens += usage.prompt_tokens
            self.completion_tokens += usage.completion_tokens


class ChatClient(abc.ABC):
    """Abstract vision-chat client.

    Concrete implementations: the four simulated commercial models in
    :mod:`repro.llm.models`, plus any test double that honors the
    interface.
    """

    def __init__(self, model_name: str) -> None:
        self.model_name = model_name
        self.stats = ClientStats()

    @abc.abstractmethod
    def complete(self, request: ChatRequest) -> ChatResponse:
        """Execute one chat completion (may raise ``LLMError``)."""

    def complete_batch(
        self, requests: Sequence[ChatRequest]
    ) -> list[ChatResponse]:
        """Execute several completions as one dispatch window.

        The default is a plain serial loop, so every client supports
        batching without code changes; clients whose transport has a
        real batched endpoint (or a per-call latency worth amortizing)
        override this.  Responses come back in request order.  A
        failure raises :class:`BatchError`, whose ``outcomes`` keep the
        responses already served — they were billed, so a caller must
        not re-send them — give every failed request its error and
        every unsent one an :class:`UnsentError`.  A caller that wants
        retries per request runs each failed seat through
        :meth:`~repro.resilience.retry.RetryPolicy.execute` with the
        seat as its first attempt, and sends an unsent one fresh, as
        the survey classifier does.
        """
        return complete_each(self.complete, requests)

    def ask(
        self,
        prompt: str,
        image: ImageAttachment,
        temperature: float = DEFAULT_TEMPERATURE,
        top_p: float = DEFAULT_TOP_P,
    ) -> str:
        """Convenience single-turn request; returns the response text."""
        request = ChatRequest(
            model=self.model_name,
            messages=(
                ChatMessage(role="user", text=prompt, images=(image,)),
            ),
            temperature=temperature,
            top_p=top_p,
        )
        return self.complete(request).content
