"""Response caching for LLM clients.

Section V flags API cost and latency as the practical barrier to
multi-LLM voting at scale.  The standard mitigation is a response
cache: survey pipelines re-run constantly (new indicators, new vote
configurations, re-scored metrics) over the same images, and identical
requests should never be re-billed.

:class:`CachingChatClient` wraps any :class:`~repro.llm.base.ChatClient`
with an exact-match request cache — in memory, optionally persisted to
disk so interrupted surveys resume for free.  Persistence is an
**append-only JSONL journal**: each miss appends one record (O(1) I/O,
where the previous full-file rewrite made a survey's cache writes
O(n²)), and :meth:`~CachingChatClient.close` compacts the journal
atomically (temp file + rename, the same idiom as
:class:`~repro.resilience.checkpoint.SurveyCheckpoint`).  Legacy
single-JSON-map cache files load transparently and are migrated to
JSONL on the next compaction.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections.abc import Sequence
from pathlib import Path
from typing import IO

from ..obs.metrics import get_metrics
from ..obs.scope import tally
from ..obs.trace import get_tracer
from .base import (
    BatchError,
    ChatClient,
    ChatRequest,
    ChatResponse,
    UnsentError,
    Usage,
)


class _Flight:
    """One in-flight upstream call that followers wait on."""

    __slots__ = ("done", "response", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.response: ChatResponse | None = None
        self.error: Exception | None = None


def request_fingerprint(request: ChatRequest) -> str:
    """Stable content hash of a request.

    Covers everything that can change the response: model, message
    roles/texts, attached scene ids, and sampling parameters.  The
    model name is included deliberately — ensemble members may share
    one cache path without cross-serving each other's responses.
    """
    payload = {
        "model": request.model,
        "temperature": round(request.temperature, 6),
        "top_p": round(request.top_p, 6),
        "max_tokens": request.max_tokens,
        "messages": [
            {
                "role": message.role,
                "text": message.text,
                "images": [image.image_id for image in message.images],
            }
            for message in request.messages
        ],
    }
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _cache_record(response: ChatResponse) -> dict:
    return {
        "model": response.model,
        "content": response.content,
        "prompt_tokens": response.usage.prompt_tokens,
        "completion_tokens": response.usage.completion_tokens,
        "finish_reason": response.finish_reason,
    }


def _response_from_record(record: dict) -> ChatResponse:
    return ChatResponse(
        model=record["model"],
        content=record["content"],
        usage=Usage(
            prompt_tokens=record["prompt_tokens"],
            completion_tokens=record["completion_tokens"],
        ),
        finish_reason=record.get("finish_reason", "stop"),
    )


class CachingChatClient(ChatClient):
    """Exact-match response cache around an inner client.

    Cache hits cost nothing: the inner client is not called and no
    usage accrues to it.  The wrapper's own ``stats`` still counts
    every logical request, so hit rates are observable.

    Thread-safe: parallel workers may share one instance.  Identical
    requests in flight at the same moment are **single-flighted**: the
    first worker to miss becomes the leader and makes the one billable
    upstream call; every other worker blocks on that flight and shares
    its response (or its exception) without touching the inner client
    — one call, one fee, however wide the fan-out.  ``coalesced``
    counts the followers.  Hits, misses and followers are also tallied
    into the caller's :class:`~repro.obs.scope.Tally`, so concurrent
    surveys sharing one cache each see their own counts.  Usable as a
    context manager; leaving the ``with`` block compacts the journal.
    """

    def __init__(
        self,
        inner: ChatClient,
        cache_path: str | Path | None = None,
    ) -> None:
        super().__init__(model_name=inner.model_name)
        self.inner = inner
        self.cache_path = Path(cache_path) if cache_path else None
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self._cache: dict[str, dict] = {}
        self._inflight: dict[str, _Flight] = {}
        self._lock = threading.RLock()
        self._journal: IO[str] | None = None
        self._journal_broken = False
        if self.cache_path and self.cache_path.exists():
            self._cache = _load_cache_file(self.cache_path)

    # ------------------------------------------------------------------

    def complete(self, request: ChatRequest) -> ChatResponse:
        metrics = get_metrics()
        key = request_fingerprint(request)
        while True:
            with self._lock:
                cached = self._cache.get(key)
                if cached is not None:
                    self.hits += 1
                    metrics.inc("llm.cache.hits")
                    tally("llm.cache.hits")
                    self.stats.record(Usage(0, 0))  # logical request, zero tokens
                    return _response_from_record(cached)
                flight = self._inflight.get(key)
                if flight is None:
                    flight = _Flight()
                    self._inflight[key] = flight
                    break
            try:
                return self._follow(flight)
            except UnsentError:
                # Its leader's window never sent it: look again, and
                # lead the call if nobody else has.
                continue

        # Leader: the billable call happens outside the lock so
        # concurrent misses on *different* requests overlap instead of
        # queueing.
        try:
            with get_tracer().span("llm.request", model=request.model):
                response = self.inner.complete(request)
        except Exception as err:
            self._resolve_flight(key, flight, error=err)
            raise
        self._resolve_flight(key, flight, response=response)
        return response

    def complete_batch(
        self, requests: Sequence[ChatRequest]
    ) -> list[ChatResponse]:
        """Serve a batch through the cache with one upstream dispatch.

        Hits are answered from the cache; requests already in flight
        (including duplicates within this batch) become followers of
        the existing leader; everything left is dispatched to the
        inner client as a *single* ``complete_batch`` window — the
        micro-batching entry point, sharing the same single-flight
        table as :meth:`complete` so a threaded worker and a batched
        one never double-bill the same fingerprint.

        A dispatch that fails part-way still caches what it served and
        releases the flights it failed or left unsent, so followers
        see the failure (an unsent one is theirs to send) and the next
        request re-leads.  Any failure raises
        :class:`~repro.llm.base.BatchError` with every position's
        response or error.
        """
        metrics = get_metrics()
        keys = [request_fingerprint(request) for request in requests]
        outcomes: list[ChatResponse | Exception | None] = [None] * len(requests)
        followers: list[tuple[int, _Flight]] = []
        leaders: list[tuple[int, _Flight]] = []  # positions whose flight we lead
        with self._lock:
            for pos, key in enumerate(keys):
                cached = self._cache.get(key)
                if cached is not None:
                    self.hits += 1
                    metrics.inc("llm.cache.hits")
                    tally("llm.cache.hits")
                    self.stats.record(Usage(0, 0))
                    outcomes[pos] = _response_from_record(cached)
                    continue
                flight = self._inflight.get(key)
                if flight is not None:
                    # In flight elsewhere — or a duplicate earlier in
                    # this very batch; either way, follow its leader.
                    followers.append((pos, flight))
                    continue
                flight = _Flight()
                self._inflight[key] = flight
                leaders.append((pos, flight))

        if leaders:
            batch = [requests[pos] for pos, _ in leaders]
            try:
                with get_tracer().span(
                    "llm.request.batch",
                    model=batch[0].model,
                    requests=len(batch),
                ):
                    answered = self.inner.complete_batch(batch)
                if len(answered) != len(batch):  # pragma: no cover
                    raise RuntimeError(
                        f"inner client answered {len(answered)} of "
                        f"{len(batch)} batched requests"
                    )
            except BatchError as partial:
                answered = partial.outcomes
            except Exception as err:
                answered = [err] * len(batch)
            for (pos, flight), outcome in zip(leaders, answered):
                if isinstance(outcome, Exception):
                    self._resolve_flight(keys[pos], flight, error=outcome)
                else:
                    self._resolve_flight(keys[pos], flight, response=outcome)
                outcomes[pos] = outcome

        for pos, flight in followers:
            try:
                outcomes[pos] = self._follow(flight)
            except Exception as err:
                outcomes[pos] = err
        if any(isinstance(outcome, Exception) for outcome in outcomes):
            raise BatchError(outcomes)
        return outcomes  # type: ignore[return-value]

    def _follow(self, flight: _Flight) -> ChatResponse:
        """Wait (outside the lock) on a leader's flight and share it.

        A flight its leader's window never sent raises its
        :class:`~repro.llm.base.UnsentError` without counting as
        coalesced: nothing was shared.
        """
        flight.done.wait()
        if isinstance(flight.error, UnsentError):
            raise flight.error
        with self._lock:
            self.coalesced += 1
            get_metrics().inc("llm.cache.coalesced")
            tally("llm.cache.coalesced")
            if flight.error is None:
                self.stats.record(Usage(0, 0))
        if flight.error is not None:
            raise flight.error
        assert flight.response is not None
        return flight.response

    def _resolve_flight(
        self,
        key: str,
        flight: _Flight,
        *,
        response: ChatResponse | None = None,
        error: Exception | None = None,
    ) -> None:
        """Publish a leader's outcome and release its flight.

        The ``finally`` is the single-flight liveness guarantee: even
        if recording the miss (stats, journal append) raises, the
        in-flight entry is removed and ``done`` is set, so a follower
        that arrived while the response was being journaled can never
        deadlock on an abandoned flight — it either reads the outcome
        published *before* the bookkeeping ran, or re-leads a fresh
        call.  Usage is recorded exactly once, by the leader, before
        journaling.
        """
        if error is not None:
            flight.error = error
            with self._lock:
                self._inflight.pop(key, None)
            flight.done.set()
            return
        assert response is not None
        flight.response = response
        record = _cache_record(response)
        try:
            with self._lock:
                self.misses += 1
                get_metrics().inc("llm.cache.misses")
                tally("llm.cache.misses")
                self._cache[key] = record
                self.stats.record(response.usage)
                self._append(key, record)
        finally:
            with self._lock:
                # Pop only after the cache holds the record: a request
                # arriving now finds it there, never a gap.
                self._inflight.pop(key, None)
            flight.done.set()

    # ------------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else float("nan")

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()
            self.hits = 0
            self.misses = 0
            self.coalesced = 0
            self._journal_broken = False
            if self._journal is not None:
                self._journal.close()
                self._journal = None
            if self.cache_path and self.cache_path.exists():
                self.cache_path.unlink()

    @property
    def journaling(self) -> bool:
        """Whether a journal file handle is currently open.

        Long-lived hosts (the service daemon's shared stack) assert
        this is False after their explicit close — relying on
        ``__del__`` to release the handle ties resource lifetime to GC
        timing and surfaces as a ``ResourceWarning`` under pytest's
        ``filterwarnings = ["error"]``.
        """
        return self._journal is not None

    def close(self) -> None:
        """Stop journaling and compact the cache file atomically.

        This is the *only* deliberate release path for the journal
        handle — ``__del__`` is a GC-timed backstop, not a close
        policy.  Hosts that own a client for the life of a process
        (the service daemon's stack) must call this (or use the
        context manager) on shutdown.

        Compaction rewrites the journal as one deduplicated JSONL
        document via temp file + rename, so a crash mid-compaction
        leaves the previous journal intact.  Safe to call repeatedly;
        the client remains usable afterwards (the journal reopens on
        the next miss).
        """
        with self._lock:
            if self._journal is not None:
                self._journal.close()
                self._journal = None
            if self.cache_path is None or not self._cache:
                return
            self.cache_path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.cache_path.with_suffix(self.cache_path.suffix + ".tmp")
            with tmp.open("w", encoding="utf-8") as handle:
                for key, record in self._cache.items():
                    handle.write(_record_line(key, record))
            tmp.replace(self.cache_path)

    def __enter__(self) -> "CachingChatClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:
        # Release only the raw journal handle: compaction belongs to
        # an explicit close() (it rewrites the file, and GC timing
        # must never decide when that happens).
        journal = getattr(self, "_journal", None)
        if journal is not None:
            try:
                journal.close()
            except Exception:  # pragma: no cover - interpreter teardown
                pass

    # ------------------------------------------------------------------

    def _append(self, key: str, record: dict) -> None:
        """Journal one miss: a single appended-and-flushed JSONL line.

        Journal I/O failures (disk full, permissions yanked) must not
        fail the request that triggered them — the upstream call was
        already paid for and its response is already in the in-memory
        cache.  On ``OSError`` the journal is marked broken (counted in
        ``llm.cache.journal_errors``) and persistence quietly stops;
        correctness only loses warm restarts.
        """
        if self.cache_path is None or self._journal_broken:
            return
        try:
            if self._journal is None:
                self.cache_path.parent.mkdir(parents=True, exist_ok=True)
                self._journal = self.cache_path.open("a", encoding="utf-8")
            self._journal.write(_record_line(key, record))
            self._journal.flush()
        except OSError:
            self._journal_broken = True
            if self._journal is not None:
                try:
                    self._journal.close()
                except OSError:  # pragma: no cover - double fault
                    pass
                self._journal = None
            get_metrics().inc("llm.cache.journal_errors")
            return
        get_metrics().inc("llm.cache.journal_writes")


def _record_line(key: str, record: dict) -> str:
    return json.dumps({"key": key, **record}, ensure_ascii=False) + "\n"


def _load_cache_file(path: Path) -> dict[str, dict]:
    """Read a cache file in JSONL or legacy single-JSON-map format.

    A legacy file that later received JSONL appends (an interrupted
    migration) parses line by line: its first line is the old map and
    the rest are journal records, merged in order so newest wins.
    """
    entries: dict[str, dict] = {}
    text = path.read_text(encoding="utf-8")
    if not text.strip():
        return entries
    try:
        whole = json.loads(text)
    except json.JSONDecodeError:
        whole = None
    if isinstance(whole, dict) and "key" not in whole:
        return dict(whole)  # legacy: one JSON map of fingerprint → record
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if "key" in record:
            entries[record.pop("key")] = record
        else:
            entries.update(record)
    return entries
