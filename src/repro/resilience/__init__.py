"""Unified resilience layer for every I/O edge of the pipeline.

The paper's §V names API cost, latency, and multi-LLM coordination as
the practical barriers to scaling neighborhood decoding; production
GSV pipelines (Tang et al.) make robustness the central requirement.
This package is the single home for the machinery that turns transient
faults into bounded delays instead of aborted (and already billed)
surveys:

* :mod:`~repro.resilience.clock` — the pluggable time source.  Only
  this module may call ``time.sleep``; everything else sleeps through
  an injected clock so fault scripts replay deterministically.
* :mod:`~repro.resilience.retry` — :class:`RetryPolicy`, the one
  retry loop (exponential backoff, full jitter, ``Retry-After``
  awareness) shared by the classifier and the street-view fetch
  path.
* :mod:`~repro.resilience.breaker` — per-endpoint
  :class:`CircuitBreaker` (closed → open → half-open) so a hard-down
  model or GSV key stops burning attempts and fees.
* :mod:`~repro.resilience.faults` — deterministic fault injection
  (:class:`FaultSchedule`, :class:`FaultyChatClient`) for replayable
  outage scripts: bursts, sustained rate limiting, quota cliffs.
* :mod:`~repro.resilience.checkpoint` — :class:`SurveyCheckpoint`,
  per-location survey progress on disk so a rerun resumes after the
  last completed location instead of re-billing fetched imagery.
"""

from .breaker import CircuitBreaker, CircuitOpenError, CircuitState
from .checkpoint import CheckpointMismatchError, SurveyCheckpoint
from .clock import Clock, VirtualClock, WallClock
from .faults import FaultRule, FaultSchedule, FaultyChatClient
from .retry import RetryOutcome, RetryPolicy, RetryStats

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "CircuitState",
    "CheckpointMismatchError",
    "SurveyCheckpoint",
    "Clock",
    "VirtualClock",
    "WallClock",
    "FaultRule",
    "FaultSchedule",
    "FaultyChatClient",
    "RetryOutcome",
    "RetryPolicy",
    "RetryStats",
]
