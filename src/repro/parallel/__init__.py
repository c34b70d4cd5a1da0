"""Parallel execution for the survey and detector hot paths.

:class:`~repro.parallel.executor.ParallelExecutor` is shared by
:class:`repro.llm.batch.BatchRunner` (per-request fan-out under a
shared rate limiter), :class:`repro.core.voting.VotingEnsemble`
(per-member fan-out), and the CPU-bound detector pipeline (chunked
feature extraction, batched inference, concurrent experiments) via the
``process`` backend.  The survey engine pipelines locations on an
event loop instead, from the pieces in :mod:`repro.parallel.aio`.  The
resilience primitives shared across threads (``TokenBucket``,
``CircuitBreaker``, ``RetryStats``, usage meters) are thread-safe; see
DESIGN.md §8 for the survey engine and thread model and §9 for the
process backend and its pickling constraints.
"""

from .aio import AIMDController, MicroBatcher, ThreadBridge, imap_async
from .arena import TensorArena
from .executor import (
    ParallelExecutor,
    TaskCancelledError,
    TaskEnvelope,
    TaskOutcome,
    effective_cpu_count,
    resolve_workers,
)
from .shm import (
    DEFAULT_MIN_SHARE_BYTES,
    SharedArrayArena,
    SharedArrayHandle,
    ShmTransport,
    shared_memory_support,
    sweep_result_intents,
)

__all__ = [
    "AIMDController",
    "DEFAULT_MIN_SHARE_BYTES",
    "MicroBatcher",
    "ParallelExecutor",
    "ThreadBridge",
    "SharedArrayArena",
    "SharedArrayHandle",
    "ShmTransport",
    "TaskCancelledError",
    "TaskEnvelope",
    "TaskOutcome",
    "TensorArena",
    "effective_cpu_count",
    "imap_async",
    "resolve_workers",
    "shared_memory_support",
    "sweep_result_intents",
]
