"""Parallel execution for the survey and detector hot paths.

:class:`~repro.parallel.executor.ParallelExecutor` fans out the
CPU-bound detector pipeline (chunked rendering, feature extraction,
batched inference) and concurrent experiments on one thread pool:
numpy releases the GIL, so the detector's kernels scale across cores
on threads.  The survey engine
pipelines locations on an event loop instead, from the pieces in
:mod:`repro.parallel.aio`.  The resilience primitives shared across
threads (``TokenBucket``, ``CircuitBreaker``, ``RetryStats``, usage
meters) are thread-safe; see DESIGN.md §8 for the survey engine and
thread model and §9 for the detector's thread fan-out.
"""

from .aio import AIMDController, ThreadBridge, imap_async
from .arena import TensorArena
from .executor import (
    ParallelExecutor,
    TaskOutcome,
    effective_cpu_count,
    resolve_workers,
)

__all__ = [
    "AIMDController",
    "ParallelExecutor",
    "ThreadBridge",
    "TaskOutcome",
    "TensorArena",
    "effective_cpu_count",
    "imap_async",
    "resolve_workers",
]
