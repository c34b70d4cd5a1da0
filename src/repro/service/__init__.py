"""Survey-as-a-service: the multi-tenant async job daemon.

The service layer (DESIGN.md §16) turns the async survey engines into
a long-lived daemon: many tenants submit survey / classify / cascade
jobs, one shared :class:`~repro.service.stack.ServiceStack` (cache,
limiter, breaker, meter, thread bridge) runs them concurrently within
the bridge's thread budget under per-tenant quotas and fee budgets, and every job leaves a durable
record, an exactly-once settlement, a span tree, and a reconciled
metrics delta behind.  ``repro serve`` is the CLI front end.
"""

from .daemon import JobCancelled, SurveyService
from .jobs import (
    CAPTURES_PER_LOCATION,
    JOB_KINDS,
    TERMINAL_STATES,
    JobRecord,
    JobSpec,
    JobState,
    ServiceError,
    UnknownJobError,
    estimated_fee_usd,
)
from .middleware import (
    DEFAULT_MIDDLEWARE,
    JobContext,
    budget_guard,
    metrics_tagging,
    run_middleware_chain,
    trace_annotation,
)
from .protocol import ServiceProtocol, run_selftest
from .quota import (
    AdmissionError,
    BudgetExhaustedError,
    QueueFullError,
    TenantLedger,
    TenantQuota,
    TenantQuotaError,
)
from .sinks import CallbackSink, JsonlSink, ReportDirSink, ResultSink
from .stack import RateLimitedChatClient, ServiceStack
from .store import (
    FORMAT_VERSION,
    JobStore,
    ServiceStoreError,
    canonical_fees_usd,
    checkpoint_key,
)

__all__ = [
    "AdmissionError",
    "BudgetExhaustedError",
    "CAPTURES_PER_LOCATION",
    "CallbackSink",
    "DEFAULT_MIDDLEWARE",
    "FORMAT_VERSION",
    "JOB_KINDS",
    "JobCancelled",
    "JobContext",
    "JobRecord",
    "JobSpec",
    "JobState",
    "JobStore",
    "JsonlSink",
    "QueueFullError",
    "RateLimitedChatClient",
    "ReportDirSink",
    "ResultSink",
    "ServiceError",
    "ServiceProtocol",
    "ServiceStack",
    "ServiceStoreError",
    "SurveyService",
    "TERMINAL_STATES",
    "TenantLedger",
    "TenantQuota",
    "TenantQuotaError",
    "UnknownJobError",
    "budget_guard",
    "canonical_fees_usd",
    "checkpoint_key",
    "estimated_fee_usd",
    "metrics_tagging",
    "run_middleware_chain",
    "run_selftest",
    "trace_annotation",
]
