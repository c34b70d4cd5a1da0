"""Subprocess driver for the service chaos drill.

Usage: ``python service_chaos_driver.py <state_dir>``

First run (empty state): submits two jobs — a wide survey the parent
test SIGKILLs mid-flight, then a small one — and drains.  The small
job's window is sized so that it and the wide job's window together
exceed the shared bridge's threads: the daemon runs jobs concurrently
only within that budget, so the small job waits for the wide one and
is never in flight when a kill lands.  A rerun over
the same state directory recovers the manifest the kill left behind
(re-queue or fail-clean) and drains whatever is runnable.  Prints one
JSON line with the final census so the parent can assert without
parsing the manifest twice.

The street-view latency is real wall time so the parent has a wide,
honest window to land the SIGKILL in — this drill is about what the
*disk* looks like mid-write, so a virtual clock would defeat it.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

from repro.service import JobSpec, ServiceStack, SurveyService


async def main(state_dir: Path) -> int:
    stack = ServiceStack(gsv_latency_s=0.25)
    async with SurveyService(
        stack, state_dir, max_attempts=2
    ) as service:
        if not service.store.records:
            await service.submit(
                JobSpec(tenant="acme", n_locations=8, seed=11)
            )
            wide = service.stack.bridge.max_threads
            await service.submit(
                JobSpec(
                    tenant="beta", n_locations=2, seed=7, max_inflight=wide
                )
            )
        await service.run_until_idle()
        print(
            json.dumps(
                {
                    "counts": service.counts(),
                    "recovered": service.recovered,
                    "ledgers": {
                        tenant: service.ledger_snapshot(tenant)
                        for tenant in ("acme", "beta")
                    },
                },
                sort_keys=True,
            ),
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(asyncio.run(main(Path(sys.argv[1]))))
