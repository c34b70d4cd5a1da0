"""NDJSON wire protocol for the survey daemon (unix socket or stdio).

One JSON object per line in, one (or, for ``watch``, several) per line
out — the same newline-delimited idiom as the sinks' session journal,
so a client is ``socat`` or a ten-line script, not an SDK.  Requests::

    {"op": "submit", "spec": {"tenant": "acme", "n_locations": 4}}
    {"op": "status", "job_id": "job-0000"}
    {"op": "watch",  "job_id": "job-0000"}      # streams events
    {"op": "result", "job_id": "job-0000"}
    {"op": "cancel", "job_id": "job-0000"}
    {"op": "budget", "tenant": "acme", "grant_usd": 0.5}
    {"op": "jobs"} | {"op": "ping"} | {"op": "shutdown"}

Responses carry ``{"ok": true, ...}`` or ``{"ok": false, "error":
"<ExceptionType>", "message": "..."}``; admission failures (quota,
budget, backpressure) are *responses*, not connection errors — a
client that over-submits keeps its session.

:func:`run_selftest` is the deterministic end-to-end drill behind
``repro serve --selftest``: a three-job, two-tenant session against a
temporary state directory, with every DONE report byte-compared to a
standalone engine run — the CI smoke for the whole service layer.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import sys
import tempfile
from collections.abc import Awaitable, Callable
from pathlib import Path

from .daemon import SurveyService
from .jobs import JobSpec, ServiceError
from .stack import ServiceStack

__all__ = ["ServiceProtocol", "run_selftest"]


class ServiceProtocol:
    """Serve one :class:`SurveyService` over NDJSON streams."""

    def __init__(self, service: SurveyService) -> None:
        self.service = service
        self._shutdown = asyncio.Event()

    # -- request handling ----------------------------------------------

    async def handle_request(self, request: dict) -> list[dict]:
        """Answer one decoded request (non-streaming ops)."""
        op = request.get("op")
        try:
            if op == "ping":
                return [{"ok": True, "op": "ping"}]
            if op == "submit":
                spec = JobSpec.from_dict(request.get("spec", {}))
                job_id = await self.service.submit(spec)
                return [{"ok": True, "job_id": job_id}]
            if op == "status":
                record = await self.service.status(request["job_id"])
                return [{"ok": True, "job": record.to_dict()}]
            if op == "result":
                report = await self.service.result(request["job_id"])
                return [{"ok": True, "report": report}]
            if op == "cancel":
                accepted = await self.service.cancel(request["job_id"])
                return [{"ok": True, "accepted": accepted}]
            if op == "jobs":
                return [
                    {
                        "ok": True,
                        "jobs": [r.to_dict() for r in self.service.jobs()],
                    }
                ]
            if op == "budget":
                books = await self.service.grant_budget(
                    request["tenant"], float(request.get("grant_usd", 0.0))
                )
                return [{"ok": True, "ledger": books}]
            if op == "shutdown":
                self._shutdown.set()
                return [{"ok": True, "op": "shutdown"}]
            return [
                {
                    "ok": False,
                    "error": "UnknownOp",
                    "message": f"unknown op {op!r}",
                }
            ]
        except (ServiceError, KeyError, TypeError, ValueError) as err:
            return [
                {
                    "ok": False,
                    "error": type(err).__name__,
                    "message": str(err),
                }
            ]

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One socket session; closes the connection when it ends."""

        async def send(line: bytes) -> None:
            writer.write(line)
            await writer.drain()

        try:
            await self._session(reader.readline, send)
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _session(
        self,
        readline: Callable[[], Awaitable[bytes]],
        send: Callable[[bytes], Awaitable[None]],
    ) -> None:
        """Answer request lines until EOF or ``shutdown``."""

        async def respond(payload: dict) -> None:
            await send(
                (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
            )

        while not self._shutdown.is_set():
            line = await readline()
            if not line:
                return
            text = line.decode("utf-8").strip()
            if not text:
                continue
            try:
                request = json.loads(text)
            except ValueError as err:
                await respond(
                    {
                        "ok": False,
                        "error": "BadRequest",
                        "message": f"not JSON: {err}",
                    }
                )
                continue
            if request.get("op") == "watch":
                await self._stream_watch(respond, request)
                continue
            for response in await self.handle_request(request):
                await respond(response)

    async def _stream_watch(
        self, respond: Callable[[dict], Awaitable[None]], request: dict
    ) -> None:
        try:
            async for event in self.service.watch(request["job_id"]):
                await respond({"ok": True, "event": event})
        except (ServiceError, KeyError) as err:
            await respond(
                {
                    "ok": False,
                    "error": type(err).__name__,
                    "message": str(err),
                }
            )

    # -- servers --------------------------------------------------------

    async def serve_unix(self, socket_path: str | Path) -> None:
        """Accept NDJSON sessions on a unix socket until ``shutdown``."""
        await self.service.start()
        server = await asyncio.start_unix_server(
            self.handle_connection, path=str(socket_path)
        )
        async with server:
            await self._shutdown.wait()
        await self.service.drain()
        await self.service.stop()

    async def serve_stdio(self) -> None:
        """One NDJSON session over stdin/stdout.

        Lines are read and written with blocking calls on a worker
        thread rather than through asyncio pipe transports: stdin and
        stdout may be pipes, regular files, ttys or ``/dev/null``
        (which an event loop cannot poll), and the session must leave
        stdout open and flushed for the process that owns it.
        """
        await self.service.start()
        stdin = sys.stdin.buffer
        sys.stdout.flush()  # text already printed goes out first
        stdout = sys.stdout.buffer

        def write(line: bytes) -> None:
            stdout.write(line)
            stdout.flush()

        async def send(line: bytes) -> None:
            await asyncio.to_thread(write, line)

        await self._session(lambda: asyncio.to_thread(stdin.readline), send)
        await self.service.drain()
        await self.service.stop()


def run_selftest(state_dir: str | Path | None = None) -> int:
    """Deterministic end-to-end service drill; 0 on success.

    Three jobs, two tenants, one shared stack: a priority-2 survey, a
    default-priority survey for a second tenant, and an aggregate
    classify job — drained (the jobs run concurrently), then audited:
    every job DONE, every DONE survey report byte-identical to a
    standalone ``survey_async`` run with the same parameters against a
    fresh stack, every settlement equal to the canonical checkpoint
    fee, and every tenant ledger non-negative.  Prints one line per
    check.
    """

    async def drill(root: Path) -> int:
        failures: list[str] = []
        specs = [
            JobSpec(tenant="acme", kind="survey", county_seed=3,
                    n_locations=3, seed=11, priority=2),
            JobSpec(tenant="beta", kind="survey", county_seed=5,
                    n_locations=2, seed=7),
            JobSpec(tenant="acme", kind="classify", county_seed=3,
                    n_locations=3, seed=19),
        ]
        async with SurveyService(
            ServiceStack(), root / "state"
        ) as service:
            ids = [await service.submit(spec) for spec in specs]
            ran = await service.run_until_idle()
            if ran != len(specs):
                failures.append(f"ran {ran} of {len(specs)} jobs")
            for job_id in ids:
                record = await service.status(job_id)
                if record.state.value != "done":
                    failures.append(
                        f"{job_id}: {record.state.value} "
                        f"({record.error})"
                    )
                books = service.observability.get(job_id, {})
                for finding in books.get("reconcile", []):
                    failures.append(f"{job_id}: reconcile: {finding}")
                for finding in books.get("audit_trace", []):
                    failures.append(f"{job_id}: trace: {finding}")
            served = {
                job_id: await service.result(job_id) for job_id in ids
            }
            for tenant in ("acme", "beta"):
                books = service.ledger_snapshot(tenant)
                if books["settled_usd"] < 0 or books["reserved_usd"] != 0:
                    failures.append(f"{tenant}: bad ledger {books}")

        # Byte-compare the survey jobs against standalone engine runs
        # on a fresh stack (the multiplexing-changes-nothing contract).
        for spec, job_id in zip(specs, ids):
            if spec.kind != "survey" or served.get(job_id) is None:
                continue
            with ServiceStack() as fresh:
                report = await fresh.decoder(
                    spec.kind, spec.county_seed
                ).survey_async(
                    fresh.county(spec.county_seed),
                    spec.n_locations,
                    seed=spec.seed,
                    max_inflight=spec.max_inflight,
                )
            if json.dumps(served[job_id], sort_keys=True) != (
                report.to_json()
            ):
                failures.append(f"{job_id}: report differs from standalone")
        for line in failures:
            print(f"FAIL {line}")
        print(
            f"service selftest: {len(specs)} jobs, "
            f"{len(failures)} failures"
        )
        return 1 if failures else 0

    if state_dir is not None:
        return asyncio.run(drill(Path(state_dir)))
    with tempfile.TemporaryDirectory(prefix="repro-service-") as tmp:
        return asyncio.run(drill(Path(tmp)))
