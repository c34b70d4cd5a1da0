"""Chaos drill: SIGKILL the service daemon mid-job, restart, reconcile.

The in-process restart tests in ``test_service.py`` simulate a crash
by hand-editing the manifest; this drill does it for real — a child
daemon process is SIGKILLed (no cleanup, no atexit, no flush) while a
job's per-location checkpoint is actively growing, then a second
process recovers from whatever bytes survived.  The acceptance
criteria from DESIGN.md §16:

* every job ends terminal after restart — resumed to DONE when the
  attempt budget allows, failed **clean** (durable error, settled
  books) when it does not;
* zero double-billing — each terminal job's settlement equals the
  canonical fee rebuilt from its checkpoint, each tenant ledger equals
  the sum of its jobs' settlements, and a *third* run over the same
  state changes nothing;
* the resumed job's report is the undisturbed survey's, except for
  the fees and retries of the work its last attempt did, and it is
  settled at exactly the undisturbed survey's fee.

Marked ``faults`` (excluded from tier-1): real processes, real clock,
real kill windows.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.resilience.checkpoint import SurveyCheckpoint
from repro.service import JobSpec, JobState, ServiceStack
from repro.service.jobs import JobRecord
from repro.service.store import canonical_fees_usd, checkpoint_key

pytestmark = pytest.mark.faults

DRIVER = Path(__file__).parent / "data" / "service_chaos_driver.py"
REPO_SRC = Path(__file__).resolve().parents[1] / "src"

#: ``job-0000``, the wide job the driver submits first, and its
#: checkpoint identity.
WIDE_JOB = JobSpec(tenant="acme", n_locations=8, seed=11)
WIDE_JOB_KEY = checkpoint_key(WIDE_JOB, "Durham")


def _checkpointed(checkpoint: Path) -> int:
    """Locations durably recorded in the wide job's checkpoint.

    Reads through the store's own loader, which never writes while it
    loads a live log: a half-appended final line is only skipped.
    """
    if not checkpoint.exists():
        return 0
    return len(SurveyCheckpoint(checkpoint, WIDE_JOB_KEY))


def _spawn(state_dir: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC)
    return subprocess.Popen(
        [sys.executable, str(DRIVER), str(state_dir)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _load_manifest(state_dir: Path) -> dict[str, JobRecord]:
    payload = json.loads((state_dir / "service.json").read_text())
    return {
        entry["job_id"]: JobRecord.from_dict(entry)
        for entry in payload["jobs"]
    }


def _assert_books_reconcile(state_dir: Path) -> None:
    payload = json.loads((state_dir / "service.json").read_text())
    settled_by_tenant: dict[str, float] = {}
    for entry in payload["jobs"]:
        record = JobRecord.from_dict(entry)
        assert record.terminal, f"{record.job_id} not terminal after restart"
        key = checkpoint_key(record.spec, "Durham")
        canonical = canonical_fees_usd(
            state_dir / "checkpoints" / f"{record.job_id}.json", key
        )
        assert record.fees_settled_usd == canonical, (
            f"{record.job_id}: settled {record.fees_settled_usd}, "
            f"checkpoint says {canonical}"
        )
        tenant = record.spec.tenant
        settled_by_tenant[tenant] = round(
            settled_by_tenant.get(tenant, 0.0) + canonical, 9
        )
    for tenant, ledger in payload["ledger"].items():
        assert ledger["settled_usd"] == pytest.approx(
            settled_by_tenant.get(tenant, 0.0)
        ), f"{tenant} ledger disagrees with its jobs"


def _undisturbed_wide_report() -> dict:
    """The wide job's report from one uninterrupted survey."""
    spec = WIDE_JOB
    with ServiceStack() as stack:
        report = asyncio.run(
            stack.decoder(spec.kind, spec.county_seed).survey_async(
                stack.county(spec.county_seed),
                spec.n_locations,
                seed=spec.seed,
                max_inflight=spec.max_inflight,
            )
        )
    return json.loads(report.to_json())


def test_sigkill_mid_job_restart_resumes_without_double_billing(tmp_path):
    state_dir = tmp_path / "state"
    checkpoint = state_dir / "checkpoints" / "job-0000.json"

    # Phase 1: run until the wide job has durably completed at least
    # two locations, then SIGKILL — no flush, no goodbye.
    with _spawn(state_dir) as victim:
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                if victim.poll() is not None:
                    out, err = victim.communicate()
                    pytest.fail(
                        f"daemon exited before the kill window: {out}\n{err}"
                    )
                if _checkpointed(checkpoint) >= 2:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("checkpoint never grew; kill window not reached")
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:  # pragma: no cover - cleanup path
                victim.kill()
                victim.wait()

    # The kill left a RUNNING record (attempt 1) and a partial
    # checkpoint; nothing was settled.
    records = _load_manifest(state_dir)
    assert records["job-0000"].state is JobState.RUNNING
    assert records["job-0000"].fees_settled_usd is None
    survivors = _checkpointed(checkpoint)
    assert survivors >= 2

    # Phase 2: restart over the same state; recovery re-queues the
    # interrupted job (attempt 1 of 2) and the daemon drains everything.
    with _spawn(state_dir) as second:
        out, err = second.communicate(timeout=300)
    assert second.returncode == 0, f"restart failed: {out}\n{err}"
    summary = json.loads(out.strip().splitlines()[-1])
    assert any("re-queued" in note for note in summary["recovered"])
    assert summary["counts"]["done"] == 2
    assert summary["counts"]["queued"] == summary["counts"]["running"] == 0

    records = _load_manifest(state_dir)
    killed = records["job-0000"]
    assert killed.state is JobState.DONE
    assert killed.resumed
    assert killed.attempts == 2
    # Resumption, not redo: the post-kill run kept the survivors.
    assert _checkpointed(checkpoint) == 8
    assert records["job-0001"].state is JobState.DONE
    _assert_books_reconcile(state_dir)

    # The resumed report is the undisturbed one on every key but the
    # work the last attempt did (it fetched only the missing
    # locations); the bill covers every location exactly once.
    served = json.loads(
        (state_dir / "reports" / "job-0000.json").read_text()
    )["report"]
    undisturbed = _undisturbed_wide_report()
    work = ("fees_usd", "retry_stats")
    assert {k: v for k, v in served.items() if k not in work} == {
        k: v for k, v in undisturbed.items() if k not in work
    }
    assert killed.fees_settled_usd == undisturbed["fees_usd"]

    # Phase 3: a third run over settled state is a no-op — terminal
    # records are frozen and nothing gets re-billed.
    before = (state_dir / "service.json").read_text()
    with _spawn(state_dir) as third:
        out, err = third.communicate(timeout=120)
    assert third.returncode == 0, f"idle rerun failed: {out}\n{err}"
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["recovered"] == []
    assert json.loads(before)["ledger"] == json.loads(
        (state_dir / "service.json").read_text()
    )["ledger"]
    _assert_books_reconcile(state_dir)


def test_sigkill_with_exhausted_attempts_fails_clean(tmp_path):
    """Kill the same job twice: the second recovery has no attempts
    left and must fail it clean — durable error, salvage settlement
    for exactly the checkpointed locations."""
    state_dir = tmp_path / "state"
    checkpoint = state_dir / "checkpoints" / "job-0000.json"

    def dispatched(kill_round: int) -> bool:
        # Round 0 waits for the first durable location; round 1 must
        # wait for the *second* dispatch (RUNNING, attempts == 2) —
        # the checkpoint already exists, so its mere presence would
        # let the kill land before the job is even re-dispatched.
        if kill_round == 0:
            return _checkpointed(checkpoint) >= 1
        try:
            record = _load_manifest(state_dir)["job-0000"]
        except (OSError, ValueError, KeyError):
            return False
        return record.state is JobState.RUNNING and record.attempts == 2

    for kill_round in range(2):
        with _spawn(state_dir) as victim:
            try:
                deadline = time.time() + 120
                while time.time() < deadline:
                    if victim.poll() is not None:
                        out, err = victim.communicate()
                        pytest.fail(
                            f"round {kill_round}: daemon exited early: "
                            f"{out}\n{err}"
                        )
                    if dispatched(kill_round):
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail(f"round {kill_round}: no kill window")
                victim.send_signal(signal.SIGKILL)
                victim.wait(timeout=30)
            finally:
                if victim.poll() is None:  # pragma: no cover - cleanup
                    victim.kill()
                    victim.wait()

    with _spawn(state_dir) as final:
        out, err = final.communicate(timeout=300)
    assert final.returncode == 0, f"final run failed: {out}\n{err}"
    summary = json.loads(out.strip().splitlines()[-1])
    assert any("failed clean" in note for note in summary["recovered"])

    records = _load_manifest(state_dir)
    killed = records["job-0000"]
    assert killed.state is JobState.FAILED
    assert killed.attempts == 2  # the budget, fully burned
    assert "restart" in killed.error
    # Salvage settlement covers exactly what survived on disk.
    key = checkpoint_key(killed.spec, "Durham")
    assert killed.fees_settled_usd == canonical_fees_usd(checkpoint, key)
    assert killed.fees_settled_usd > 0.0
    # The small job was never dispatched mid-kill; it drains to DONE.
    assert records["job-0001"].state is JobState.DONE
    _assert_books_reconcile(state_dir)
