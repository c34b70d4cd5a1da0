"""The ``python -m repro`` process as a shell pipeline sees it."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_survey_into_a_closed_pipe_exits_without_a_traceback(
    tmp_path, unbuffered
):
    """``repro survey ... | head`` must not die with a traceback.

    The reader end is closed before the survey prints anything, so
    the first write (unbuffered) or the final flush (buffered) hits a
    broken pipe."""
    reader, writer = os.pipe()
    os.close(reader)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED=unbuffered)
    try:
        done = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "survey",
                "--locations",
                "6",
                "--seed",
                "4",
                "--checkpoint",
                str(tmp_path / "c.json"),
            ],
            stdout=writer,
            stderr=subprocess.PIPE,
            env=env,
            cwd=tmp_path,
            timeout=120,
            text=True,
        )
    finally:
        os.close(writer)
    assert done.returncode == 1
    assert done.stderr == ""


REQUESTS = b'{"op":"ping"}\n{"op":"shutdown"}\n'
RESPONSES = [
    '{"ok": true, "op": "ping"}',
    '{"ok": true, "op": "shutdown"}',
]


@pytest.mark.parametrize("stdout_kind", ["pipe", "file", "devnull"])
@pytest.mark.parametrize("stdin_kind", ["pipe", "file", "devnull"])
def test_serve_stdio_session_exits_cleanly(tmp_path, stdin_kind, stdout_kind):
    """``repro serve`` speaks NDJSON on whatever stdin and stdout are.

    A pipe, a regular file and ``/dev/null`` are all valid ends: the
    session answers every request, leaves stdout usable for the
    interpreter's final flush, and exits 0 on ``shutdown`` or EOF."""
    requests = tmp_path / "requests.ndjson"
    requests.write_bytes(REQUESTS)
    out_path = tmp_path / "responses.ndjson"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(requests, "rb") as request_file, open(out_path, "wb") as out:
        stdin = {
            "pipe": subprocess.PIPE,
            "file": request_file,
            "devnull": subprocess.DEVNULL,
        }[stdin_kind]
        stdout = {
            "pipe": subprocess.PIPE,
            "file": out,
            "devnull": subprocess.DEVNULL,
        }[stdout_kind]
        done = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--state-dir",
                str(tmp_path / "state"),
            ],
            input=REQUESTS if stdin_kind == "pipe" else None,
            stdin=None if stdin_kind == "pipe" else stdin,
            stdout=stdout,
            stderr=subprocess.PIPE,
            env=env,
            cwd=tmp_path,
            timeout=60,
        )
    assert done.stderr.decode() == ""
    assert done.returncode == 0
    written = {
        "pipe": lambda: done.stdout,
        "file": out_path.read_bytes,
        "devnull": lambda: None,
    }[stdout_kind]()
    if written is not None:
        expected = [] if stdin_kind == "devnull" else RESPONSES
        assert written.decode().splitlines() == expected


@pytest.mark.parametrize(
    "option",
    [
        ["--rate-limit", "nan"],
        ["--rate-limit", "-1"],
        ["--tenant-budget", "-5"],
        ["--tenant-budget", "nan"],
        ["--queue-depth", "0"],
        ["--max-attempts", "0"],
    ],
    ids=lambda option: " ".join(option),
)
def test_serve_rejects_unusable_options_as_usage_errors(tmp_path, option):
    """A value the daemon cannot run with is a usage error, not a
    traceback from deep inside the stack (or, for a NaN budget, a
    daemon that rejects every job)."""
    done = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--state-dir",
            str(tmp_path / "state"),
            *option,
        ],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=tmp_path,
        timeout=60,
        text=True,
    )
    assert done.returncode == 2
    assert f"argument {option[0]}:" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["survey", "--cascade", "--cascade-threshold", "0.7"],
        ["survey", "--cascade", "--cascade-threshold", "nan"],
        ["cascade", "calibrate", "--cascade-threshold", "-0.1"],
        ["survey", "--max-inflight", "0"],
        ["survey", "--gsv-failure-rate", "1.5"],
        ["survey", "--gsv-failure-rate", "1"],
        ["survey", "--gsv-failure-rate", "nan"],
        ["survey", "--locations", "-3"],
        ["survey", "--locations", "0"],
        ["survey", "--daily-quota", "-4"],
        ["survey", "--min-coverage", "1.5"],
        ["survey", "--min-coverage", "nan"],
        ["survey", "--min-coverage", "-0.5"],
        ["survey", "--workers", "-1"],
        ["table1", "--scale", "smoke", "--workers", "-3"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_survey_rejects_unusable_numbers_before_any_work(tmp_path, argv):
    """A number the survey or cascade cannot run with is a usage error
    (exit 2) at parse time: no detector is trained, no location is
    surveyed, nothing is printed to stdout, and no NaN silently turns
    the coverage gate off."""
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=tmp_path,
        timeout=60,
        text=True,
    )
    assert done.returncode == 2
    assert f"argument {argv[-2]}:" in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""
    assert list(tmp_path.iterdir()) == []


def _repro_lines(tmp_path, *args: str) -> list[str]:
    """Run ``python -m repro *args`` in ``tmp_path``; its stdout lines."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_micro_batches_line_prints_only_when_a_location_batched(tmp_path):
    """A single-model survey batches each location at every window; an
    ensemble survey's member calls never batch, so it prints no line."""
    single = _repro_lines(tmp_path, "survey", "--locations", "3", "--seed", "4")
    assert "micro-batches  3 dispatches / 12 requests (largest 4)" in single
    ensemble = _repro_lines(
        tmp_path, "trace", "--locations", "3", "--max-inflight", "2"
    )
    assert "coverage       100.0% (3/3 locations)" in ensemble
    assert not any(line.startswith("micro-batches") for line in ensemble)


@pytest.mark.parametrize(
    "argv",
    [
        ["bench"],
        ["list", "--only", "detect"],
        ["list", "--compare"],
        ["list", "--force"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_the_retired_bench_command_is_a_usage_error(tmp_path, argv):
    """perfbench is the one benchmark: the retired ``bench`` command
    and its options are gone, and argparse says so."""
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=tmp_path,
        timeout=60,
        text=True,
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["survey", "--detector-precision", "int8"],
        ["survey", "--cascade", "--detector-precision", "float32"],
        ["cascade", "frontier", "--detector-precision", "float64"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_the_retired_detector_precision_option_is_a_usage_error(
    tmp_path, argv
):
    """The cascade's tier 0 always runs float32, so the option that
    picked its tier (and the int8 tier itself) is gone."""
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=tmp_path,
        timeout=60,
        text=True,
    )
    assert done.returncode == 2
    assert "--detector-precision" in done.stderr
    assert "Traceback" not in done.stderr
