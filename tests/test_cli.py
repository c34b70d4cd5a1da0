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
