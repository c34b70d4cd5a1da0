"""Self-tests of the benchmark: trace folding, wrapping, smoke-size runs.

Run from the repository root::

    python -m pytest perfbench/tests -q

The smoke runs start ``perfbench/run.py`` at its smallest size in a
scratch directory that links to this checkout's ``src`` and
``perfbench``, so their digest state stays out of the checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

from repro.geo.county import make_durham_like  # noqa: E402
from repro.geo.sampling import plan_survey_points  # noqa: E402
from spans import Recorder, Span, covered, fold  # noqa: E402
from workloads import check_planned, job_deck, macro_f1  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("parent", 1, None, "t", 0.0, 10.0, cpu=8.0),
        Span("child", 2, 1, "t", 2.0, 4.0, cpu=1.0),
        Span("child", 3, 1, "t", 3.0, 6.0, cpu=2.0),
        Span("wait", 4, 1, "t", 7.0, 8.0, cpu=0.0),
        Span("child", 5, 3, "t", 3.0, 5.0, cpu=0.5),
    ]
    names = fold(spans)["names"]
    # Children cover [2, 6] and [7, 8] of the parent's [0, 10].
    assert names["parent"]["self_ms"] == pytest.approx(5000.0)
    assert names["parent"]["cpu_ms"] == pytest.approx(5000.0)
    assert names["parent"]["wait_ms"] == pytest.approx(1000.0)
    # Span 3 minus its child 5; span 2 has no children.
    assert names["child"]["self_ms"] == pytest.approx(2000.0 + 1000.0 + 2000.0)
    assert names["child"]["calls"] == 3
    folded = fold(spans)
    assert folded["root_wall_ms"] == pytest.approx(10000.0)
    assert folded["root_cpu_ms"] == pytest.approx(8000.0)


def test_covered_clips_to_the_parent():
    assert covered([(-1.0, 1.0), (0.5, 2.0), (5.0, 20.0)], 0.0, 10.0) == 7.0


def test_macro_f1_refuses_unpaired_lists():
    present = frozenset({"sidewalk"})
    assert macro_f1([present, frozenset()], [present, frozenset()]) == 1.0
    with pytest.raises(ValueError):
        macro_f1([present, frozenset()], [present])


def test_every_fourth_service_job_repeats_the_one_three_earlier():
    deck = job_deck(seed=2, n_jobs=12)
    assert [deck[i] == deck[i - 3] for i in (3, 7, 11)] == [True] * 3
    assert len(set(deck)) == 9


def test_decoded_locations_must_be_the_planned_points_in_order():
    points = plan_survey_points([make_durham_like(seed=3)], 4, 1)
    decoded = [
        {"latitude": p.location.lat, "longitude": p.location.lon} for p in points
    ]
    problems: list[str] = []
    assert check_planned(problems, "job 0", points, decoded) and not problems
    assert not check_planned(problems, "job 1", points, decoded[::-1])
    assert not check_planned(problems, "job 2", points, decoded[:2])
    assert len(problems) == 2


class _Layer:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        if n < 0:
            raise ValueError(n)
        return n


def test_wrapped_calls_nest_count_errors_and_restore():
    original = _Layer.__dict__["outer"]
    recorder = Recorder(default_trace=lambda: None)
    recorder.wrap(_Layer, "outer", "outer", trace_key=lambda args: f"n{args[1]}")
    recorder.wrap(
        _Layer, "inner", "inner", after=lambda args, result: recorder.count("seen", result)
    )
    layer = _Layer()
    assert layer.outer(3) == 4
    with pytest.raises(ValueError):
        layer.outer(-1)
    recorder.restore()
    assert _Layer.__dict__["outer"] is original

    by_id = {span.span_id: span for span in recorder.spans}
    inner = [span for span in recorder.spans if span.name == "inner"]
    assert [by_id[span.parent_id].name for span in inner] == ["outer", "outer"]
    assert [span.trace_id for span in inner] == ["n3", "n-1"]
    assert [span.error for span in inner] == [False, True]
    assert recorder.counts == {"seen": 3}
    layer.outer(1)
    assert len(recorder.spans) == 4


def _checkout(tmp_path: Path, with_program: bool = True) -> Path:
    root = tmp_path / "checkout"
    root.mkdir()
    (root / "perfbench").symlink_to(BENCH)
    shutil.copy(REPO / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_program:
        (root / "src").symlink_to(REPO / "src")
    return root


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            str(trace),
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    done = _run(_checkout(tmp_path, with_program=False), "service-mix", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_checks_outputs_and_emits_every_metric(tmp_path, workload, trace):
    done = _run(_checkout(tmp_path), workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
