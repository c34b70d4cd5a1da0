"""Tests for the observability layer: metrics, tracing, and the audit.

Covers the :mod:`repro.obs` package in isolation (registry semantics,
span lifecycle, JSONL export) and integrated with the pipeline:
metrics written from thread fan-out, the determinism audit on a traced
survey, and the payload-invisibility guarantee (tracing on vs off
yields byte-identical reports).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core import (
    LLMIndicatorClassifier,
    NeighborhoodDecoder,
    VotingEnsemble,
)
from repro.geo import make_durham_like
from repro.gsv import StreetViewClient
from repro.obs.audit import SURVEY_STAGES, audit_trace, reconcile_survey
from repro.obs.metrics import (
    MetricsRegistry,
    get_metrics,
    nonempty_delta,
    use_metrics,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    get_tracer,
    use_tracer,
)
from repro.parallel import ParallelExecutor


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("a.b")
        registry.inc("a.b", 2.5)
        assert registry.counter("a.b") == 3.5
        assert registry.counter("never.touched") == 0.0

    def test_counters_reject_negative_increments(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="only increase"):
            registry.inc("a.b", -1)

    def test_gauges_keep_last_value(self):
        registry = MetricsRegistry()
        registry.set_gauge("queue.depth", 4)
        registry.set_gauge("queue.depth", 2)
        assert registry.snapshot()["gauges"] == {"queue.depth": 2.0}

    def test_histogram_buckets_values_by_edge(self):
        registry = MetricsRegistry()
        edges = (1.0, 10.0)
        for value in (0.5, 5.0, 50.0, 0.1):
            registry.observe("latency", value, edges=edges)
        hist = registry.snapshot()["histograms"]["latency"]
        assert hist["edges"] == [1.0, 10.0]
        assert hist["counts"] == [2, 1, 1]  # <=1, <=10, overflow
        assert hist["count"] == 4
        assert hist["sum"] == pytest.approx(55.6)

    def test_histogram_edges_fixed_by_first_observation(self):
        registry = MetricsRegistry()
        registry.observe("latency", 0.5, edges=(1.0, 10.0))
        with pytest.raises(ValueError, match="already registered"):
            registry.observe("latency", 0.5, edges=(2.0, 20.0))

    def test_snapshot_is_json_ready_and_sorted(self):
        registry = MetricsRegistry()
        registry.inc("z.last")
        registry.inc("a.first")
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a.first", "z.last"]
        json.dumps(snapshot)  # must not raise

    def test_delta_since_omits_unmoved_metrics(self):
        registry = MetricsRegistry()
        registry.inc("stable")
        registry.set_gauge("level", 7)
        before = registry.snapshot()
        registry.inc("moved", 3)
        delta = registry.delta_since(before)
        assert delta["counters"] == {"moved": 3.0}
        assert delta["gauges"] == {}
        assert nonempty_delta(delta)
        assert not nonempty_delta(registry.delta_since(registry.snapshot()))

    def test_reset_and_is_empty(self):
        registry = MetricsRegistry()
        assert registry.is_empty()
        registry.inc("a")
        assert not registry.is_empty()
        registry.reset()
        assert registry.is_empty()

    def test_use_metrics_swaps_the_active_registry(self):
        default = get_metrics()
        scoped = MetricsRegistry()
        with use_metrics(scoped):
            assert get_metrics() is scoped
            get_metrics().inc("scoped.only")
        assert get_metrics() is default
        assert scoped.counter("scoped.only") == 1.0
        assert default.counter("scoped.only") == 0.0


class TestTracer:
    def test_spans_nest_implicitly_within_a_thread(self):
        tracer = Tracer(trace_id="t")
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # Recorded in finish order: inner closes first.
        assert [span.name for span in tracer.spans] == ["inner", "outer"]

    def test_explicit_parent_crosses_threads(self):
        tracer = Tracer(trace_id="t")
        seen: dict[str, str | None] = {}

        with tracer.span("root") as root:

            def worker():
                # contextvars do not flow into pool threads; the
                # explicit parent= is the only correct edge here.
                with tracer.span("child", parent=root) as child:
                    seen["parent"] = child.parent_id
                with tracer.span("orphan") as orphan:
                    seen["orphan_parent"] = orphan.parent_id

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()

        assert seen["parent"] == root.span_id
        assert seen["orphan_parent"] is None

    def test_exception_marks_span_errored_and_propagates(self):
        tracer = Tracer(trace_id="t")
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        (span,) = tracer.spans
        assert span.status == "error"
        assert span.error == "RuntimeError: boom"
        assert span.end_s is not None

    def test_span_ids_are_unique_and_durations_nonnegative(self):
        tracer = Tracer(trace_id="t")
        for index in range(5):
            with tracer.span("op", index=index):
                pass
        ids = [span.span_id for span in tracer.spans]
        assert len(set(ids)) == 5
        assert all(span.duration_s >= 0 for span in tracer.spans)

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer(trace_id="roundtrip")
        with tracer.span("a", detail=1):
            with tracer.span("b"):
                pass
        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(path) == 2
        lines = path.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        assert {record["name"] for record in records} == {"a", "b"}
        assert all(record["trace_id"] == "roundtrip" for record in records)
        by_name = {record["name"]: record for record in records}
        assert by_name["b"]["parent_id"] == by_name["a"]["span_id"]
        assert by_name["a"]["attributes"] == {"detail": 1}

    def test_span_tree_groups_by_parent(self):
        tracer = Tracer(trace_id="t")
        with tracer.span("root") as root:
            with tracer.span("leaf"):
                pass
        tree = tracer.span_tree()
        assert [span.name for span in tree[None]] == ["root"]
        assert [span.name for span in tree[root.span_id]] == ["leaf"]

    def test_null_tracer_records_nothing(self, tmp_path):
        with NULL_TRACER.span("anything", key="value") as span:
            span.set(more="attributes")
        assert NULL_TRACER.spans == []
        assert NULL_TRACER.to_jsonl() == ""
        assert not NULL_TRACER.enabled
        path = tmp_path / "empty.jsonl"
        assert NULL_TRACER.export_jsonl(path) == 0
        assert path.read_text(encoding="utf-8") == ""

    def test_null_span_is_shared_not_allocated(self):
        with NULL_TRACER.span("a") as first:
            pass
        with NULL_TRACER.span("b") as second:
            pass
        assert first is second

    def test_use_tracer_swaps_the_active_tracer(self):
        assert isinstance(get_tracer(), NullTracer)
        tracer = Tracer(trace_id="scoped")
        with use_tracer(tracer):
            assert get_tracer() is tracer
            with get_tracer().span("inside"):
                pass
        assert isinstance(get_tracer(), NullTracer)
        assert [span.name for span in tracer.spans] == ["inside"]


# -- thread fan-out metrics ---------------------------------------------


def _count_in_task(value: int) -> int:
    """Writes the active registry from inside a fan-out task."""
    metrics = get_metrics()
    metrics.inc("child.work")
    metrics.inc("child.value_total", value)
    metrics.observe("child.values", value, edges=(2.0, 5.0))
    return value * 2


class TestProcessDeltaMerge:
    def test_thread_backend_writes_parent_registry_directly(self):
        """No delta shipping in-process — and crucially no double count."""
        items = list(range(6))
        registry = MetricsRegistry()
        with use_metrics(registry):
            executor = ParallelExecutor(workers=4)
            outcomes = executor.run(_count_in_task, items)
        assert [outcome.result() for outcome in outcomes] == [
            item * 2 for item in items
        ]
        assert registry.counter("child.work") == len(items)
        assert registry.counter("child.value_total") == sum(items)
        assert registry.counter("parallel.tasks.completed") == len(items)
        hist = registry.snapshot()["histograms"]["child.values"]
        assert hist["count"] == len(items)
        assert hist["sum"] == pytest.approx(sum(items))
        # values 0,1,2 | 3,4,5 -> buckets <=2, <=5, overflow
        assert hist["counts"] == [3, 3, 0]


# -- traced surveys -----------------------------------------------------


@pytest.fixture(scope="module")
def street_view():
    return StreetViewClient(
        counties=[make_durham_like(seed=3)], api_key="obs-tests"
    )


def _single_decoder(street_view, clients, render_pixels=False):
    return NeighborhoodDecoder(
        street_view=street_view,
        classifier=LLMIndicatorClassifier(clients["gemini-1.5-pro"]),
        render_pixels=render_pixels,
    )


class TestTracedSurvey:
    def test_report_is_byte_identical_with_tracing_on(
        self, street_view, clients
    ):
        county = make_durham_like(seed=3)
        plain = _single_decoder(street_view, clients).survey(
            county, n_locations=6, seed=4, max_inflight=4
        )
        with use_tracer(Tracer(trace_id="t")), use_metrics(MetricsRegistry()):
            traced = _single_decoder(street_view, clients).survey(
                county, n_locations=6, seed=4, max_inflight=4
            )
        assert traced.to_json() == plain.to_json()

    def test_metrics_reconcile_with_report_counters(
        self, street_view, clients
    ):
        county = make_durham_like(seed=3)
        with use_metrics(MetricsRegistry()):
            report = _single_decoder(street_view, clients).survey(
                county, n_locations=6, seed=4, max_inflight=4
            )
        assert nonempty_delta(report.metrics)
        assert reconcile_survey(report) == []

    def test_reconcile_flags_missing_delta_and_mismatches(
        self, street_view, clients
    ):
        county = make_durham_like(seed=3)
        with use_metrics(MetricsRegistry()):
            report = _single_decoder(street_view, clients).survey(
                county, n_locations=4, seed=4
            )
        assert reconcile_survey(report, delta={}) == [
            "no metrics delta recorded on the report"
        ]
        cooked = json.loads(json.dumps(report.metrics))
        cooked["counters"]["survey.images.classified"] += 1
        mismatches = reconcile_survey(report, delta=cooked)
        assert len(mismatches) == 1
        assert "images classified" in mismatches[0]

    def test_traced_ensemble_survey_passes_the_full_audit(
        self, street_view, clients
    ):
        county = make_durham_like(seed=3)
        ensemble = VotingEnsemble(
            {
                name: LLMIndicatorClassifier(clients[name])
                for name in ("gemini-1.5-pro", "claude-3.7", "grok-2")
            }
        )
        decoder = NeighborhoodDecoder(
            street_view=street_view, ensemble=ensemble, render_pixels=True
        )
        tracer = Tracer(trace_id="audit")
        with use_tracer(tracer), use_metrics(MetricsRegistry()):
            report = decoder.survey(
                county, n_locations=4, seed=9, max_inflight=2
            )
        assert report.coverage == 1.0
        assert reconcile_survey(report) == []
        assert audit_trace(tracer) == []
        names = {span.name for span in tracer.spans}
        assert set(SURVEY_STAGES) <= names
        assert {"gsv.fetch", "gsv.render"} <= names
        # The survey is the only root, and every survey.location span
        # hangs off it.
        (root,) = [span for span in tracer.spans if span.parent_id is None]
        assert root.name == "survey"
        locations = [
            span for span in tracer.spans if span.name == "survey.location"
        ]
        assert len(locations) == 4
        assert all(span.parent_id == root.span_id for span in locations)
        # Fetches run on bridge threads yet still nest under the
        # location that issued them.
        location_ids = {span.span_id for span in locations}
        fetches = [span for span in tracer.spans if span.name == "gsv.fetch"]
        assert len(fetches) == 16
        assert all(span.parent_id in location_ids for span in fetches)

    def test_audit_trace_reports_structural_problems(self):
        tracer = Tracer(trace_id="broken")
        with tracer.span("survey.location"):
            pass
        problems = audit_trace(tracer)
        assert any("missing stage span: survey" == p for p in problems)
        assert any("exactly one 'survey' root" in p for p in problems)
