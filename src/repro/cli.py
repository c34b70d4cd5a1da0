"""Command-line interface: run any experiment from the shell.

Usage::

    python -m repro list                 # enumerate experiments
    python -m repro table1               # one experiment
    python -m repro fig5 --scale paper   # full paper scale
    python -m repro all --scale smoke    # everything, fast
    python -m repro all --workers auto --artifacts .artifacts
    python -m repro survey --locations 20 --min-coverage 0.9
    python -m repro survey --locations 64 --max-inflight 8  # pipelined
    python -m repro survey --locations 20 --metrics metrics.json
    python -m repro trace --locations 12 --max-inflight 4  # traced survey
    python -m repro survey --locations 40 --checkpoint c.json  # resumable
    python -m repro serve --selftest     # multi-tenant daemon drill

Results render as plain-text tables on stdout.  ``survey`` runs the
deployable decoder end-to-end, prints a coverage/degradation summary,
and exits nonzero only when coverage falls below ``--min-coverage``;
``--metrics PATH`` additionally writes the observability-counter
delta the survey moved.  ``trace`` runs the same survey under a
recording :class:`~repro.obs.trace.Tracer` and a voting ensemble,
exports the span tree to ``--trace-out`` (default ``trace.jsonl``),
and audits it: the trace must be structurally sound and the metrics
must reconcile exactly against the report's own counters (see
:mod:`repro.obs.audit`).  Performance is measured by perfbench
(``perfbench/run.py``, with its workloads and bounds in
``BENCHMARK.json``), not by this command.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import sys
import time
from pathlib import Path

from .detect.train import TrainConfig
from .experiments import (
    PAPER_RUNNERS,
    ExperimentConfig,
    ExperimentSuite,
    paper_config,
    smoke_config,
)
from .experiments.extensions import (
    run_correlation_ablation,
    run_cost_accounting,
    run_fault_drill,
    run_few_shot_languages,
    run_label_efficiency,
    run_label_noise,
    run_multi_frame,
    run_weather_robustness,
)

#: Descriptions for the paper experiments; the runners themselves come
#: from :data:`repro.experiments.PAPER_RUNNERS` so the CLI menu can
#: never drift from what :meth:`ExperimentSuite.run_all` executes.
_PAPER_DESCRIPTIONS = {
    "table1": "Table I: detector accuracy",
    "fig2": "Fig. 2: augmentation ablation",
    "fig3": "Fig. 3: SNR robustness",
    "table2": "Table II: example responses",
    "fig4": "Fig. 4: prompt structure",
    "fig5": "Fig. 5: LLM accuracy + voting",
    "tables3to6": "Tables III-VI: per-LLM confusion",
    "fig6": "Fig. 6: prompt languages",
    "param": "§IV-C4: temperature/top-p",
    "prior": "§IV-B3: prior work",
}

#: Experiment name → (description, runner over a suite).
EXPERIMENTS = {
    name: (_PAPER_DESCRIPTIONS.get(name, name), runner)
    for name, runner in PAPER_RUNNERS.items()
}
EXPERIMENTS.update(
    {
        "label-noise": ("Ext. A: annotation noise", run_label_noise),
        "few-shot": ("Ext. B: few-shot languages", run_few_shot_languages),
        "multi-frame": ("Ext. C: multi-frame fusion", run_multi_frame),
        "cost": ("Ext. D: cost accounting", run_cost_accounting),
        "correlation": (
            "Ext. E: voting vs error correlation",
            run_correlation_ablation,
        ),
        "label-efficiency": (
            "Ext. G: detector F1 vs label budget",
            run_label_efficiency,
        ),
        "weather": ("Ext. H: weather robustness", run_weather_robustness),
        "resilience": ("Ext. I: fault-tolerant survey drill", run_fault_drill),
    }
)


def _parse_workers(value: str) -> int | str:
    """``--workers`` accepts a non-negative integer (0 = auto) or ``auto``."""
    if value == "auto":
        return "auto"
    try:
        workers = int(value)
    except ValueError:
        workers = -1
    if workers < 0:
        raise argparse.ArgumentTypeError(
            f"workers must be a non-negative integer or 'auto', got {value!r}"
        )
    return workers


def _int_at_least(low: int):
    """An argparse type for an integer >= ``low``."""

    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            number = low - 1
        if number < low:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {low}, got {value!r}"
            )
        return number

    return parse


#: A count that must be at least 1 (``--queue-depth``, ...).
_positive_int = _int_at_least(1)


def _float_in(
    low: float, high: float = math.inf, *, low_open: bool = False,
    high_open: bool = False,
):
    """An argparse type for a finite float in an interval.

    The bounds are inclusive unless ``low_open``/``high_open``; NaN
    and the infinities are always rejected.
    """

    def parse(value: str) -> float:
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not (
            math.isfinite(number)
            and (low < number if low_open else low <= number)
            and (number < high if high_open else number <= high)
        ):
            interval = (
                f"{'(' if low_open else '['}{low:g}, {high:g}"
                f"{')' if high_open or math.isinf(high) else ']'}"
            )
            raise argparse.ArgumentTypeError(
                f"must be a finite number in {interval}, got {value!r}"
            )
        return number

    return parse


def _config_for(scale: str) -> ExperimentConfig:
    if scale == "paper":
        return paper_config()
    if scale == "smoke":
        return smoke_config()
    if scale == "bench":
        return ExperimentConfig(
            n_images=600,
            image_size=640,
            n_calibration_images=600,
            detector_train=TrainConfig(epochs=20, batch_size=16),
        )
    raise SystemExit(f"unknown scale: {scale!r}")


def _run_survey(args: argparse.Namespace, tracer=None) -> int:
    """Run one fault-tolerant survey and summarize its outcome.

    Exit status is 0 when coverage meets ``--min-coverage`` and 1
    otherwise — partial results are reported either way, so an
    operator can rerun with the same ``--checkpoint`` to resume.

    With a ``tracer`` (the ``trace`` command) the decoder drives the
    paper's three-model voting ensemble and renders pixels eagerly, so
    the recorded span tree covers every stage — fetch, render, LLM
    request, vote, merge — and the run ends with a determinism audit.
    The tracer records the survey alone, so ``survey`` is the only root
    of its span tree.
    """
    from .core.classifier import LLMIndicatorClassifier
    from .core.pipeline import NeighborhoodDecoder
    from .core.voting import VotingEnsemble
    from .geo.county import make_durham_like, make_robeson_like
    from .gsv.api import StreetViewClient
    from .gsv.dataset import build_survey_dataset
    from .llm.paper_targets import GEMINI_15_PRO, VOTING_MODEL_IDS
    from .llm.registry import build_clients
    from .obs.trace import get_tracer, use_tracer
    from .resilience import CircuitBreaker, RetryPolicy

    traced = tracer is not None

    county = (
        make_durham_like(seed=3)
        if args.county == "durham"
        else make_robeson_like(seed=2)
    )
    street_view = StreetViewClient(
        counties=[county],
        api_key="cli-survey",
        failure_rate=args.gsv_failure_rate,
        daily_quota=args.daily_quota,
    )
    use_cascade = bool(getattr(args, "cascade", False)) and not traced
    calibration = build_survey_dataset(n_images=60, size=256, seed=77)
    if traced:
        model_ids = tuple(VOTING_MODEL_IDS)
    elif use_cascade:
        from .llm.paper_targets import ALL_MODEL_IDS

        model_ids = tuple(ALL_MODEL_IDS)
    else:
        model_ids = (GEMINI_15_PRO,)
    clients = build_clients(
        [image.scene for image in calibration], model_ids=model_ids
    )
    if traced:
        brains: dict = {
            "ensemble": VotingEnsemble(
                classifiers={
                    model_id: LLMIndicatorClassifier(clients[model_id])
                    for model_id in model_ids
                }
            )
        }
    elif use_cascade:
        from .cascade import build_shipped_cascade

        brains = {
            "cascade": build_shipped_cascade(
                clients, threshold=args.cascade_threshold
            )
        }
    else:
        brains = {
            "classifier": LLMIndicatorClassifier(clients[GEMINI_15_PRO])
        }
    decoder = NeighborhoodDecoder(
        street_view=street_view,
        retry_policy=RetryPolicy(max_attempts=4, base_delay_s=0.05,
                                 max_delay_s=0.5),
        gsv_breaker=CircuitBreaker(name="gsv", failure_threshold=12,
                                   recovery_time_s=1.0),
        render_pixels=traced,
        **brains,
    )
    with use_tracer(tracer if traced else get_tracer()):
        report = decoder.survey(
            county,
            args.locations,
            seed=args.seed,
            checkpoint=args.checkpoint,
            keep_locations=not args.stream,
            max_inflight=args.max_inflight,
        )

    print(f"\n=== survey of {county.name} ===")
    print(f"max inflight   {args.max_inflight}")
    if args.stream:
        print("mode           stream (aggregate report)")
    if report.pipeline_stats:
        ps = report.pipeline_stats
        print(
            f"aimd window    {ps['initial_limit']} -> {ps['final_limit']} "
            f"(peak inflight {ps['peak_inflight']}, "
            f"{ps['throttle_events']} throttle events, "
            f"{ps['decreases']} decreases)"
        )
    bs = report.batch_stats
    if bs.get("batches"):
        print(
            f"micro-batches  {bs['batches']} dispatches / "
            f"{bs['batched_requests']} requests "
            f"(largest {bs['max_batch_size']})"
        )
    print(
        f"coverage       {report.coverage:.1%} "
        f"({report.completed_locations}/{report.requested_locations} "
        "locations)"
    )
    print(f"images         {report.images_classified}")
    print(f"fees           ${report.fees_usd:.3f}")
    print(f"degraded votes {report.degraded_votes}")
    if report.cascade_stats:
        cs = report.cascade_stats
        print(
            f"cascade        tier0 {cs['tier0_indicators']} / "
            f"tier1 {cs['tier1_indicators']} / "
            f"tier2 {cs['tier2_indicators']} indicators "
            f"({cs['split_escalations']} splits, "
            f"{cs['deep_escalations']} deep, "
            f"{cs['detector_fallbacks']} fallbacks)"
        )
        for stage, totals in decoder.cascade.meter.stage_totals().items():
            print(
                f"  {stage:16s} {totals['requests']} calls, "
                f"{totals['prompt_tokens'] + totals['completion_tokens']} "
                f"tokens, ${totals['fees_usd']:.6f}"
            )
    stats = report.retry_stats.as_dict()
    print(
        f"fault handling {stats['retries']} retries, "
        f"{stats['failures']} failures, "
        f"{stats['breaker_blocks']} breaker blocks"
    )
    for failed in report.failed_locations:
        print(
            f"  FAILED location {failed.index} "
            f"({failed.latitude:.4f}, {failed.longitude:.4f}): "
            f"{failed.reason}"
        )
    for indicator, rate in report.indicator_rates().items():
        print(f"  {indicator.value:18s} {rate:.2f}")
    if args.metrics:
        metrics_path = Path(args.metrics)
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(
            json.dumps(report.metrics, sort_keys=True, indent=2) + "\n"
        )
        print(f"metrics        {metrics_path}")
    if traced:
        from .obs.audit import audit_trace, reconcile_survey

        mismatches = reconcile_survey(report)
        problems = audit_trace(tracer)
        for line in mismatches:
            print(f"  RECONCILE {line}")
        for line in problems:
            print(f"  TRACE {line}")
        if mismatches or problems:
            print("determinism audit FAILED")
            return 1
        print(
            "determinism audit ok: metrics reconcile with the report "
            "and the span tree is sound"
        )
    if report.coverage < args.min_coverage:
        print(
            f"coverage {report.coverage:.1%} below required "
            f"{args.min_coverage:.1%}"
            + (
                " — rerun with the same --checkpoint to resume"
                if args.checkpoint
                else ""
            )
        )
        return 1
    return 0


def _build_survey_decoder(county, seed: int = 77):
    """One single-classifier decoder, built the way ``survey`` builds it."""
    from .core.classifier import LLMIndicatorClassifier
    from .core.pipeline import NeighborhoodDecoder
    from .gsv.api import StreetViewClient
    from .gsv.dataset import build_survey_dataset
    from .llm.paper_targets import GEMINI_15_PRO
    from .llm.registry import build_clients

    calibration = build_survey_dataset(n_images=60, size=256, seed=seed)
    clients = build_clients(
        [image.scene for image in calibration], model_ids=(GEMINI_15_PRO,)
    )
    return NeighborhoodDecoder(
        street_view=StreetViewClient(counties=[county], api_key="cli-coord"),
        classifier=LLMIndicatorClassifier(clients[GEMINI_15_PRO]),
    )


def _run_cascade(args: argparse.Namespace) -> int:
    """``repro cascade calibrate`` / ``repro cascade frontier``.

    ``calibrate`` fits (and caches, with ``--artifacts``) the margin
    calibration and prints the recommended doubt threshold for a
    validation split.  ``frontier`` (the default) sweeps the threshold
    grid, prints the accuracy-vs-cost table, and writes it (plus the
    reproducible JSON payload) to ``--frontier-out`` for CI to upload.
    """
    from .cascade import (
        build_shipped_cascade,
        recommend_threshold,
        render_frontier_table,
        sweep_frontier,
    )
    from .gsv.dataset import build_survey_dataset
    from .llm.paper_targets import ALL_MODEL_IDS
    from .llm.registry import build_clients

    artifacts = None
    if args.artifacts:
        from .artifacts import ArtifactCache

        artifacts = ArtifactCache(args.artifacts)
    calibration_images = build_survey_dataset(n_images=60, size=256, seed=77)
    clients = build_clients(
        [image.scene for image in calibration_images],
        model_ids=tuple(ALL_MODEL_IDS),
    )
    cascade = build_shipped_cascade(
        clients, artifacts=artifacts, threshold=args.cascade_threshold
    )
    eval_images = build_survey_dataset(n_images=48, size=256, seed=45)

    action = args.action or "frontier"
    if action == "calibrate":
        recommended = recommend_threshold(
            cascade.detector, cascade.calibration, eval_images
        )
        print("=== cascade calibration ===")
        print(f"indicator curves   {len(cascade.calibration.curves)}")
        print(f"validation images  {len(eval_images)}")
        print(f"recommended doubt threshold {recommended:.2f}")
        print(f"configured default          {cascade.threshold:.2f}")
        if artifacts is not None:
            print(f"calibration cached under {args.artifacts}")
        return 0

    report = sweep_frontier(
        cascade.detector,
        cascade.calibration,
        cascade.scout,
        cascade.ensemble,
        eval_images,
        default_threshold=cascade.threshold,
    )
    table = render_frontier_table(report)
    print("=== cascade cost/accuracy frontier ===")
    print(table)
    out = Path(args.frontier_out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(table + "\n")
    json_out = out.with_suffix(".json")
    json_out.write_text(
        json.dumps(report.payload(), indent=2, sort_keys=True) + "\n"
    )
    print(f"frontier table -> {out}")
    print(f"frontier data  -> {json_out}")
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    """Run a traced ensemble survey and export ``trace.jsonl``.

    Runs under a *fresh* metrics registry (so the exported delta spans
    exactly this run) with a recording tracer for the survey itself,
    writes the span tree to ``--trace-out``, and returns the traced
    survey's audited exit status.
    """
    from .obs.metrics import MetricsRegistry, use_metrics
    from .obs.trace import Tracer

    tracer = Tracer(trace_id=f"survey-{args.county}-seed{args.seed}")
    with use_metrics(MetricsRegistry()):
        status = _run_survey(args, tracer=tracer)
    spans = tracer.export_jsonl(args.trace_out)
    print(f"trace          {spans} spans -> {args.trace_out}")
    return status


def _run_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the multi-tenant survey daemon (DESIGN.md §16).

    Speaks the NDJSON protocol over a unix socket (``--socket``) or a
    single stdin/stdout session; ``--selftest`` instead runs the
    deterministic three-job drill and exits — the CI smoke path.
    """
    from .service import (
        ServiceProtocol,
        ServiceStack,
        SurveyService,
        TenantQuota,
        run_selftest,
    )

    if args.selftest:
        return run_selftest()
    quota = TenantQuota(budget_usd=args.tenant_budget)
    stack = ServiceStack(rate_limit_per_s=args.rate_limit)
    service = SurveyService(
        stack,
        args.state_dir,
        default_quota=quota,
        max_queue_depth=args.queue_depth,
        max_attempts=args.max_attempts,
    )
    for note in service.recovered:
        print(f"recovered {note}")
    protocol = ServiceProtocol(service)

    async def serve() -> int:
        async with service:
            if args.socket:
                print(f"survey daemon listening on {args.socket}")
                await protocol.serve_unix(args.socket)
            else:
                await protocol.serve_stdio()
        return 0

    return asyncio.run(serve())


def main(argv: list[str] | None = None) -> int:
    """Run one command; exit quietly when the reader closes stdout.

    ``repro survey ... | head`` closes the pipe before the report is
    printed.  The command stops there and exits 1, as Python's own
    guidance for ``SIGPIPE`` suggests, without a traceback.  Stdout is
    pointed at ``/dev/null`` so the interpreter's final flush does not
    fail again.
    """
    try:
        status = _main(argv)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'Decoding Neighborhood Environments with Large "
            "Language Models' (DSN 2025)"
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "cascade", "list",
                                       "serve", "survey", "trace"],
        help=(
            "which experiment to run ('survey' runs the decoder itself, "
            "'trace' runs it under a recording tracer and audits the "
            "books, 'cascade' calibrates/sweeps the cost-aware "
            "router, 'serve' runs the multi-tenant survey daemon)"
        ),
    )
    parser.add_argument(
        "action",
        nargs="?",
        choices=["calibrate", "frontier"],
        help="cascade: sub-action (default: frontier)",
    )
    parser.add_argument(
        "--scale",
        default="bench",
        choices=["smoke", "bench", "paper"],
        help="input scale (default: bench = 600 images at 640 px)",
    )
    parser.add_argument(
        "--artifacts",
        default=None,
        metavar="PATH",
        help=(
            "content-addressed artifact cache directory; reruns replay "
            "feature tensors, detector weights, and predictions from disk"
        ),
    )
    survey_group = parser.add_argument_group("survey options")
    survey_group.add_argument(
        "--county",
        default="durham",
        choices=["durham", "robeson"],
        help="county to survey (default: durham)",
    )
    survey_group.add_argument(
        "--locations",
        type=_positive_int,
        default=12,
        help="number of survey locations (default: 12)",
    )
    survey_group.add_argument(
        "--seed", type=int, default=0, help="survey seed (default: 0)"
    )
    survey_group.add_argument(
        "--workers",
        type=_parse_workers,
        default=1,
        help=(
            "parallel workers for experiments (a thread pool); "
            "'auto' = one per usable CPU (default: 1, serial)"
        ),
    )
    survey_group.add_argument(
        "--min-coverage",
        type=_float_in(0.0, 1.0),
        default=1.0,
        help=(
            "exit nonzero when coverage, a share in [0, 1], falls below "
            "this (default: 1.0)"
        ),
    )
    survey_group.add_argument(
        "--checkpoint",
        default=None,
        help="JSON checkpoint path; reruns resume completed locations",
    )
    survey_group.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=1,
        metavar="N",
        help=(
            "survey/trace: max locations pipelined at once and ceiling "
            "of the AIMD classify window; inside the window one "
            "location's fetch overlaps another's LLM calls, and the "
            "report stays byte-identical at any window (default: 1, "
            "one location at a time)"
        ),
    )
    survey_group.add_argument(
        "--stream",
        action="store_true",
        help=(
            "survey: report aggregate indicator rates instead of "
            "per-location rows (memory bounded by --max-inflight)"
        ),
    )
    survey_group.add_argument(
        "--cascade",
        action="store_true",
        help=(
            "classify with the cost-aware cascade (detector-first, "
            "LLM-on-doubt, full-ensemble last) instead of a single LLM"
        ),
    )
    survey_group.add_argument(
        "--cascade-threshold",
        type=_float_in(0.0, 0.5),
        default=None,
        metavar="DOUBT",
        help=(
            "cascade doubt tolerance in [0, 0.5]; 0 escalates every "
            "indicator to the full ensemble (default: the calibrated "
            "DEFAULT_THRESHOLD)"
        ),
    )
    survey_group.add_argument(
        "--frontier-out",
        default="frontier_cascade.md",
        metavar="PATH",
        help=(
            "cascade frontier: output table path; the JSON payload is "
            "written next to it (default: frontier_cascade.md)"
        ),
    )
    survey_group.add_argument(
        "--gsv-failure-rate",
        type=_float_in(0.0, 1.0, high_open=True),
        default=0.0,
        help="injected transient-failure probability in [0, 1) (default: 0)",
    )
    survey_group.add_argument(
        "--daily-quota",
        type=_int_at_least(0),
        default=None,
        help="simulated GSV daily image quota (default: unlimited)",
    )
    survey_group.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help=(
            "write the survey's observability-counter delta (the same "
            "dict repro.obs.audit reconciles) to PATH as JSON"
        ),
    )
    survey_group.add_argument(
        "--trace-out",
        default="trace.jsonl",
        metavar="PATH",
        help="trace: span export path (default: trace.jsonl)",
    )
    serve_group = parser.add_argument_group("serve options")
    serve_group.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help=(
            "serve: accept NDJSON sessions on this unix socket "
            "(default: one session over stdin/stdout)"
        ),
    )
    serve_group.add_argument(
        "--queue-depth",
        type=_positive_int,
        default=16,
        metavar="N",
        help="serve: bounded admission queue depth (default: 16)",
    )
    serve_group.add_argument(
        "--tenant-budget",
        type=_float_in(0.0),
        default=None,
        metavar="USD",
        help=(
            "serve: default per-tenant imagery-fee budget "
            "(default: unmetered)"
        ),
    )
    serve_group.add_argument(
        "--rate-limit",
        type=_float_in(0.0, low_open=True),
        default=None,
        metavar="PER_S",
        help="serve: shared LLM token-bucket rate (default: unlimited)",
    )
    serve_group.add_argument(
        "--state-dir",
        default=".coord_state",
        metavar="PATH",
        help=(
            "serve: durable state directory (job manifest, per-job "
            "checkpoints and reports; default: .coord_state)"
        ),
    )
    serve_group.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=3,
        metavar="N",
        help=(
            "serve: dispatches per job; a job that fails or is "
            "interrupted on its last one fails clean (default: 3)"
        ),
    )
    serve_group.add_argument(
        "--selftest",
        action="store_true",
        help=(
            "serve: run the deterministic three-job service drill "
            "against a temporary state directory and exit (CI smoke)"
        ),
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name, (description, _) in sorted(EXPERIMENTS.items()):
            print(f"  {name:12s} {description}")
        return 0
    if args.experiment == "survey":
        return _run_survey(args)
    if args.experiment == "trace":
        return _run_trace(args)
    if args.experiment == "cascade":
        return _run_cascade(args)
    if args.experiment == "serve":
        return _run_serve(args)

    artifacts = None
    if args.artifacts:
        from .artifacts import ArtifactCache

        artifacts = ArtifactCache(args.artifacts)
    suite = ExperimentSuite(
        config=_config_for(args.scale),
        workers=args.workers,
        artifacts=artifacts,
    )

    if args.experiment == "all":
        # Paper experiments fan out concurrently over shared warmed
        # inputs; the extensions run serially afterwards.
        run = suite.run_all(workers=args.workers)
        for name, results in run.results.items():
            print(f"\n=== {EXPERIMENTS[name][0]} (scale={args.scale}) ===")
            for result in results:
                print(result.render())
        for name in sorted(set(EXPERIMENTS) - set(PAPER_RUNNERS)):
            description, runner = EXPERIMENTS[name]
            print(f"\n=== {description} (scale={args.scale}) ===")
            started = time.time()
            outcome = runner(suite)
            results = outcome if isinstance(outcome, list) else [outcome]
            for result in results:
                print(result.render())
            print(f"[{time.time() - started:.1f}s]")
        print(f"\n{run.render_summary()}")
        return 0

    description, runner = EXPERIMENTS[args.experiment]
    print(f"\n=== {description} (scale={args.scale}) ===")
    started = time.time()
    outcome = runner(suite)
    results = outcome if isinstance(outcome, list) else [outcome]
    for result in results:
        print(result.render())
    print(f"[{time.time() - started:.1f}s]")
    if artifacts is not None:
        stats = suite.cache_stats()
        print(
            f"artifact cache: {stats['hits']} hits, "
            f"{stats['misses']} misses"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
