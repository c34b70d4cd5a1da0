"""The three closed-loop workloads, driven through the public APIs.

Each workload is an object with four coroutines:

* ``build(seed, root)`` — the set-up a user pays before the first
  survey: clients, counties, decoders, the cascade or the daemon.  The
  runner times it several times and reports the median as ``setup_s``.
* ``warm(env)`` — one small batch through the same path, untimed.
* ``measure(env, size, window)`` — the timed phase, run inside the
  ``window`` context manager (which times it, and traces it in a
  traced run), then the resume pass and the output checks; returns a
  :class:`Phase`.
* ``close(env)``.

``size`` is the amount of work of the timed phase (locations, or jobs
for ``service-mix``).  It is a function of ``--seconds`` only, never of
measured speed, so every run of one seed does the same work.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.cascade import CascadeClassifier, fit_cascade_calibration, token_fee_usd
from repro.core.classifier import LLMIndicatorClassifier
from repro.core.indicators import ALL_INDICATORS
from repro.core.pipeline import NeighborhoodDecoder
from repro.core.voting import VotingEnsemble
from repro.detect.train import TrainConfig, train_detector
from repro.geo.county import make_durham_like
from repro.geo.sampling import expand_to_captures, plan_survey_points
from repro.gsv.api import FEE_PER_IMAGE_USD, StreetViewClient
from repro.gsv.dataset import build_survey_dataset
from repro.llm.base import Usage
from repro.llm.paper_targets import ALL_MODEL_IDS, GEMINI_15_PRO, GPT_4O_MINI
from repro.llm.registry import build_clients
from repro.perf import LatencyChatClient
from repro.resilience.checkpoint import SurveyCheckpoint
from probes import Timer
from repro.service import (
    CAPTURES_PER_LOCATION,
    JobSpec,
    JobState,
    ServiceStack,
    SurveyService,
    checkpoint_key,
)

#: Resume passes per run; ``resume_s`` is their median.
RESUME_PASSES = 25
#: The study counties; ``--seed`` picks the survey seed inside them.
COUNTY_SEEDS = (3, 4, 5)


@dataclass
class Phase:
    """What one timed phase did, and what its checks found."""

    locations: int
    attempted: int
    failed: int
    wall_s: float
    cpu_s: float
    usd: float
    macro_f1: float
    digest: str
    job_latencies_s: list[float]
    resume_s: float
    images: int
    problems: list[str] = field(default_factory=list)
    #: Workload-side counters the traced run turns into layer metrics.
    layer: dict = field(default_factory=dict)


# -- shared helpers -----------------------------------------------------


def llm_clients(model_ids: tuple[str, ...], n_scenes: int, seed: int) -> dict:
    calibration = build_survey_dataset(n_images=n_scenes, size=256, seed=seed)
    return build_clients(
        [image.scene for image in calibration], model_ids=model_ids
    )


def token_totals(clients) -> tuple[int, int]:
    """Upstream prompt and completion tokens of the raw model clients."""
    return (
        sum(client.stats.prompt_tokens for client in clients),
        sum(client.stats.completion_tokens for client in clients),
    )


def llm_fee(before: tuple[int, int], after: tuple[int, int]) -> float:
    return token_fee_usd(
        Usage(
            prompt_tokens=after[0] - before[0],
            completion_tokens=after[1] - before[1],
        )
    )


def truth_of(county, points) -> list[frozenset[str]]:
    """Ground truth: indicators present in any heading of each location.

    Re-generates every capture's scene on a client of the benchmark's
    own, so the oracle shares no state with the program under test.
    """
    oracle = StreetViewClient(counties=[county], api_key="oracle")
    return [
        frozenset(
            indicator.value
            for capture in expand_to_captures([point])
            for indicator in oracle.fetch_capture(capture, render=False)
            .scene.presence.present
        )
        for point in points
    ]


def macro_f1(truths: list[frozenset[str]], preds: list[frozenset[str]]) -> float:
    """Per-indicator F1 of location presence, averaged over indicators.

    ``truths`` and ``preds`` pair up by position and must be equally
    long.  Indicators absent from both truth and prediction everywhere
    carry no information and are left out of the average.
    """
    pairs = list(zip(truths, preds, strict=True))
    scores = []
    for indicator in ALL_INDICATORS:
        name = indicator.value
        tp = sum(name in t and name in p for t, p in pairs)
        fp = sum(name not in t and name in p for t, p in pairs)
        fn = sum(name in t and name not in p for t, p in pairs)
        if tp + fp + fn:
            scores.append(2 * tp / (2 * tp + fp + fn))
    return sum(scores) / len(scores) if scores else 0.0


def digest_of(document) -> str:
    return hashlib.sha256(
        json.dumps(document, sort_keys=True).encode()
    ).hexdigest()


def check_billing(problems: list[str], images: int, locations: int, fees: float) -> None:
    if images != CAPTURES_PER_LOCATION * locations:
        problems.append(
            f"billed {images} images for {locations} locations, "
            f"expected {CAPTURES_PER_LOCATION * locations}"
        )
    if abs(fees - images * FEE_PER_IMAGE_USD) > 1e-9:
        problems.append(
            f"imagery fees ${fees:.9f} != {images} x ${FEE_PER_IMAGE_USD}"
        )


def present_sets(locations) -> list[frozenset[str]]:
    return [frozenset(loc["present"]) for loc in locations]


def check_planned(problems: list[str], what: str, points, locations) -> bool:
    """The decoded locations must be the planned points, in plan order.

    Ground truth pairs with predictions by position, so this keeps
    ``macro_f1`` from scoring one location against another's truth.
    """
    planned = [(point.location.lat, point.location.lon) for point in points]
    decoded = [(loc["latitude"], loc["longitude"]) for loc in locations]
    if planned != decoded:
        problems.append(f"{what}: decoded locations are not the planned points")
    return planned == decoded


@dataclass
class Finished:
    """A finished survey to resume: its locations, checkpoint and report."""

    decoder: NeighborhoodDecoder
    points: list
    path: Path
    key: dict
    payload: dict
    engine: dict


async def timed_resume(finished: list[Finished], meter, problems: list[str]) -> float:
    """Median wall time of resume passes over finished checkpoints.

    A pass streams each survey's own points back through the engine on
    its checkpoint, so it loads and restores every location without
    planning the survey again.  It must bill no image and decode each
    payload again; ``fees_usd`` and ``retry_stats`` describe the work a
    pass did, and a resume pass does none.
    """
    images0 = meter.images_served
    samples = []
    for _ in range(RESUME_PASSES):
        with Timer() as resumed:
            reports = [
                await survey.decoder.survey_stream_async(
                    locations=survey.points,
                    checkpoint_store=SurveyCheckpoint(survey.path, survey.key),
                    keep_locations=True,
                    **survey.engine,
                )
                for survey in finished
            ]
        samples.append(resumed.wall_s)
        if meter.images_served != images0 or any(r.fees_usd for r in reports):
            problems.append(f"resume pass billed {meter.images_served - images0} images")
        for survey, report in zip(finished, reports):
            work = {name: survey.payload[name] for name in ("fees_usd", "retry_stats")}
            if {**report.payload(), **work} != survey.payload:
                problems.append("resume pass returned a different report")
        if problems:
            break
    return statistics.median(samples)


@dataclass
class SurveyEnv:
    """One set-up of a single-caller workload."""

    seed: int
    root: Path
    county: object
    street_view: StreetViewClient
    decoder: NeighborhoodDecoder
    raw_clients: list


async def _single_survey(
    env: SurveyEnv, size: int, window, run, inflight: int, problems: list[str]
) -> Phase:
    """Shared body of the two single-caller workloads.

    ``run(store)`` issues the timed survey of ``size`` locations of
    ``env.seed`` into the checkpoint ``store``.
    """
    path = env.root / f"survey-{size}.json"
    key = {"county": env.county.name, "n_locations": size, "seed": env.seed}
    points = plan_survey_points([env.county], size, env.seed)
    meter = env.street_view.usage()
    images0, fees0 = meter.images_served, meter.fees_usd
    tokens0 = token_totals(env.raw_clients)
    with window:
        report = await run(SurveyCheckpoint(path, key))
    images = meter.images_served - images0
    imagery = meter.fees_usd - fees0
    llm = llm_fee(tokens0, token_totals(env.raw_clients))
    payload = report.payload()
    resume_s = await timed_resume(
        [Finished(env.decoder, points, path, key, payload, {"max_inflight": inflight})],
        meter,
        problems,
    )
    check_billing(problems, images, report.completed_locations, imagery)
    if abs(report.fees_usd - imagery) > 1e-9:
        problems.append("report fees disagree with the usage meter")
    aligned = check_planned(problems, "survey", points, payload["locations"])
    truths = truth_of(env.county, points)
    f1 = macro_f1(truths, present_sets(payload["locations"])) if aligned else 0.0
    phase = Phase(
        locations=report.completed_locations,
        attempted=size,
        failed=len(report.failed_locations),
        wall_s=window.wall_s,
        cpu_s=window.cpu_s,
        usd=imagery + llm,
        macro_f1=f1,
        digest=digest_of(payload),
        job_latencies_s=[window.wall_s],
        resume_s=resume_s,
        images=images,
        problems=problems,
    )
    return phase


# -- cascade-survey -----------------------------------------------------


class CascadeSurvey:
    """One caller, one long cascade ``survey_async``: pure CPU."""

    name = "cascade-survey"
    #: Strictly sequential: at window 2 both vCPUs of the reference
    #: host run engine work, and its wall time then follows the host's
    #: CPU steal (275-597 ms per location across runs, against 512-593
    #: at window 1).
    window = 1
    #: Locations per second of ``--seconds`` on a 2-vCPU host.
    rate = 1.8
    min_size = 8

    async def build(self, seed: int, root: Path) -> SurveyEnv:
        images = build_survey_dataset(n_images=56, size=256, seed=21).images
        train, holdout = images[:32], images[32:]
        detector = train_detector(
            train, train_config=TrainConfig(epochs=4, batch_size=16)
        ).model
        calibration = fit_cascade_calibration(detector, holdout)
        clients = build_clients(
            [image.scene for image in holdout], model_ids=tuple(ALL_MODEL_IDS)
        )
        county = make_durham_like(seed=COUNTY_SEEDS[0])
        street_view = StreetViewClient(counties=[county], api_key="cascade")
        cascade = CascadeClassifier(
            detector=detector,
            calibration=calibration,
            scout=LLMIndicatorClassifier(clients[GPT_4O_MINI]),
            ensemble=VotingEnsemble(
                classifiers={
                    model_id: LLMIndicatorClassifier(client)
                    for model_id, client in clients.items()
                }
            ),
            meter=street_view.usage(),
        )
        return SurveyEnv(
            seed=seed,
            root=root,
            county=county,
            street_view=street_view,
            decoder=NeighborhoodDecoder(street_view=street_view, cascade=cascade),
            raw_clients=list(clients.values()),
        )

    async def warm(self, env: SurveyEnv) -> None:
        await env.decoder.survey_async(
            env.county, 2, seed=env.seed + 500_000, max_inflight=self.window
        )

    async def measure(self, env: SurveyEnv, size: int, window) -> Phase:
        problems: list[str] = []
        meter = env.street_view.usage()
        stages0 = meter.stage_totals()
        tiers0 = env.decoder.cascade.stats.snapshot()

        async def run(store):
            return await env.decoder.survey_async(
                env.county,
                size,
                seed=env.seed,
                max_inflight=self.window,
                checkpoint_store=store,
            )

        phase = await _single_survey(env, size, window, run, self.window, problems)
        # Tier fees booked on the meter must match the raw clients' tokens.
        stages = meter.stage_totals()
        tier_fees = sum(
            stages[name]["fees_usd"] - stages0.get(name, {}).get("fees_usd", 0.0)
            for name in stages
            if name != "imagery"
        )
        imagery = phase.images * FEE_PER_IMAGE_USD
        if abs(tier_fees - (phase.usd - imagery)) > 1e-9:
            problems.append(
                f"cascade tier fees ${tier_fees:.9f} disagree with "
                f"token fees ${phase.usd - imagery:.9f}"
            )
        tiers = env.decoder.cascade.stats.snapshot()
        phase.layer["tiers"] = {
            name: tiers[name] - tiers0[name] for name in tiers
        }
        return phase

    async def close(self, env: SurveyEnv) -> None:
        pass


# -- checkpointed-stream --------------------------------------------------


class CheckpointedStream:
    """One caller streams LLM-only locations into a checkpoint, then resumes."""

    name = "checkpointed-stream"
    window = 1
    rate = 40.0
    min_size = 40

    async def build(self, seed: int, root: Path) -> SurveyEnv:
        clients = llm_clients((GEMINI_15_PRO,), 60, 77)
        county = make_durham_like(seed=COUNTY_SEEDS[0])
        street_view = StreetViewClient(counties=[county], api_key="stream")
        return SurveyEnv(
            seed=seed,
            root=root,
            county=county,
            street_view=street_view,
            decoder=NeighborhoodDecoder(
                street_view=street_view,
                classifier=LLMIndicatorClassifier(clients[GEMINI_15_PRO]),
            ),
            raw_clients=list(clients.values()),
        )

    async def _stream(self, env: SurveyEnv, size: int, seed: int, store):
        return await env.decoder.survey_stream_async(
            env.county,
            size,
            seed=seed,
            max_inflight=self.window,
            checkpoint_store=store,
            keep_locations=True,
        )

    async def warm(self, env: SurveyEnv) -> None:
        seed = env.seed + 500_000
        key = {"county": env.county.name, "n_locations": 40, "seed": seed}
        await self._stream(
            env, 40, seed, SurveyCheckpoint(env.root / "warm.json", key)
        )

    async def measure(self, env: SurveyEnv, size: int, window) -> Phase:
        async def run(store):
            return await self._stream(env, size, env.seed, store)

        return await _single_survey(env, size, window, run, self.window, [])

    async def close(self, env: SurveyEnv) -> None:
        pass


# -- service-mix ----------------------------------------------------------

#: Simulated round trips of the service workload.
LLM_LATENCY_S = 0.05
GSV_LATENCY_S = 0.02
#: Each job's pipelined window: at most two engine threads per job.
JOB_WINDOW = 2
JOB_SHAPES = tuple(
    (kind, n) for kind in ("survey", "classify") for n in (2, 4, 8)
)
TENANTS = ("tenant-a", "tenant-b")


def job_deck(seed: int, n_jobs: int) -> list[JobSpec]:
    """The jobs of one run, in submission order.

    Fresh jobs cycle through every (kind, size) shape in a fixed order
    over the three study counties, each on a survey seed of its own
    drawn from ``seed``: only the locations change with the seed, never
    the mix, so runs of different seeds do comparable work.  Every
    fourth job repeats the fresh job three places earlier — already
    finished when the repeat is submitted, since the daemon runs jobs
    one at a time in submission order — so the shared response cache
    answers it.
    """
    deck: list[JobSpec] = []
    fresh = 0
    for index in range(n_jobs):
        if index % 4 == 3:
            deck.append(deck[index - 3])
            continue
        kind, n_locations = JOB_SHAPES[fresh % len(JOB_SHAPES)]
        deck.append(
            JobSpec(
                tenant=TENANTS[0],
                kind=kind,
                county_seed=COUNTY_SEEDS[fresh % len(COUNTY_SEEDS)],
                n_locations=n_locations,
                seed=seed * 1000 + fresh,
                max_inflight=JOB_WINDOW,
            )
        )
        fresh += 1
    return deck


@dataclass
class ServiceEnv:
    seed: int
    root: Path
    stack: ServiceStack
    service: SurveyService
    raw_clients: list


class ServiceMix:
    """Two tenant clients, one job outstanding each, against one daemon."""

    name = "service-mix"
    rate = 0.7
    min_size = 4

    async def build(self, seed: int, root: Path) -> ServiceEnv:
        raw = llm_clients((GEMINI_15_PRO,), 60, 77)
        stack = ServiceStack(
            api_key="service",
            clients={
                GEMINI_15_PRO: LatencyChatClient(raw[GEMINI_15_PRO], LLM_LATENCY_S)
            },
            gsv_latency_s=GSV_LATENCY_S,
        )
        for county_seed in COUNTY_SEEDS:
            for kind in ("survey", "classify"):
                stack.decoder(kind, county_seed)
        service = SurveyService(stack, root / "state", max_queue_depth=8)
        await service.start()
        return ServiceEnv(
            seed=seed,
            root=root,
            stack=stack,
            service=service,
            raw_clients=list(raw.values()),
        )

    @staticmethod
    async def _closed_loop(service, specs) -> tuple[list[str], list[float]]:
        """Run ``specs`` through one client per tenant.

        Returns each job's id and its latency from submit to the
        terminal event.
        """
        job_ids: list[str] = [""] * len(specs)
        latencies: list[float] = [0.0] * len(specs)
        queue = iter(enumerate(specs))

        async def client(tenant: str) -> None:
            for index, spec in queue:
                started = time.perf_counter()
                job_id = await service.submit(dataclasses.replace(spec, tenant=tenant))
                async for event in service.watch(job_id):
                    if event["terminal"]:
                        break
                latencies[index] = time.perf_counter() - started
                job_ids[index] = job_id

        await asyncio.gather(*(client(tenant) for tenant in TENANTS))
        return job_ids, latencies

    async def warm(self, env: ServiceEnv) -> None:
        specs = [
            JobSpec(
                tenant=TENANTS[0],
                kind=kind,
                county_seed=COUNTY_SEEDS[position],
                n_locations=2,
                seed=env.seed * 1000 + 900 + position,
                max_inflight=JOB_WINDOW,
            )
            for position, kind in enumerate(("survey", "classify"))
        ]
        await self._closed_loop(env.service, specs)

    async def measure(self, env: ServiceEnv, size: int, window) -> Phase:
        problems: list[str] = []
        service, stack = env.service, env.stack
        deck = job_deck(env.seed, size)
        meter = stack.usage()
        images0, fees0 = meter.images_served, meter.fees_usd
        tokens0 = token_totals(env.raw_clients)
        cache = stack.chat_client()
        hits0, misses0 = cache.hits, cache.misses
        with window:
            job_ids, latencies = await self._closed_loop(service, deck)
        images = meter.images_served - images0
        imagery = meter.fees_usd - fees0
        llm = llm_fee(tokens0, token_totals(env.raw_clients))

        records = [await service.status(job_id) for job_id in job_ids]
        failed = sum(record.state is not JobState.DONE for record in records)
        if failed:
            problems.append(f"{failed} of {len(records)} jobs did not finish DONE")
        reports = [await service.result(job_id) for job_id in job_ids]
        settled = sum(record.fees_settled_usd or 0.0 for record in records)
        if abs(settled - imagery) > 1e-9:
            problems.append(
                f"settled fees ${settled:.9f} != metered ${imagery:.9f}"
            )
        locations_done = sum(record.progress for record in records)
        check_billing(problems, images, locations_done, imagery)

        # Every location of every job, from the job's durable checkpoint:
        # classify jobs keep only aggregates in their report.
        plans: dict[JobSpec, list] = {}
        truths_by_spec: dict[JobSpec, list[frozenset[str]]] = {}
        truths: list[frozenset[str]] = []
        preds: list[frozenset[str]] = []
        per_job = []
        aligned = True
        for spec, job_id, report in zip(deck, job_ids, reports):
            county = stack.county(spec.county_seed)
            store = SurveyCheckpoint(
                service.store.checkpoint_path(job_id),
                checkpoint_key(spec, county.name),
            )
            locations = [store.get(index) for index in store.completed_indices]
            if spec not in plans:
                plans[spec] = plan_survey_points(
                    [county], spec.n_locations, spec.seed
                )
                truths_by_spec[spec] = truth_of(county, plans[spec])
            aligned &= check_planned(
                problems, f"job {len(per_job)}", plans[spec], locations
            )
            truths.extend(truths_by_spec[spec])
            preds.extend(present_sets(locations))
            per_job.append({"report": report, "locations": locations})
        for index in range(3, len(deck), 4):
            if per_job[index] != per_job[index - 3]:
                problems.append(f"repeated job {index} decoded differently")

        await self._restart(env, job_ids, reports, problems)
        resume_s = await self._resume(env, deck, plans, job_ids, reports, problems)
        return Phase(
            locations=locations_done,
            attempted=len(deck),
            failed=failed,
            wall_s=window.wall_s,
            cpu_s=window.cpu_s,
            usd=imagery + llm,
            macro_f1=macro_f1(truths, preds) if aligned else 0.0,
            digest=digest_of(per_job),
            job_latencies_s=latencies,
            resume_s=resume_s,
            images=images,
            problems=problems,
            layer={
                "cache": (cache.hits - hits0, cache.misses - misses0),
                "queue_wait_s": [r.started_at - r.submitted_at for r in records],
                "run_s": [r.finished_at - r.started_at for r in records],
            },
        )

    @staticmethod
    async def _restart(env: ServiceEnv, job_ids, reports, problems) -> None:
        """A daemon restarted on the same state must serve the same results."""
        await env.service.stop()
        daemon = SurveyService(env.stack, env.root / "state", close_stack=False)
        served = [await daemon.result(job_id) for job_id in job_ids]
        await daemon.close()
        if served != reports:
            problems.append("restarted daemon served different results")

    @staticmethod
    async def _resume(env: ServiceEnv, deck, plans, job_ids, reports, problems) -> float:
        """Resume every survey job from its durable checkpoint.

        This is the engine run the daemon makes for a job a restart
        found unfinished; each checkpoint already holds every location,
        so nothing is billed.  (Classify jobs report aggregates only,
        so there is no per-location report to compare theirs with.)
        """
        stack = env.stack
        finished = [
            Finished(
                stack.decoder(spec.kind, spec.county_seed),
                plans[spec],
                env.service.store.checkpoint_path(job_id),
                checkpoint_key(spec, stack.county(spec.county_seed).name),
                report,
                {"max_inflight": spec.max_inflight, "bridge": stack.bridge},
            )
            for spec, job_id, report in zip(deck, job_ids, reports)
            if spec.kind == "survey"
        ]
        return await timed_resume(finished, stack.usage(), problems)

    async def close(self, env: ServiceEnv) -> None:
        await env.service.close()


WORKLOADS = {
    workload.name: workload
    for workload in (CascadeSurvey(), ServiceMix(), CheckpointedStream())
}
