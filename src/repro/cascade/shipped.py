"""The one recipe for the cascade the CLI and the survey daemon ship.

``repro survey --cascade``, ``repro cascade`` and the daemon's first
cascade job all build their three tiers here, so the detector they
train and the calibration they fit cannot drift apart.  Each caller
builds its own LLM clients and passes them in.
"""

from __future__ import annotations

from ..core.classifier import LLMIndicatorClassifier
from ..core.voting import VotingEnsemble
from ..detect.train import TrainConfig, train_detector
from ..gsv.api import UsageMeter
from ..gsv.dataset import build_survey_dataset
from ..llm.paper_targets import GPT_4O_MINI
from .calibrate import load_or_fit_calibration
from .router import DEFAULT_THRESHOLD, CascadeClassifier

#: The synthetic split the shipped detector trains on, and for how long.
TRAIN_SPLIT = {"n_images": 160, "size": 256, "seed": 21}
TRAIN_CONFIG = TrainConfig(epochs=12, batch_size=16)

#: The held-out split the margin calibration is fit on.
HOLDOUT_SPLIT = {"n_images": 120, "size": 256, "seed": 33}


def build_shipped_cascade(
    clients,
    artifacts=None,
    meter: UsageMeter | None = None,
    threshold: float | None = None,
) -> CascadeClassifier:
    """Train, calibrate and wire the shipped three-tier cascade.

    Trains the nano detector on :data:`TRAIN_SPLIT` and fits the
    margin calibration on :data:`HOLDOUT_SPLIT`, both cached when
    ``artifacts`` is given.  The cheapest model of ``clients`` is the
    tier-1 scout in front of an ensemble of all of them.  Tier fees
    are booked on ``meter`` (a fresh one by default); ``threshold``
    defaults to :data:`~repro.cascade.router.DEFAULT_THRESHOLD`.
    """
    detector = train_detector(
        build_survey_dataset(**TRAIN_SPLIT),
        train_config=TRAIN_CONFIG,
        cache=artifacts,
    ).model
    calibration = load_or_fit_calibration(
        artifacts, detector, build_survey_dataset(**HOLDOUT_SPLIT)
    )
    return CascadeClassifier(
        detector=detector,
        calibration=calibration,
        scout=LLMIndicatorClassifier(clients[GPT_4O_MINI]),
        ensemble=VotingEnsemble(
            classifiers={
                model_id: LLMIndicatorClassifier(client)
                for model_id, client in clients.items()
            }
        ),
        threshold=DEFAULT_THRESHOLD if threshold is None else threshold,
        meter=UsageMeter() if meter is None else meter,
    )
