"""Client registry: build the four calibrated model clients.

``build_clients`` is the one-stop factory used by examples and
benches: give it calibration scenes and it returns ready-to-use
clients for all four models (or a subset), sharing one evidence model
so cross-model errors correlate.
"""

from __future__ import annotations

from ..scene.model import Scene
from .errors import ModelNotFoundError
from .models import SimulatedVLM
from .paper_targets import ALL_MODEL_IDS
from .perception import EvidenceModel
from .profiles import calibrate_profiles


def build_clients(
    calibration_scenes: list[Scene],
    model_ids: tuple[str, ...] = ALL_MODEL_IDS,
    evidence_seed: int = 0,
    rate_limit_every: int | None = None,
) -> dict[str, SimulatedVLM]:
    """Calibrate and construct clients for the requested models."""
    unknown = [m for m in model_ids if m not in ALL_MODEL_IDS]
    if unknown:
        raise ModelNotFoundError(f"unknown model ids: {unknown}")
    evidence_model = EvidenceModel(seed=evidence_seed)
    profiles = calibrate_profiles(
        calibration_scenes, evidence_model, model_ids=model_ids
    )
    return {
        model_id: SimulatedVLM(
            profile=profiles[model_id],
            evidence_model=evidence_model,
            rate_limit_every=rate_limit_every,
        )
        for model_id in model_ids
    }
