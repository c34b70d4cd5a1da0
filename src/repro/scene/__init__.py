"""Scene substrate: procedural street scenes, rasterization, corruption."""

from .augment import (
    PAPER_CROP_FRACTION,
    PAPER_ROTATIONS_DEG,
    resize_nearest,
    rotate_box,
    rotate_image,
)
from .generator import HORIZON, GeneratorConfig, SceneGenerator
from .model import BoundingBox, Distractor, RoadView, Scene, SceneObject
from .noise import (
    PAPER_SNR_LEVELS_DB,
    add_gaussian_noise,
    noise_sigma_for_snr,
    signal_power,
)
from .render import DEFAULT_SIZE, render_scene, scene_fingerprint
from .seeding import stable_seed

__all__ = [
    "PAPER_CROP_FRACTION",
    "PAPER_ROTATIONS_DEG",
    "resize_nearest",
    "rotate_box",
    "rotate_image",
    "HORIZON",
    "GeneratorConfig",
    "SceneGenerator",
    "BoundingBox",
    "Distractor",
    "RoadView",
    "Scene",
    "SceneObject",
    "PAPER_SNR_LEVELS_DB",
    "add_gaussian_noise",
    "noise_sigma_for_snr",
    "signal_power",
    "DEFAULT_SIZE",
    "render_scene",
    "scene_fingerprint",
    "stable_seed",
]
