"""Cost-aware cascade router: detector-first, LLM-on-doubt, ensemble-last.

The paper's central tension is cheap-but-narrow detection versus
expensive-but-general LLM perception.  This package resolves it with a
three-tier cascade (DESIGN.md §13): a :class:`~repro.detect.model.NanoDetector`
scores every image for free, calibrated decision margins turn those
scores into per-indicator probabilities, and only the doubtful residue
escalates — first to a single-LLM scout, then (when the scout and the
detector split, or doubt is deep) to the full voting ensemble.
"""

from .calibrate import (
    cascade_calibration_key,
    fit_cascade_calibration,
    load_or_fit_calibration,
    recommend_threshold,
)
from .frontier import (
    CascadePoint,
    FrontierReport,
    render_frontier_table,
    sweep_frontier,
)
from .router import (
    DEFAULT_DEEP_FACTOR,
    DEFAULT_THRESHOLD,
    TIER_DETECTOR,
    TIER_ENSEMBLE,
    TIER_SCOUT,
    CascadeClassifier,
    CascadeStats,
    token_fee_usd,
)
from .shipped import build_shipped_cascade

__all__ = [
    "DEFAULT_DEEP_FACTOR",
    "DEFAULT_THRESHOLD",
    "TIER_DETECTOR",
    "TIER_ENSEMBLE",
    "TIER_SCOUT",
    "CascadeClassifier",
    "CascadePoint",
    "CascadeStats",
    "FrontierReport",
    "build_shipped_cascade",
    "cascade_calibration_key",
    "fit_cascade_calibration",
    "load_or_fit_calibration",
    "recommend_threshold",
    "render_frontier_table",
    "sweep_frontier",
    "token_fee_usd",
]
