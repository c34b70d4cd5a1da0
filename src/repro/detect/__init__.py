"""Detector substrate: the YOLOv11-Nano analog trained from scratch."""

from .boxes import (
    box_area,
    clip_boxes,
    cxcywh_to_xyxy,
    iou_matrix,
    xyxy_to_cxcywh,
)
from .evaluate import (
    ClassMetrics,
    DetectionAccumulator,
    EvaluationReport,
    average_precision,
    best_f1_operating_point,
    evaluate_detector,
    match_detections,
)
from .features import (
    DEFAULT_GRID,
    FEATURE_DIM,
    FeatureConfig,
    cell_bounds,
    extract_features,
    extract_features_batch,
)
from .model import (
    PRECISIONS,
    Detection,
    ModelConfig,
    NanoDetector,
    sigmoid,
)
from .train import (
    CELL_COVER_THRESHOLD,
    TrainConfig,
    TrainResult,
    assign_targets,
    build_training_tensors,
    train_detector,
)

__all__ = [
    "box_area",
    "clip_boxes",
    "cxcywh_to_xyxy",
    "iou_matrix",
    "xyxy_to_cxcywh",
    "ClassMetrics",
    "DetectionAccumulator",
    "EvaluationReport",
    "average_precision",
    "best_f1_operating_point",
    "evaluate_detector",
    "match_detections",
    "DEFAULT_GRID",
    "FEATURE_DIM",
    "FeatureConfig",
    "cell_bounds",
    "extract_features",
    "extract_features_batch",
    "Detection",
    "ModelConfig",
    "NanoDetector",
    "PRECISIONS",
    "sigmoid",
    "CELL_COVER_THRESHOLD",
    "TrainConfig",
    "TrainResult",
    "assign_targets",
    "build_training_tensors",
    "train_detector",
]
