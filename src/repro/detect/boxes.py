"""Vectorized box algebra: IoU, clipping, and coordinate conversions.

Boxes are numpy arrays of shape ``(N, 4)`` in normalized ``xyxy``
(``x_min, y_min, x_max, y_max``) unless a function says otherwise.
All operations are pure and allocation-light — they sit on the hot
path of both training target assignment and evaluation matching.
"""

from __future__ import annotations

import numpy as np


def box_area(boxes: np.ndarray) -> np.ndarray:
    """Areas of an ``(N, 4)`` xyxy box array."""
    boxes = np.asarray(boxes, dtype=np.float64)
    if boxes.size == 0:
        return np.zeros(0)
    return (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU: result ``[i, j]`` is IoU of ``a[i]`` with ``b[j]``."""
    a = np.asarray(boxes_a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(boxes_b, dtype=np.float64).reshape(-1, 4)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    x0 = np.maximum(a[:, None, 0], b[None, :, 0])
    y0 = np.maximum(a[:, None, 1], b[None, :, 1])
    x1 = np.minimum(a[:, None, 2], b[None, :, 2])
    y1 = np.minimum(a[:, None, 3], b[None, :, 3])
    inter = np.clip(x1 - x0, 0.0, None) * np.clip(y1 - y0, 0.0, None)
    union = box_area(a)[:, None] + box_area(b)[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.where(union > 0, inter / union, 0.0)
    return iou


def xyxy_to_cxcywh(boxes: np.ndarray) -> np.ndarray:
    """Convert xyxy boxes to center/size parameterization."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    out = np.empty_like(boxes)
    out[:, 0] = (boxes[:, 0] + boxes[:, 2]) / 2.0
    out[:, 1] = (boxes[:, 1] + boxes[:, 3]) / 2.0
    out[:, 2] = boxes[:, 2] - boxes[:, 0]
    out[:, 3] = boxes[:, 3] - boxes[:, 1]
    return out


def cxcywh_to_xyxy(boxes: np.ndarray) -> np.ndarray:
    """Convert center/size boxes back to xyxy."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    out = np.empty_like(boxes)
    out[:, 0] = boxes[:, 0] - boxes[:, 2] / 2.0
    out[:, 1] = boxes[:, 1] - boxes[:, 3] / 2.0
    out[:, 2] = boxes[:, 0] + boxes[:, 2] / 2.0
    out[:, 3] = boxes[:, 1] + boxes[:, 3] / 2.0
    return out


def clip_boxes(boxes: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    """Clip xyxy boxes to the unit canvas, keeping them non-degenerate."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4).copy()
    boxes[:, 0] = np.clip(boxes[:, 0], 0.0, 1.0 - eps)
    boxes[:, 1] = np.clip(boxes[:, 1], 0.0, 1.0 - eps)
    boxes[:, 2] = np.clip(boxes[:, 2], boxes[:, 0] + eps, 1.0)
    boxes[:, 3] = np.clip(boxes[:, 3], boxes[:, 1] + eps, 1.0)
    return boxes
