"""The NanoDetector: a YOLO-style single-stage grid detector in numpy.

Architecture (mirroring the YOLOv11 stage names the paper cites):

* **backbone** — hand-crafted per-cell features (``features.py``),
* **neck** — feature standardization + one shared fully-connected
  ReLU layer,
* **head** — per-cell, per-class outputs: an objectness logit and a
  4-vector box regression in ``cxcywh`` (sigmoid-squashed so predicted
  boxes always live on the unit canvas).

Every positive cell predicts the *full* box of the object covering it;
at inference :meth:`NanoDetector.decode_cells` groups each class's
confident cells into 8-connected components and turns each component
into one detection, so the redundant per-cell predictions collapse
without a suppression pass.  Forward and backward passes are written
out explicitly — no autograd framework.

Inference has one path: :meth:`NanoDetector.predict_cells_batch`, then
:meth:`NanoDetector.decode_cells` per image.  It runs at one of two
numeric tiers (:data:`PRECISIONS`), picked by the code that calls it,
never by a user option: float64 for training, evaluation and
calibration, float32 for the cascade's tier 0.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from ..core.indicators import ALL_INDICATORS, Indicator
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from ..parallel.arena import TensorArena
from .boxes import clip_boxes, cxcywh_to_xyxy
from .features import PRECISIONS, FeatureConfig, extract_features_batch

N_CLASSES = len(ALL_INDICATORS)

#: Outputs per class: 1 objectness logit + 4 box parameters.
_PER_CLASS = 5

@dataclass(frozen=True)
class Detection:
    """One detected object instance."""

    indicator: Indicator
    box: np.ndarray  # normalized xyxy
    score: float


@dataclass(frozen=True)
class ModelConfig:
    """NanoDetector hyperparameters."""

    grid: int = 16
    hidden: int = 160
    conf_threshold: float = 0.40
    smooth_features: bool = True
    context_features: bool = True

    @property
    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(
            grid=self.grid,
            smooth=self.smooth_features,
            context=self.context_features,
        )


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def _label_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connected component labeling of a boolean grid mask.

    Returns ``(labels, n_components)`` where ``labels`` is ``-1`` on
    background cells and a component index elsewhere.
    """
    grid_h, grid_w = mask.shape
    labels = -np.ones(mask.shape, dtype=np.int32)
    n_components = 0
    for i in range(grid_h):
        for j in range(grid_w):
            if not mask[i, j] or labels[i, j] >= 0:
                continue
            stack = [(i, j)]
            labels[i, j] = n_components
            while stack:
                a, b = stack.pop()
                for da in (-1, 0, 1):
                    for db in (-1, 0, 1):
                        x, y = a + da, b + db
                        if (
                            0 <= x < grid_h
                            and 0 <= y < grid_w
                            and mask[x, y]
                            and labels[x, y] < 0
                        ):
                            labels[x, y] = n_components
                            stack.append((x, y))
            n_components += 1
    return labels, n_components


@dataclass
class NanoDetector:
    """Trainable grid detector over the six environmental indicators."""

    config: ModelConfig = field(default_factory=ModelConfig)
    w1: np.ndarray | None = None
    b1: np.ndarray | None = None
    w2: np.ndarray | None = None
    b2: np.ndarray | None = None
    feat_mean: np.ndarray | None = None
    feat_std: np.ndarray | None = None
    #: Pixel size of the square images the weights were trained on
    #: (``None`` when trained from bare tensors).  Features are
    #: scale-dependent, so consumers that score captures render them
    #: at this size.
    input_size: int | None = None

    @property
    def output_dim(self) -> int:
        return N_CLASSES * _PER_CLASS

    @property
    def is_initialized(self) -> bool:
        return self.w1 is not None

    def initialize(self, feature_dim: int, rng: np.random.Generator) -> None:
        """He-style random initialization of both layers."""
        hidden = self.config.hidden
        self.w1 = rng.normal(0.0, np.sqrt(2.0 / feature_dim), (feature_dim, hidden))
        self.b1 = np.zeros(hidden)
        self.w2 = rng.normal(0.0, np.sqrt(2.0 / hidden), (hidden, self.output_dim))
        self.b2 = np.zeros(self.output_dim)
        self.feat_mean = np.zeros(feature_dim)
        self.feat_std = np.ones(feature_dim)

    def set_normalization(self, mean: np.ndarray, std: np.ndarray) -> None:
        """Install feature standardization statistics (from train set)."""
        self.feat_mean = np.asarray(mean, dtype=np.float64)
        self.feat_std = np.where(np.asarray(std) > 1e-9, std, 1.0)

    # ------------------------------------------------------------------
    # dtype-tiered inference

    def _float32_parameters(self) -> tuple:
        """Lazily built (and identity-invalidated) float32 weights.

        Keyed by the *identity* of the current parameter arrays: any
        path that installs new weights — ``initialize``, ``from_dict``,
        ``set_normalization``, every SGD parameter update — binds fresh
        arrays, so a stale cache entry simply stops matching.  Holding
        references to the source arrays keeps their identities stable.
        """
        self._require_initialized()
        params = (
            self.w1, self.b1, self.w2, self.b2, self.feat_mean, self.feat_std
        )
        cached = self.__dict__.get("_float32_cache")
        if cached is not None and all(
            old is live for old, live in zip(cached[0], params)
        ):
            return cached[1]
        arrays = tuple(np.asarray(p, dtype=np.float32) for p in params)
        self.__dict__["_float32_cache"] = (params, arrays)
        return arrays

    def _infer_logits(self, features: np.ndarray, precision: str) -> np.ndarray:
        """Forward pass for inference at the requested numeric tier."""
        if precision == "float64":
            logits, _, _ = self.forward(features)
            return logits
        if precision == "float32":
            w1, b1, w2, b2, mean, std = self._float32_parameters()
            x = (np.asarray(features, dtype=np.float32) - mean) / std
            hidden = np.maximum(x @ w1 + b1, np.float32(0.0))
            return hidden @ w2 + b2
        raise ValueError(
            f"unknown precision {precision!r}; expected one of {PRECISIONS}"
        )

    # ------------------------------------------------------------------
    # forward / backward

    def forward(
        self, features: np.ndarray, arena: TensorArena | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Forward pass on standardized inputs.

        Returns ``(logits, hidden_activations, standardized_inputs)``;
        the latter two are retained for the backward pass.  With an
        ``arena`` the three tensors live in reusable buffers (the SGD
        loop calls this thousands of times at the same shapes); the
        operations and their order are identical either way, so the
        results are bit-equal — only ownership of the memory changes.
        Arena-returned tensors are invalidated by the next same-shape
        ``forward`` call.
        """
        self._require_initialized()
        if arena is None:
            x = (features - self.feat_mean) / self.feat_std
            hidden = np.maximum(x @ self.w1 + self.b1, 0.0)
            logits = hidden @ self.w2 + self.b2
            return logits, hidden, x
        x = arena.take("forward.x", features.shape)
        np.subtract(features, self.feat_mean, out=x)
        np.divide(x, self.feat_std, out=x)
        hidden = arena.take(
            "forward.hidden", (features.shape[0], self.w1.shape[1])
        )
        np.matmul(x, self.w1, out=hidden)
        np.add(hidden, self.b1, out=hidden)
        np.maximum(hidden, 0.0, out=hidden)
        logits = arena.take(
            "forward.logits", (features.shape[0], self.w2.shape[1])
        )
        np.matmul(hidden, self.w2, out=logits)
        np.add(logits, self.b2, out=logits)
        return logits, hidden, x

    def backward(
        self,
        grad_logits: np.ndarray,
        hidden: np.ndarray,
        x: np.ndarray,
        arena: TensorArena | None = None,
    ) -> dict[str, np.ndarray]:
        """Gradients of the loss w.r.t. every parameter.

        Same arena contract as :meth:`forward`: buffers are reused
        across calls, values are bit-equal to the allocating path.
        """
        if arena is None:
            grad_w2 = hidden.T @ grad_logits
            grad_b2 = grad_logits.sum(axis=0)
            grad_hidden = grad_logits @ self.w2.T
            grad_hidden[hidden <= 0.0] = 0.0
            grad_w1 = x.T @ grad_hidden
            grad_b1 = grad_hidden.sum(axis=0)
            return {"w1": grad_w1, "b1": grad_b1, "w2": grad_w2, "b2": grad_b2}
        grad_w2 = arena.take("backward.w2", self.w2.shape)
        np.matmul(hidden.T, grad_logits, out=grad_w2)
        grad_b2 = arena.take("backward.b2", self.b2.shape)
        grad_logits.sum(axis=0, out=grad_b2)
        grad_hidden = arena.take("backward.hidden", hidden.shape)
        np.matmul(grad_logits, self.w2.T, out=grad_hidden)
        grad_hidden[hidden <= 0.0] = 0.0
        grad_w1 = arena.take("backward.w1", self.w1.shape)
        np.matmul(x.T, grad_hidden, out=grad_w1)
        grad_b1 = arena.take("backward.b1", self.b1.shape)
        grad_hidden.sum(axis=0, out=grad_b1)
        return {"w1": grad_w1, "b1": grad_b1, "w2": grad_w2, "b2": grad_b2}

    # ------------------------------------------------------------------
    # structured views of the output tensor

    @staticmethod
    def split_logits(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split ``(N, C*5)`` logits into objectness and box channels.

        Returns ``(obj_logits (N, C), box_logits (N, C, 4))``.
        """
        n = logits.shape[0]
        reshaped = logits.reshape(n, N_CLASSES, _PER_CLASS)
        return reshaped[:, :, 0], reshaped[:, :, 1:]

    # ------------------------------------------------------------------
    # inference

    def _predict_cells_from_features(
        self, features: np.ndarray, precision: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Raw per-cell predictions from a stack of backbone features.

        ``features`` is ``(N, n_cells, D)``; the whole stack goes
        through a single forward pass.  Returns ``(scores (N, n_cells,
        C), boxes (N, n_cells, C, 4) xyxy)``, float64 at either tier so
        decoding is tier-agnostic.
        """
        n_images, n_cells, dim = features.shape
        logits = self._infer_logits(features.reshape(-1, dim), precision)
        obj_logits, box_logits = self.split_logits(logits)
        scores = sigmoid(obj_logits)
        boxes_cxcywh = sigmoid(box_logits)
        boxes_xyxy = clip_boxes(cxcywh_to_xyxy(boxes_cxcywh.reshape(-1, 4)))
        return (
            scores.reshape(n_images, n_cells, N_CLASSES),
            boxes_xyxy.reshape(n_images, n_cells, N_CLASSES, 4),
        )

    def predict_cells_batch(
        self, images: Sequence[np.ndarray], precision: str = "float64"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Raw per-cell predictions for an image stack in one forward pass.

        The detector's one forward path.  Returns ``(scores (N,
        n_cells, C), boxes (N, n_cells, C, 4) xyxy)``; row *i* is
        bit-identical to the one-image batch ``[images[i]]`` (verified
        by tier-1 tests).  ``precision`` picks the tier (see
        :data:`PRECISIONS`).  Feature extraction shares one scratch
        arena across the stack and writes into one preallocated tensor.
        """
        if len(images) == 0:
            config = self.config.feature_config
            return (
                np.zeros((0, config.n_cells, N_CLASSES)),
                np.zeros((0, config.n_cells, N_CLASSES, 4)),
            )
        metrics = get_metrics()
        metrics.inc("detect.batch.calls")
        metrics.inc("detect.batch.images", len(images))
        with get_tracer().span("detect.batch", images=len(images)):
            features = extract_features_batch(
                images, self.config.feature_config, precision=precision
            )
            return self._predict_cells_from_features(features, precision)

    def detect_batch(
        self,
        images: Sequence[np.ndarray],
        conf_threshold: float | None = None,
    ) -> list[list[Detection]]:
        """Detect objects in an image stack with one batched forward pass.

        Decoding is per image (component labeling does not vectorize
        across images), but the expensive part — features,
        standardization and the two matmuls — runs once over the whole
        stack, at the float64 reference tier.

        Decoding is component-based: confident cells of each class are
        grouped into 8-connected components (the analog of NMS for a
        dense grid head) and each component becomes one detection.  The
        component's box blends two estimates — the union of its cells'
        extents and the per-coordinate median of its cells' regressed
        boxes — which is markedly more robust than trusting any single
        cell's regression.
        """
        scores, boxes = self.predict_cells_batch(images)
        return [
            self.decode_cells(
                scores[index], boxes[index], conf_threshold=conf_threshold
            )
            for index in range(len(images))
        ]

    def detect(
        self, image: np.ndarray, conf_threshold: float | None = None
    ) -> list[Detection]:
        """Detect objects in one image: ``detect_batch([image])[0]``."""
        return self.detect_batch([image], conf_threshold=conf_threshold)[0]

    @staticmethod
    def indicator_scores(scores: np.ndarray) -> np.ndarray:
        """Per-indicator peak cell score from raw per-cell predictions.

        Reduces ``(..., n_cells, C)`` scores to ``(..., C)`` by taking
        the maximum over cells — the image-level decision evidence the
        cascade router calibrates.  The peak is exactly the quantity
        :meth:`decode_cells` compares against its cutoff, so a margin
        derived from it moves with the detector's own decision rule.
        """
        return np.asarray(scores).max(axis=-2)

    def decode_cells(
        self,
        scores: np.ndarray,
        boxes: np.ndarray,
        conf_threshold: float | None = None,
    ) -> list[Detection]:
        """Component-based decoding of one image's per-cell predictions."""
        threshold = (
            conf_threshold
            if conf_threshold is not None
            else self.config.conf_threshold
        )
        grid = self.config.grid
        detections: list[Detection] = []
        for class_index, indicator in enumerate(ALL_INDICATORS):
            class_scores = scores[:, class_index].reshape(grid, grid)
            peak = float(class_scores.max())
            cutoff = max(threshold, 0.35 * peak)
            mask = class_scores >= cutoff
            if not mask.any():
                continue
            labels, n_components = _label_components(mask)
            for component in range(n_components):
                rows, cols = np.nonzero(labels == component)
                cell_ids = rows * grid + cols
                component_scores = scores[cell_ids, class_index]
                regressed = boxes[cell_ids, class_index, :]
                median_box = np.median(regressed, axis=0)
                union_box = np.array(
                    [
                        cols.min() / grid,
                        rows.min() / grid,
                        (cols.max() + 1) / grid,
                        (rows.max() + 1) / grid,
                    ]
                )
                blended = clip_boxes(
                    ((union_box + median_box) / 2.0).reshape(1, 4)
                )[0]
                detections.append(
                    Detection(
                        indicator=indicator,
                        box=blended,
                        score=float(component_scores.max()),
                    )
                )
        detections.sort(key=lambda d: -d.score)
        return detections

    # ------------------------------------------------------------------
    # persistence

    def to_dict(self) -> dict:
        """Serialize config + weights to plain JSON-compatible types."""
        self._require_initialized()
        return {
            "config": {
                "grid": self.config.grid,
                "hidden": self.config.hidden,
                "conf_threshold": self.config.conf_threshold,
                "smooth_features": self.config.smooth_features,
                "context_features": self.config.context_features,
            },
            "w1": self.w1.tolist(),
            "b1": self.b1.tolist(),
            "w2": self.w2.tolist(),
            "b2": self.b2.tolist(),
            "feat_mean": self.feat_mean.tolist(),
            "feat_std": self.feat_std.tolist(),
            "input_size": self.input_size,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NanoDetector":
        """Rebuild a detector from :meth:`to_dict` output.

        A model saved while ``ModelConfig`` still had its retired
        ``nms_iou`` option loads unchanged: that key is dropped.  Any
        other config key ``ModelConfig`` does not know is a
        ``ValueError`` that names it.
        """
        settings = dict(payload["config"])
        settings.pop("nms_iou", None)
        unknown = sorted(set(settings) - {f.name for f in fields(ModelConfig)})
        if unknown:
            raise ValueError(f"unknown model config keys: {unknown}")
        config = ModelConfig(**settings)
        model = cls(config=config, input_size=payload.get("input_size"))
        model.w1 = np.asarray(payload["w1"], dtype=np.float64)
        model.b1 = np.asarray(payload["b1"], dtype=np.float64)
        model.w2 = np.asarray(payload["w2"], dtype=np.float64)
        model.b2 = np.asarray(payload["b2"], dtype=np.float64)
        model.feat_mean = np.asarray(payload["feat_mean"], dtype=np.float64)
        model.feat_std = np.asarray(payload["feat_std"], dtype=np.float64)
        return model

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "NanoDetector":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def _require_initialized(self) -> None:
        if not self.is_initialized:
            raise RuntimeError(
                "NanoDetector is untrained; call initialize() or load()"
            )
