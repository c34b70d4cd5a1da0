"""Detection evaluation: greedy IoU matching, AP50, precision/recall/F1.

Implements the metrics of the paper's Table I:

* **mAP50** — average precision at IoU 0.50, computed from the full
  precision/recall curve with 101-point interpolation (COCO style),
* **precision / recall / F1** — computed at the per-class operating
  point that maximizes F1 over the score sweep, mirroring how
  Ultralytics reports the headline P/R of a trained YOLO model.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..core.indicators import ALL_INDICATORS, Indicator
from ..gsv.dataset import LabeledImage
from .boxes import iou_matrix
from .model import Detection, NanoDetector

#: Images per batched forward pass.  Fixed (not derived from the
#: worker count) so the stacked matmul shapes — and therefore the
#: floating-point results — are identical however the work is
#: distributed across threads.
EVAL_BATCH_SIZE = 16


@dataclass(frozen=True)
class ClassMetrics:
    """Detection quality for one indicator class."""

    indicator: Indicator
    precision: float
    recall: float
    f1: float
    ap50: float
    n_ground_truth: int


@dataclass
class EvaluationReport:
    """Per-class metrics plus the paper-style averages."""

    per_class: dict[Indicator, ClassMetrics]

    @property
    def mean_precision(self) -> float:
        return _mean([m.precision for m in self.per_class.values()])

    @property
    def mean_recall(self) -> float:
        return _mean([m.recall for m in self.per_class.values()])

    @property
    def mean_f1(self) -> float:
        return _mean([m.f1 for m in self.per_class.values()])

    @property
    def map50(self) -> float:
        return _mean([m.ap50 for m in self.per_class.values()])

    def rows(self) -> list[dict[str, float | str]]:
        """Table I shaped rows (label, P, R, F1, mAP50) + average."""
        rows: list[dict[str, float | str]] = []
        for indicator in ALL_INDICATORS:
            metrics = self.per_class[indicator]
            rows.append(
                {
                    "label": indicator.display_name,
                    "precision": metrics.precision,
                    "recall": metrics.recall,
                    "f1": metrics.f1,
                    "map50": metrics.ap50,
                }
            )
        rows.append(
            {
                "label": "Average",
                "precision": self.mean_precision,
                "recall": self.mean_recall,
                "f1": self.mean_f1,
                "map50": self.map50,
            }
        )
        return rows


def _mean(values: list[float]) -> float:
    finite = [v for v in values if not np.isnan(v)]
    return float(np.mean(finite)) if finite else float("nan")


def _match_one_image(
    det_boxes: np.ndarray,
    det_scores: np.ndarray,
    gt_boxes: np.ndarray,
    iou_threshold: float,
) -> tuple[list, list[bool]]:
    """Greedy matching for one image: (scores, is_tp) in score order.

    The single matching implementation shared by the batch pooling in
    :func:`match_detections` and :class:`DetectionAccumulator` — both
    paths append its output in image order, so they build the *same*
    pooled arrays and any final sort over them is identical.
    """
    image_scores: list = []
    image_tp: list[bool] = []
    if len(det_boxes) == 0:
        return image_scores, image_tp
    order = np.argsort(-det_scores)
    matched = np.zeros(len(gt_boxes), dtype=bool)
    ious = (
        iou_matrix(det_boxes, gt_boxes)
        if len(gt_boxes)
        else np.zeros((len(det_boxes), 0))
    )
    for det_index in order:
        best_gt = -1
        best_iou = iou_threshold
        for gt_index in range(len(gt_boxes)):
            if matched[gt_index]:
                continue
            if ious[det_index, gt_index] >= best_iou:
                best_iou = ious[det_index, gt_index]
                best_gt = gt_index
        image_scores.append(det_scores[det_index])
        if best_gt >= 0:
            matched[best_gt] = True
            image_tp.append(True)
        else:
            image_tp.append(False)
    return image_scores, image_tp


def _sort_pooled(
    pooled_scores: list, pooled_tp: list[bool], total_gt: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Final descending-score sort over image-order pooled matches."""
    if not pooled_scores:
        return np.zeros(0), np.zeros(0, dtype=bool), total_gt
    pooled = np.argsort(-np.asarray(pooled_scores))
    return (
        np.asarray(pooled_scores)[pooled],
        np.asarray(pooled_tp, dtype=bool)[pooled],
        total_gt,
    )


def match_detections(
    detections: list[np.ndarray],
    scores: list[np.ndarray],
    ground_truths: list[np.ndarray],
    iou_threshold: float = 0.5,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Greedy matching across a set of images for one class.

    Each element of the three lists corresponds to one image.  Returns
    ``(all_scores, is_true_positive, n_ground_truth)`` with detections
    pooled across images, sorted by descending score.
    """
    pooled_scores: list = []
    pooled_tp: list[bool] = []
    total_gt = 0
    for det_boxes, det_scores, gt_boxes in zip(
        detections, scores, ground_truths
    ):
        total_gt += len(gt_boxes)
        image_scores, image_tp = _match_one_image(
            det_boxes, det_scores, gt_boxes, iou_threshold
        )
        pooled_scores.extend(image_scores)
        pooled_tp.extend(image_tp)
    return _sort_pooled(pooled_scores, pooled_tp, total_gt)


def average_precision(
    tp_sorted: np.ndarray, n_ground_truth: int
) -> float:
    """AP with 101-point interpolation over the PR curve."""
    if n_ground_truth == 0:
        return float("nan")
    if tp_sorted.size == 0:
        return 0.0
    tp_cum = np.cumsum(tp_sorted)
    fp_cum = np.cumsum(~tp_sorted)
    recall = tp_cum / n_ground_truth
    precision = tp_cum / (tp_cum + fp_cum)
    # Monotone non-increasing precision envelope.
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    recall_points = np.linspace(0.0, 1.0, 101)
    interpolated = np.zeros_like(recall_points)
    for i, r in enumerate(recall_points):
        above = recall >= r
        interpolated[i] = envelope[above].max() if above.any() else 0.0
    return float(interpolated.mean())


def best_f1_operating_point(
    scores_sorted: np.ndarray, tp_sorted: np.ndarray, n_ground_truth: int
) -> tuple[float, float, float]:
    """(precision, recall, f1) at the score threshold maximizing F1."""
    if n_ground_truth == 0:
        return float("nan"), float("nan"), float("nan")
    if scores_sorted.size == 0:
        return 0.0, 0.0, 0.0
    tp_cum = np.cumsum(tp_sorted)
    fp_cum = np.cumsum(~tp_sorted)
    precision = tp_cum / (tp_cum + fp_cum)
    recall = tp_cum / n_ground_truth
    with np.errstate(divide="ignore", invalid="ignore"):
        f1 = np.where(
            precision + recall > 0,
            2.0 * precision * recall / (precision + recall),
            0.0,
        )
    best = int(np.argmax(f1))
    return float(precision[best]), float(recall[best]), float(f1[best])


class DetectionAccumulator:
    """Image-by-image builder of an :class:`EvaluationReport`.

    Folds ``(image, detections)`` pairs one at a time: each image is
    matched immediately via :func:`_match_one_image` and only its
    pooled ``(score, is_tp)`` entries are retained.  Because entries
    are appended in image order and the descending-score sort happens
    once in :meth:`report`, the result is *identical* to handing the
    full image list to :func:`match_detections`: both paths sort the
    same pooled array with the same (unstable) ``argsort``, so even
    ties break the same way.
    """

    def __init__(self, iou_threshold: float = 0.5) -> None:
        self.iou_threshold = iou_threshold
        self._scores: dict[Indicator, list] = {
            ind: [] for ind in ALL_INDICATORS
        }
        self._tp: dict[Indicator, list[bool]] = {
            ind: [] for ind in ALL_INDICATORS
        }
        self._gt: dict[Indicator, int] = {ind: 0 for ind in ALL_INDICATORS}

    def update(
        self, image: LabeledImage, detections: list[Detection]
    ) -> None:
        grouped: dict[Indicator, list[Detection]] = {
            ind: [] for ind in ALL_INDICATORS
        }
        for det in detections:
            grouped[det.indicator].append(det)
        for indicator in ALL_INDICATORS:
            dets = grouped[indicator]
            det_boxes = np.asarray([d.box for d in dets]).reshape(-1, 4)
            det_scores = np.asarray([d.score for d in dets])
            gt = [
                [box.x_min, box.y_min, box.x_max, box.y_max]
                for ind, box in image.annotations
                if ind == indicator
            ]
            gt_boxes = np.asarray(gt, dtype=np.float64).reshape(-1, 4)
            self._gt[indicator] += len(gt_boxes)
            image_scores, image_tp = _match_one_image(
                det_boxes, det_scores, gt_boxes, self.iou_threshold
            )
            self._scores[indicator].extend(image_scores)
            self._tp[indicator].extend(image_tp)

    def report(self) -> EvaluationReport:
        per_class = {}
        for indicator in ALL_INDICATORS:
            scores_sorted, tp_sorted, n_gt = _sort_pooled(
                self._scores[indicator],
                self._tp[indicator],
                self._gt[indicator],
            )
            ap = average_precision(tp_sorted, n_gt)
            precision, recall, f1 = best_f1_operating_point(
                scores_sorted, tp_sorted, n_gt
            )
            per_class[indicator] = ClassMetrics(
                indicator=indicator,
                precision=precision,
                recall=recall,
                f1=f1,
                ap50=ap,
                n_ground_truth=n_gt,
            )
        return EvaluationReport(per_class=per_class)


def _detect_chunk(payload) -> list[list[Detection]]:
    """Fan-out task: batched detection over a chunk of images.

    Every chunk reads the one model at the float64 tier, which keeps
    no lazily built state, so threads share nothing mutable.
    """
    model, images, conf_threshold = payload
    pixels = [image.render() for image in images]
    return model.detect_batch(pixels, conf_threshold=conf_threshold)


def prediction_key(
    model: NanoDetector, image: LabeledImage, conf_threshold: float
) -> str:
    """Artifact-cache key for one image's detections under one model."""
    from ..artifacts import fingerprint, image_fingerprint, model_fingerprint

    return fingerprint(
        {
            "artifact": "detections",
            "model": model_fingerprint(model),
            "image": image_fingerprint(image),
            "conf_threshold": conf_threshold,
        }
    )


def _encode_detections(detections: list[Detection]) -> list:
    return [
        [det.indicator.value, [float(v) for v in det.box], det.score]
        for det in detections
    ]


def _decode_detections(payload: list) -> list[Detection]:
    return [
        Detection(
            indicator=Indicator(indicator_value),
            box=np.asarray(box, dtype=np.float64),
            score=float(score),
        )
        for indicator_value, box, score in payload
    ]


def _predict(
    model: NanoDetector,
    images: Sequence[LabeledImage],
    conf_threshold: float,
    image_transform,
    workers: int | str,
    cache,
) -> list[list[Detection]]:
    """Per-image detections in ``EVAL_BATCH_SIZE`` batches, in order.

    With ``image_transform`` set, everything runs serially in image
    order: Fig. 3's transform closes over a shared, stateful RNG, so
    distributing it would silently change which noise lands on which
    image.  Caching is likewise disabled under a transform — the
    corruption is not part of the image's content fingerprint.
    """
    detections: list[list[Detection] | None] = [None] * len(images)

    if image_transform is not None:
        for start in range(0, len(images), EVAL_BATCH_SIZE):
            chunk = images[start : start + EVAL_BATCH_SIZE]
            pixels = [image_transform(image.render()) for image in chunk]
            for offset, dets in enumerate(
                model.detect_batch(pixels, conf_threshold=conf_threshold)
            ):
                detections[start + offset] = dets
        return detections

    keys: list[str | None] = [None] * len(images)
    missing: list[int] = []
    if cache is not None:
        for index, image in enumerate(images):
            keys[index] = prediction_key(model, image, conf_threshold)
            stored = cache.get_json("predictions", keys[index])
            if stored is not None:
                detections[index] = _decode_detections(stored)
            else:
                missing.append(index)
    else:
        missing = list(range(len(images)))

    if missing:
        from ..parallel import ParallelExecutor

        chunks = [
            missing[start : start + EVAL_BATCH_SIZE]
            for start in range(0, len(missing), EVAL_BATCH_SIZE)
        ]
        payloads = [
            (model, [images[index] for index in chunk], conf_threshold)
            for chunk in chunks
        ]
        executor = ParallelExecutor(workers=workers)
        for chunk, results in zip(
            chunks, executor.map_results(_detect_chunk, payloads)
        ):
            for index, dets in zip(chunk, results):
                detections[index] = dets
                if cache is not None:
                    cache.put_json(
                        "predictions", keys[index], _encode_detections(dets)
                    )
    return detections


def evaluate_detector(
    model: NanoDetector,
    images: Sequence[LabeledImage],
    iou_threshold: float = 0.5,
    conf_threshold: float = 0.05,
    image_transform=None,
    workers: int | str = 1,
    cache=None,
) -> EvaluationReport:
    """Evaluate a trained detector on labeled images.

    ``conf_threshold`` is deliberately low: the PR sweep needs the full
    score range, and the operating point is chosen by best F1 per
    class.  ``image_transform`` optionally corrupts each rendered image
    before inference (the Fig. 3 noise ablation hooks in here).

    ``workers > 1`` fans rendering + batched inference out to a
    thread pool (metrics are byte-identical to serial: batch shapes
    are fixed and results are reassembled in image order).  ``cache``
    persists per-image detections keyed by model + image content, so
    repeated evaluations of an unchanged model skip rendering and
    inference entirely.
    """
    accumulator = DetectionAccumulator(iou_threshold)
    detections = _predict(
        model, images, conf_threshold, image_transform, workers, cache
    )
    for image, image_detections in zip(images, detections):
        accumulator.update(image, image_detections)
    return accumulator.report()
