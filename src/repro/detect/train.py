"""NanoDetector training: target assignment, loss, SGD loop.

Follows the paper's protocol (Section IV-B1): 20 epochs, batch size
16 images, on the 70% training split.  The loss combines per-class
objectness binary cross-entropy (with positive-class weighting to
counter the heavy cell-level imbalance) and an L2 box-regression term
applied only at positive cells.

The SGD loop runs over a :class:`~repro.parallel.arena.TensorArena`:
batch gathers, forward activations and backward gradients live in
reusable buffers instead of being reallocated thousands of times per
run.  The operations themselves are unchanged, so trained weights are
bit-identical to the historical allocating loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.indicators import ALL_INDICATORS
from ..gsv.dataset import LabeledImage
from ..parallel.arena import TensorArena
from .boxes import xyxy_to_cxcywh
from .features import FEATURE_DIM, cell_bounds, extract_features_batch
from .model import N_CLASSES, ModelConfig, NanoDetector, sigmoid

#: A cell is positive for an object covering at least this fraction of
#: the cell's area.
CELL_COVER_THRESHOLD = 0.25


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters (paper defaults where stated)."""

    epochs: int = 20
    batch_size: int = 16
    learning_rate: float = 0.08
    momentum: float = 0.9
    weight_decay: float = 1e-4
    box_weight: float = 5.0
    lr_decay: float = 0.97
    pos_weight_cap: float = 15.0
    seed: int = 0


@dataclass
class TrainResult:
    """Fitted model plus its loss trajectory."""

    model: NanoDetector
    loss_history: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.loss_history[-1] if self.loss_history else float("nan")


def assign_targets(
    annotations: list, grid: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell training targets for one image.

    ``annotations`` items are ``(indicator, bbox)`` or
    ``(indicator, bbox, occupancy)`` where ``occupancy`` is a list of
    sub-boxes tightly covering the object's rendered footprint (see
    :mod:`repro.scene.occupancy`); it defaults to the bbox itself.

    Returns ``(obj (n_cells, C), box (n_cells, C, 4) cxcywh)``.  A cell
    is positive for a class when the object's *occupancy* covers at
    least :data:`CELL_COVER_THRESHOLD` of the cell (ties go to the
    object with the larger overlap); the center cell of each occupancy
    box is always positive so thin objects are never dropped.  The box
    regression target is always the full bounding box.
    """
    n_cells = grid * grid
    obj = np.zeros((n_cells, N_CLASSES))
    box = np.zeros((n_cells, N_CLASSES, 4))
    if not annotations:
        return obj, box
    bounds = cell_bounds(grid)
    cell_area = 1.0 / n_cells
    best_cover = np.zeros((n_cells, N_CLASSES))
    class_index = {ind: i for i, ind in enumerate(ALL_INDICATORS)}

    for annotation in annotations:
        if len(annotation) == 3:
            indicator, bbox, occupancy = annotation
        else:
            indicator, bbox = annotation
            occupancy = [bbox]
        c = class_index[indicator]
        target = xyxy_to_cxcywh(
            np.array([[bbox.x_min, bbox.y_min, bbox.x_max, bbox.y_max]])
        )[0]

        cover = np.zeros(n_cells)
        for part in occupancy:
            x0 = np.maximum(bounds[:, 0], part.x_min)
            y0 = np.maximum(bounds[:, 1], part.y_min)
            x1 = np.minimum(bounds[:, 2], part.x_max)
            y1 = np.minimum(bounds[:, 3], part.y_max)
            part_cover = (
                np.clip(x1 - x0, 0.0, None) * np.clip(y1 - y0, 0.0, None)
            ) / cell_area
            cover = np.maximum(cover, part_cover)
        if cover.max() < CELL_COVER_THRESHOLD:
            # Tiny object: claim its single best-covered cell so every
            # annotation supervises at least one cell.
            cover[int(np.argmax(cover))] = CELL_COVER_THRESHOLD

        take = (cover >= CELL_COVER_THRESHOLD) & (cover > best_cover[:, c])
        obj[take, c] = 1.0
        box[take, c, :] = target
        best_cover[take, c] = cover[take]
    return obj, box


def _tensor_chunk(payload) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Fan-out task: tensors for a chunk of images.

    Per-image results are independent of how images are chunked, which
    is what makes the thread fan-out byte-identical to the serial
    path.  Feature extraction runs through :func:`extract_features_batch`
    with one arena per chunk, so scratch buffers are reused across the
    chunk's images.
    """
    images, grid, use_occupancy, config = payload
    features = extract_features_batch(
        [image.render() for image in images], config
    )
    results = []
    for index, image in enumerate(images):
        if use_occupancy:
            annotations = annotations_with_occupancy(image)
        else:
            annotations = [
                (ind, box, [box]) for ind, box in image.annotations
            ]
        obj, box = assign_targets(annotations, grid)
        results.append((features[index], obj, box))
    return results


def image_tensor_key(
    image: LabeledImage, grid: int, use_occupancy: bool, config
) -> str:
    """Artifact-cache key for one image's feature/target tensors."""
    from ..artifacts import fingerprint, image_fingerprint

    return fingerprint(
        {
            "artifact": "training-tensors",
            "image": image_fingerprint(image),
            "grid": grid,
            "use_occupancy": use_occupancy,
            "config": (config.grid, config.smooth, config.context),
        }
    )


#: Images per fan-out task: large enough to amortize per-task overhead
#: and reuse a chunk's scratch arena, small enough to keep all workers
#: busy on small sets.
TENSOR_CHUNK_SIZE = 8


def build_training_tensors(
    images: list[LabeledImage],
    grid: int,
    use_occupancy: bool = True,
    feature_config=None,
    workers: int | str = 1,
    chunk_size: int = TENSOR_CHUNK_SIZE,
    cache=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract features and targets for a list of labeled images.

    Returns ``(features (N, n_cells, D), obj (N, n_cells, C),
    box (N, n_cells, C, 4))``.  ``use_occupancy=False`` falls back to
    bbox-footprint target assignment (the design-ablation baseline).

    ``workers > 1`` fans the per-image work (render + feature pyramid +
    target assignment, the suite's dominant CPU cost) out to a thread
    pool in chunks of ``chunk_size`` (numpy releases the GIL); results
    are byte-identical to serial for any chunking because every image
    is computed independently and reassembled in input order.  ``cache`` (an
    :class:`~repro.artifacts.ArtifactCache`) persists per-image
    tensors, so an augmentation sweep that reuses base images only
    pays for the transformed copies.

    The three output tensors are preallocated once and filled in place
    — per-image results are copied straight into their rows instead of
    accumulating a list and paying a doubling ``np.stack`` at the end.
    """
    from ..parallel import ParallelExecutor
    from .features import FeatureConfig

    config = feature_config or FeatureConfig(grid=grid)
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive: {chunk_size}")
    if not images:
        raise ValueError(
            "no images to build training tensors from (empty image list)"
        )

    n_images = len(images)
    n_cells = grid * grid
    features = np.empty((n_images, config.n_cells, FEATURE_DIM))
    obj = np.empty((n_images, n_cells, N_CLASSES))
    box = np.empty((n_images, n_cells, N_CLASSES, 4))

    def _store(index, tensors):
        features[index] = tensors[0]
        obj[index] = tensors[1]
        box[index] = tensors[2]

    missing: list[int] = []
    keys: list[str | None] = [None] * n_images
    if cache is not None:
        for index, image in enumerate(images):
            keys[index] = image_tensor_key(image, grid, use_occupancy, config)
            stored = cache.get_arrays("tensors", keys[index])
            if stored is not None:
                _store(index, (stored["features"], stored["obj"], stored["box"]))
            else:
                missing.append(index)
    else:
        missing = list(range(n_images))

    if missing:
        chunks = [
            missing[start : start + chunk_size]
            for start in range(0, len(missing), chunk_size)
        ]
        executor = ParallelExecutor(workers=workers)
        payloads = [
            ([images[index] for index in chunk], grid, use_occupancy, config)
            for chunk in chunks
        ]
        for chunk, results in zip(
            chunks, executor.map_results(_tensor_chunk, payloads)
        ):
            for index, tensors in zip(chunk, results):
                _store(index, tensors)
                if cache is not None:
                    cache.put_arrays(
                        "tensors",
                        keys[index],
                        features=tensors[0],
                        obj=tensors[1],
                        box=tensors[2],
                    )

    return features, obj, box


def annotations_with_occupancy(image: LabeledImage) -> list:
    """Attach occupancy footprints to an image's annotations.

    Uses the scene's structured geometry when the annotation list
    matches the scene's objects one-to-one (the normal case for survey
    datasets); otherwise falls back to bbox occupancy.
    """
    from ..scene.occupancy import occupancy_boxes

    if image.occupancy is not None:
        return list(image.occupancy)
    scene_objects = image.scene.objects if image.scene is not None else ()
    if len(scene_objects) == len(image.annotations) and all(
        obj.indicator == ind and obj.box == box
        for obj, (ind, box) in zip(scene_objects, image.annotations)
    ):
        return [
            (obj.indicator, obj.box, occupancy_boxes(obj))
            for obj in scene_objects
        ]
    return [(ind, box, [box]) for ind, box in image.annotations]


def _positive_weights(obj: np.ndarray, cap: float) -> np.ndarray:
    """Per-class BCE positive weights from cell-level class balance.

    The cap bounds the recall/precision trade: an uncapped weight on a
    rare class (streetlight cells are ~0.5% of all cells) makes false
    positives nearly free relative to misses.
    """
    flat = obj.reshape(-1, N_CLASSES)
    positives = flat.sum(axis=0)
    negatives = flat.shape[0] - positives
    weights = np.where(positives > 0, negatives / np.maximum(positives, 1.0), 1.0)
    return np.clip(weights, 1.0, cap)


def _weights_key(
    features: np.ndarray,
    obj_targets: np.ndarray,
    box_targets: np.ndarray,
    model_config: ModelConfig,
    train_config: TrainConfig,
    input_size: int | None,
) -> str:
    """Artifact-cache key for trained weights.

    Keyed on *what the trainer saw* — the tensor bytes, the image size
    the model records, and both configs — so the precomputed-tensor
    path and the from-images path address the same entry for the same
    images, and any change to data or hyperparameters changes the key.
    """
    from ..artifacts import fingerprint, tensors_fingerprint

    return fingerprint(
        {
            "artifact": "detector-weights",
            "tensors": tensors_fingerprint(features, obj_targets, box_targets),
            "input_size": input_size,
            "model_config": repr(model_config),
            "train_config": repr(train_config),
        }
    )


def _run_sgd(
    model: NanoDetector,
    features: np.ndarray,
    obj_targets: np.ndarray,
    box_targets: np.ndarray,
    train_config: TrainConfig,
    rng: np.random.Generator,
    arena: TensorArena | None = None,
) -> list[float]:
    """The SGD loop.

    Batch gathers, activations and gradients live in ``arena`` buffers;
    every floating-point operation matches the historical allocating
    loop in kind and order, so the fitted weights are bit-identical to
    it (the parameter arrays themselves are still freshly bound each
    step — callers' arrays are never mutated, and the model's
    inference-tier caches invalidate by identity).
    """
    if arena is None:
        arena = TensorArena()
    n_images, n_cells, feature_dim = features.shape
    pos_weight = _positive_weights(obj_targets, train_config.pos_weight_cap)
    velocity = {
        name: np.zeros_like(getattr(model, name))
        for name in ("w1", "b1", "w2", "b2")
    }
    lr = train_config.learning_rate
    loss_history: list[float] = []

    for _epoch in range(train_config.epochs):
        order = rng.permutation(n_images)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n_images, train_config.batch_size):
            batch = order[start : start + train_config.batch_size]
            gathered = arena.take(
                "sgd.x", (len(batch), n_cells, feature_dim)
            )
            np.take(features, batch, axis=0, out=gathered)
            x = gathered.reshape(-1, feature_dim)
            obj_gathered = arena.take(
                "sgd.obj", (len(batch), n_cells, N_CLASSES)
            )
            np.take(obj_targets, batch, axis=0, out=obj_gathered)
            obj_t = obj_gathered.reshape(-1, N_CLASSES)
            box_gathered = arena.take(
                "sgd.box", (len(batch), n_cells, N_CLASSES, 4)
            )
            np.take(box_targets, batch, axis=0, out=box_gathered)
            box_t = box_gathered.reshape(-1, N_CLASSES, 4)

            logits, hidden, x_std = model.forward(x, arena=arena)
            obj_logits, box_logits = model.split_logits(logits)
            obj_p = sigmoid(obj_logits)
            box_p = sigmoid(box_logits)

            n = x.shape[0]
            # Weighted BCE on objectness.
            weights = np.where(obj_t > 0.5, pos_weight[None, :], 1.0)
            eps = 1e-9
            bce = -(
                obj_t * np.log(obj_p + eps)
                + (1.0 - obj_t) * np.log(1.0 - obj_p + eps)
            )
            obj_loss = float((weights * bce).sum() / n)
            grad_obj = weights * (obj_p - obj_t) / n

            # L2 box loss at positive cells only.  Small objects get
            # proportionally larger weight: the same absolute error
            # costs a thin pole far more IoU than it costs a road.
            size_weight = 1.0 / np.clip(
                np.sqrt(box_t[:, :, 2] * box_t[:, :, 3]), 0.15, 1.0
            )
            mask = obj_t[:, :, None] * size_weight[:, :, None]
            diff = (box_p - box_t) * mask
            n_pos = max(float(mask.sum()), 1.0)
            box_loss = float(
                train_config.box_weight * np.square(diff).sum() / n_pos
            )
            grad_box = (
                2.0
                * train_config.box_weight
                * diff
                * box_p
                * (1.0 - box_p)
                / n_pos
            )

            grad_logits = arena.take("sgd.grad_logits", logits.shape)
            reshaped = grad_logits.reshape(n, N_CLASSES, 5)
            reshaped[:, :, 0] = grad_obj
            reshaped[:, :, 1:] = grad_box

            grads = model.backward(grad_logits, hidden, x_std, arena=arena)
            for name in ("w1", "b1", "w2", "b2"):
                parameter = getattr(model, name)
                grad = grads[name]
                if name in ("w1", "w2"):
                    # grad += weight_decay * parameter, legacy order.
                    decay = arena.take(f"sgd.decay.{name}", parameter.shape)
                    np.multiply(train_config.weight_decay, parameter, out=decay)
                    np.add(grad, decay, out=grad)
                # velocity = momentum * velocity - lr * grad, in place.
                np.multiply(train_config.momentum, velocity[name], out=velocity[name])
                np.multiply(lr, grad, out=grad)
                np.subtract(velocity[name], grad, out=velocity[name])
                # Bind a fresh parameter array (never mutate the old
                # one): callers may hold references, and the inference
                # tier caches invalidate by array identity.
                setattr(model, name, parameter + velocity[name])

            epoch_loss += obj_loss + box_loss
            n_batches += 1
        loss_history.append(epoch_loss / max(n_batches, 1))
        lr *= train_config.lr_decay
    return loss_history


def train_detector(
    images: list[LabeledImage],
    model_config: ModelConfig | None = None,
    train_config: TrainConfig | None = None,
    precomputed: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    workers: int | str = 1,
    cache=None,
) -> TrainResult:
    """Train a NanoDetector on labeled images.

    ``precomputed`` lets callers reuse ``build_training_tensors``
    output across experiments (the augmentation sweep retrains many
    times on overlapping data).  ``workers`` parallelizes tensor
    building across threads (the SGD loop itself stays serial — it
    is a strict sequential dependence and already BLAS-vectorized).
    ``cache`` persists both per-image tensors and the trained weights;
    a rerun with identical inputs loads the fitted model from disk.
    The model records the training images' shared ``size`` as its
    :attr:`~NanoDetector.input_size` (``None`` when trained from
    ``precomputed`` tensors alone); mixed sizes raise ``ValueError``.
    """
    if model_config is None:
        model_config = ModelConfig()
    if train_config is None:
        train_config = TrainConfig()
    if not images and precomputed is None:
        raise ValueError("no training images")
    sizes = sorted({image.size for image in images})
    if len(sizes) > 1:
        raise ValueError(
            f"training images must share one size; got sizes {sizes}"
        )
    input_size = sizes[0] if sizes else None

    if precomputed is not None:
        features, obj_targets, box_targets = precomputed
        features = np.asarray(features)
        obj_targets = np.asarray(obj_targets)
        box_targets = np.asarray(box_targets)
        if features.shape[0] == 0:
            raise ValueError(
                "precomputed training tensors contain no images"
            )
    else:
        features, obj_targets, box_targets = build_training_tensors(
            images,
            model_config.grid,
            feature_config=model_config.feature_config,
            workers=workers,
            cache=cache,
        )

    weights_key = None
    if cache is not None:
        weights_key = _weights_key(
            features,
            obj_targets,
            box_targets,
            model_config,
            train_config,
            input_size,
        )
        stored = cache.get_json("models", weights_key)
        if stored is not None:
            return TrainResult(
                model=NanoDetector.from_dict(stored["model"]),
                loss_history=list(stored["loss_history"]),
            )
    feature_dim = features.shape[2]

    rng = np.random.default_rng(train_config.seed)
    model = NanoDetector(config=model_config)
    model.initialize(feature_dim, rng)
    flat = features.reshape(-1, feature_dim)
    model.set_normalization(flat.mean(axis=0), flat.std(axis=0))
    loss_history = _run_sgd(
        model,
        features,
        obj_targets,
        box_targets,
        train_config,
        rng,
        arena=TensorArena(),
    )
    model.input_size = input_size
    if weights_key is not None:
        cache.put_json(
            "models",
            weights_key,
            {"model": model.to_dict(), "loss_history": loss_history},
        )
    return TrainResult(model=model, loss_history=loss_history)
