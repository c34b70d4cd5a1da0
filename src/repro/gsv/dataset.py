"""Survey dataset assembly: the paper's 1,200-image collection.

Builds the study dataset end-to-end through the same path the paper
used: generate the two-county world, segment all roadways at 50-foot
intervals, randomly select survey locations, request one image per
cardinal heading from the (simulated) GSV API, and attach
ground-truth annotations in LabelMe semantics.

Images are *lazy*: a :class:`LabeledImage` holds the scene and renders
pixels on demand, so a full 1,200 × 640×640 dataset costs megabytes
instead of gigabytes until a consumer actually needs pixels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.indicators import (
    ALL_INDICATORS,
    Indicator,
    IndicatorPresence,
    PAPER_OBJECT_COUNTS,
)
from ..geo.county import County, study_counties
from ..geo.roadnet import build_road_network
from ..geo.sampling import (
    build_sampling_frame,
    expand_to_captures,
    require_distinct_counties,
    select_survey_locations,
)
from ..scene.augment import (
    PAPER_CROP_FRACTION,
    PAPER_ROTATIONS_DEG,
    resize_nearest,
    rotate_box,
    rotate_image,
)
from ..scene.model import BoundingBox, Scene
from ..scene.render import DEFAULT_SIZE, render_scene
from .api import StreetViewClient

Annotation = tuple[Indicator, BoundingBox]


@dataclass(frozen=True)
class LabeledImage:
    """One survey image with its ground-truth annotations.

    ``render_ops`` is a pipeline of pixel-space transforms applied
    after rasterization (used by the augmentation experiments so
    rotated/cropped copies stay lazy):
    ``("rot", degrees)`` or ``("crop", x0, y0, x1, y1)`` in normalized
    window coordinates.  ``occupancy`` optionally overrides the
    training-target footprints for transformed annotations.
    """

    image_id: str
    scene: Scene
    annotations: tuple[Annotation, ...]
    size: int = DEFAULT_SIZE
    render_ops: tuple = ()
    occupancy: tuple | None = None

    @property
    def presence(self) -> IndicatorPresence:
        """Image-level presence derived from the annotations."""
        return IndicatorPresence(ind for ind, _ in self.annotations)

    def render(self, size: int | None = None) -> np.ndarray:
        """Rasterize the image (lazy; deterministic per scene)."""
        pixels = render_scene(
            self.scene, size if size is not None else self.size
        )
        for op in self.render_ops:
            if op[0] == "rot":
                pixels = rotate_image(pixels, op[1])
            elif op[0] == "crop":
                _, x0, y0, x1, y1 = op
                height, width = pixels.shape[:2]
                window = pixels[
                    int(y0 * height) : int(y1 * height),
                    int(x0 * width) : int(x1 * width),
                ]
                pixels = resize_nearest(window, height, width)
            else:
                raise ValueError(f"unknown render op: {op[0]!r}")
        return pixels

    def count_of(self, indicator: Indicator) -> int:
        return sum(1 for ind, _ in self.annotations if ind == indicator)


@dataclass
class DatasetSplits:
    """The paper's 70/20/10 train/validation/test partition."""

    train: list[LabeledImage]
    val: list[LabeledImage]
    test: list[LabeledImage]

    def __post_init__(self) -> None:
        ids = [img.image_id for part in (self.train, self.val, self.test) for img in part]
        if len(ids) != len(set(ids)):
            raise ValueError("splits overlap: duplicate image ids")

    @property
    def total(self) -> int:
        return len(self.train) + len(self.val) + len(self.test)


@dataclass
class SurveyDataset:
    """The assembled survey: images, annotations, and provenance."""

    images: list[LabeledImage]
    counties: list[str] = field(default_factory=list)
    seed: int = 0

    def __len__(self) -> int:
        return len(self.images)

    def __iter__(self):
        return iter(self.images)

    def __getitem__(self, index: int) -> LabeledImage:
        return self.images[index]

    def object_counts(self) -> dict[Indicator, int]:
        """Total labeled objects per indicator (Section IV-A numbers)."""
        counts = {ind: 0 for ind in ALL_INDICATORS}
        for image in self.images:
            for indicator, _ in image.annotations:
                counts[indicator] += 1
        return counts

    def presence_counts(self) -> dict[Indicator, int]:
        """Number of images where each indicator is present."""
        counts = {ind: 0 for ind in ALL_INDICATORS}
        for image in self.images:
            for indicator in image.presence.present:
                counts[indicator] += 1
        return counts

    def prevalence(self) -> dict[Indicator, float]:
        """Image-level presence rate per indicator."""
        if not self.images:
            return {ind: 0.0 for ind in ALL_INDICATORS}
        counts = self.presence_counts()
        return {ind: counts[ind] / len(self.images) for ind in ALL_INDICATORS}

    def presence_matrix(self) -> np.ndarray:
        """Boolean matrix ``(n_images, 6)`` in canonical indicator order."""
        return np.array(
            [image.presence.as_vector() for image in self.images], dtype=bool
        )

    def split(
        self,
        train: float = 0.70,
        val: float = 0.20,
        test: float = 0.10,
        seed: int = 0,
    ) -> DatasetSplits:
        """Stratified 70/20/10 split.

        The paper notes "the samples for each indicator are evenly
        distributed" across splits; we stratify by the full presence
        signature (which indicator combination an image carries) and
        deal each stratum round-robin into shuffled buckets, so every
        split sees every signature in proportion.
        """
        if not np.isclose(train + val + test, 1.0):
            raise ValueError("split fractions must sum to 1")
        if min(train, val, test) <= 0:
            raise ValueError("all split fractions must be positive")
        rng = np.random.default_rng(seed)
        by_signature: dict[tuple[bool, ...], list[LabeledImage]] = {}
        for image in self.images:
            by_signature.setdefault(image.presence.as_vector(), []).append(image)

        buckets: dict[str, list[LabeledImage]] = {"train": [], "val": [], "test": []}
        quota = {"train": train, "val": val, "test": test}
        for signature in sorted(by_signature):
            group = by_signature[signature]
            order = rng.permutation(len(group))
            for rank, index in enumerate(order):
                # Largest-deficit assignment keeps every stratum near
                # its target fractions even for tiny strata.
                assigned = {
                    name: len(buckets[name]) for name in buckets
                }
                total_assigned = sum(assigned.values()) or 1
                deficits = {
                    name: quota[name] - assigned[name] / total_assigned
                    for name in buckets
                }
                target = max(sorted(deficits), key=lambda n: deficits[n])
                buckets[target].append(group[int(index)])
        return DatasetSplits(
            train=buckets["train"], val=buckets["val"], test=buckets["test"]
        )

    def calibration_report(self) -> dict[str, dict[str, float]]:
        """Compare this dataset's object counts to the paper's.

        Returns per-indicator ``{"ours", "paper", "ratio"}`` entries —
        used by tests and benches to confirm the synthetic survey
        approximates the published prevalence.
        """
        ours = self.object_counts()
        scale = len(self.images) / 1200.0 if self.images else 1.0
        report = {}
        for indicator in ALL_INDICATORS:
            paper = PAPER_OBJECT_COUNTS[indicator] * scale
            report[indicator.value] = {
                "ours": float(ours[indicator]),
                "paper": float(paper),
                "ratio": float(ours[indicator]) / paper if paper else float("nan"),
            }
        return report


def rotated_image(image: LabeledImage, degrees: int) -> LabeledImage:
    """A lazily rotated copy of a labeled image (Fig. 2 augmentation)."""
    from ..scene.occupancy import occupancy_boxes

    annotations = tuple(
        (indicator, rotate_box(box, degrees))
        for indicator, box in image.annotations
    )
    occupancy = tuple(
        (
            obj.indicator,
            rotate_box(obj.box, degrees),
            tuple(rotate_box(part, degrees) for part in occupancy_boxes(obj)),
        )
        for obj in image.scene.objects
    )
    return LabeledImage(
        image_id=f"{image.image_id}_rot{degrees}",
        scene=image.scene,
        annotations=annotations,
        size=image.size,
        render_ops=image.render_ops + (("rot", degrees),),
        occupancy=occupancy,
    )


def cropped_image(
    image: LabeledImage,
    rng: np.random.Generator,
    crop_fraction: float = PAPER_CROP_FRACTION,
    min_visible: float = 0.25,
) -> LabeledImage:
    """A lazily cropped copy removing ``crop_fraction`` of the area."""
    from ..scene.occupancy import occupancy_boxes

    keep = float(np.sqrt(1.0 - crop_fraction))
    x0 = float(rng.uniform(0.0, 1.0 - keep))
    y0 = float(rng.uniform(0.0, 1.0 - keep))
    x1, y1 = x0 + keep, y0 + keep

    def transform(box: BoundingBox) -> BoundingBox | None:
        ix0, iy0 = max(box.x_min, x0), max(box.y_min, y0)
        ix1, iy1 = min(box.x_max, x1), min(box.y_max, y1)
        if ix1 <= ix0 or iy1 <= iy0:
            return None
        visible = (ix1 - ix0) * (iy1 - iy0) / box.area
        if visible < min_visible:
            return None
        return BoundingBox(
            (ix0 - x0) / keep,
            (iy0 - y0) / keep,
            min(1.0, (ix1 - x0) / keep),
            min(1.0, (iy1 - y0) / keep),
        )

    annotations = []
    occupancy = []
    for obj in image.scene.objects:
        new_box = transform(obj.box)
        if new_box is None:
            continue
        parts = [
            part
            for part in (transform(p) for p in occupancy_boxes(obj))
            if part is not None
        ]
        annotations.append((obj.indicator, new_box))
        occupancy.append((obj.indicator, new_box, tuple(parts) or (new_box,)))
    return LabeledImage(
        image_id=f"{image.image_id}_crop",
        scene=image.scene,
        annotations=tuple(annotations),
        size=image.size,
        render_ops=image.render_ops + (("crop", x0, y0, x1, y1),),
        occupancy=tuple(occupancy),
    )


def augment_training_set(
    images: list[LabeledImage],
    rotations: tuple[int, ...] = PAPER_ROTATIONS_DEG,
    add_crops: bool = False,
    seed: int = 0,
) -> list[LabeledImage]:
    """The paper's Fig. 2 augmentation: rotations, optionally + crops."""
    rng = np.random.default_rng(seed)
    augmented = list(images)
    for image in images:
        for degrees in rotations:
            augmented.append(rotated_image(image, degrees))
        if add_crops:
            augmented.append(cropped_image(image, rng))
    return augmented


def build_survey_dataset(
    n_images: int = 1200,
    size: int = DEFAULT_SIZE,
    seed: int = 0,
    counties: list[County] | None = None,
    client: StreetViewClient | None = None,
) -> SurveyDataset:
    """Assemble the survey dataset via the (simulated) GSV API.

    ``n_images`` must be a multiple of 4 (one image per cardinal
    heading at each sampled location) and county names must be
    distinct.  Scenes and annotations are deterministic in ``seed``.
    """
    if n_images <= 0 or n_images % 4 != 0:
        raise ValueError(f"n_images must be a positive multiple of 4: {n_images}")
    if counties is None:
        counties = study_counties(seed=seed + 7)
    require_distinct_counties(counties)
    if client is None:
        client = StreetViewClient(
            counties=counties, api_key="survey-key", generator_seed=seed
        )

    frames = {}
    for index, county in enumerate(counties):
        network = build_road_network(county, seed=seed + 13 * (index + 1))
        frames[county.name] = build_sampling_frame(county, network)
    locations = select_survey_locations(frames, n_images // 4, seed=seed + 29)
    captures = expand_to_captures(locations)

    images = []
    for index, capture in enumerate(captures):
        served = client.fetch_capture(capture, size=size, render=False)
        annotations = tuple(
            (obj.indicator, obj.box) for obj in served.scene.objects
        )
        images.append(
            LabeledImage(
                image_id=f"img_{index:05d}",
                scene=served.scene,
                annotations=annotations,
                size=size,
            )
        )
    return SurveyDataset(
        images=images,
        counties=[county.name for county in counties],
        seed=seed,
    )
