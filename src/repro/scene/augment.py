"""Data augmentation primitives: rotations, box transforms, resizing.

Reproduces the paper's Fig. 2 ablation:

    "We flipped the indicator images in 90°, 180°, and 270° to increase
    the training samples ... We use the same approach by adding cropped
    images, which were randomly cropped by 30% of the object image
    area."

Rotations are exact 90-degree multiples (``numpy.rot90``), with the
annotation boxes rotated consistently.  The augmented training images
themselves are lazy copies built by :func:`repro.gsv.dataset.rotated_image`
and :func:`repro.gsv.dataset.cropped_image`, which record a render op
that this module's :func:`rotate_image` and :func:`resize_nearest`
apply at render time.  A crop removes :data:`PAPER_CROP_FRACTION` of
the image area (a random window keeping ~70%), is resized back to the
original resolution, and drops objects whose surviving area falls
below a visibility threshold.

The paper's finding — that these augmentations *hurt* direction-bound
classes like streetlights and apartments — falls out naturally here:
rotating a scene by 90° puts poles horizontal and sky to the side,
poses that never occur in actual street-level imagery.
"""

from __future__ import annotations

import numpy as np

from .model import BoundingBox

#: The rotation sweep from Fig. 2.
PAPER_ROTATIONS_DEG = (90, 180, 270)

#: Fraction of image area removed by the crop augmentation.
PAPER_CROP_FRACTION = 0.30


def rotate_image(image: np.ndarray, degrees: int) -> np.ndarray:
    """Rotate an image clockwise by a multiple of 90 degrees."""
    turns = _validate_rotation(degrees)
    # np.rot90 rotates counter-clockwise; negate for clockwise.
    return np.ascontiguousarray(np.rot90(image, k=-turns, axes=(0, 1)))


def rotate_box(box: BoundingBox, degrees: int) -> BoundingBox:
    """Rotate a normalized box clockwise by a multiple of 90 degrees."""
    turns = _validate_rotation(degrees)
    current = box
    for _ in range(turns):
        # Clockwise quarter turn: (x, y) -> (1 - y, x).
        current = BoundingBox(
            x_min=1.0 - current.y_max,
            y_min=current.x_min,
            x_max=1.0 - current.y_min,
            y_max=current.x_max,
        )
    return current


def resize_nearest(image: np.ndarray, height: int, width: int) -> np.ndarray:
    """Nearest-neighbor resize (sufficient for synthetic imagery)."""
    if height <= 0 or width <= 0:
        raise ValueError("target size must be positive")
    src_h, src_w = image.shape[:2]
    rows = np.minimum(
        (np.arange(height) * src_h / height).astype(int), src_h - 1
    )
    cols = np.minimum(
        (np.arange(width) * src_w / width).astype(int), src_w - 1
    )
    return np.ascontiguousarray(image[rows][:, cols])


def _validate_rotation(degrees: int) -> int:
    if degrees % 90 != 0:
        raise ValueError(f"rotation must be a multiple of 90: {degrees}")
    return (degrees // 90) % 4
