"""Reference for the float64 feature kernel: the original extractor.

:func:`extract_features_legacy` is the multi-pass extractor the fused
float64 kernel (``repro.detect.features._fused_features_f64``)
replaced, with the helpers only it uses.  No library code calls it:
it is kept as the oracle that ``tests/test_detect_features.py`` pins
the fused kernel against byte for byte.
The fused kernel's comments name these helpers (``_box_blur``,
``_sobel``, ``_neighborhood_mean``, ``_cell_centroid``) as the
expressions whose evaluation order it replicates.
"""

from __future__ import annotations

import numpy as np

from repro.detect.features import (
    _COLOR_NAMES,
    _GRAY_WEIGHTS,
    _N_ORIENT,
    FEATURE_DIM,
    FeatureConfig,
    _blocked_view,
    _color_mask_stack,
    _validate_image,
)


def _to_float(image: np.ndarray) -> np.ndarray:
    if image.dtype == np.uint8:
        return image.astype(np.float64) / 255.0
    return image.astype(np.float64)


def _box_blur(rgb: np.ndarray, radius: int = 1) -> np.ndarray:
    """Separable box blur with edge padding."""
    window = 2 * radius + 1
    padded = np.pad(rgb, ((radius, radius), (0, 0), (0, 0)), mode="edge")
    vertical = sum(
        padded[i : i + rgb.shape[0]] for i in range(window)
    ) / window
    padded = np.pad(
        vertical, ((0, 0), (radius, radius), (0, 0)), mode="edge"
    )
    return sum(padded[:, i : i + rgb.shape[1]] for i in range(window)) / window


def _sobel(gray: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal and vertical Sobel responses (same shape as input)."""
    padded = np.pad(gray, 1, mode="edge")
    gx = (
        padded[:-2, 2:] + 2 * padded[1:-1, 2:] + padded[2:, 2:]
        - padded[:-2, :-2] - 2 * padded[1:-1, :-2] - padded[2:, :-2]
    )
    gy = (
        padded[2:, :-2] + 2 * padded[2:, 1:-1] + padded[2:, 2:]
        - padded[:-2, :-2] - 2 * padded[:-2, 1:-1] - padded[:-2, 2:]
    )
    return gx, gy


def _cell_reduce(channel: np.ndarray, grid: int, how: str) -> np.ndarray:
    """Reduce an (H, W) channel to per-cell statistics, (grid, grid)."""
    blocks = _blocked_view(channel, grid)
    if how == "mean":
        return blocks.mean(axis=(-3, -1))
    if how == "std":
        return blocks.std(axis=(-3, -1))
    if how == "max":
        return blocks.max(axis=(-3, -1))
    raise ValueError(f"unknown reduction: {how}")


def _cell_reduce_stack(channels: np.ndarray, grid: int) -> np.ndarray:
    """Per-cell means of an ``(N, H, W)`` channel stack, ``(grid, grid, N)``.

    One reshaped reduction replacing N separate
    ``_cell_reduce(..., "mean")`` calls.  The channel axis *leads* the
    block axes, so each output cell still reduces the same ``ch × cw``
    elements in the same memory-order pattern as the per-channel call
    — which is what keeps the result bit-identical to the loop it
    replaced (a trailing channel axis changes numpy's pairwise
    summation tree and drifts in the last ulp).
    """
    blocks = _blocked_view(channels, grid)
    return np.moveaxis(blocks.mean(axis=(-3, -1)), 0, -1)


def _neighborhood_mean(channels: np.ndarray) -> np.ndarray:
    """3×3 box-filtered copy of a ``(grid, grid, D)`` channel stack."""
    padded = np.pad(channels, ((1, 1), (1, 1), (0, 0)), mode="edge")
    total = np.zeros_like(channels)
    for dy in range(3):
        for dx in range(3):
            total += padded[
                dy : dy + channels.shape[0], dx : dx + channels.shape[1]
            ]
    return total / 9.0


def _cell_centroid(
    weight: np.ndarray, grid: int, axis: str
) -> np.ndarray:
    """Weight-centroid position within each cell along one axis, in [0, 1].

    Gives the detection head sub-cell localization: e.g. the x position
    of a thin pole inside its cell comes from the vertical-edge-energy
    centroid.  Cells with no energy report the neutral midpoint 0.5.
    """
    blocks = _blocked_view(weight, grid)
    ch, cw = blocks.shape[-3], blocks.shape[-1]
    if axis == "x":
        ramp = (np.arange(cw) + 0.5) / cw
        weighted = (blocks * ramp[None, None, None, :]).sum(axis=(-3, -1))
    elif axis == "y":
        ramp = (np.arange(ch) + 0.5) / ch
        weighted = (blocks * ramp[None, :, None, None]).sum(axis=(-3, -1))
    else:
        raise ValueError(f"axis must be 'x' or 'y': {axis}")
    totals = blocks.sum(axis=(-3, -1))
    return np.where(totals > 1e-9, weighted / (totals + 1e-12), 0.5)


def _color_masks(rgb: np.ndarray) -> dict[str, np.ndarray]:
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    value = rgb.max(axis=-1)
    spread = value - rgb.min(axis=-1)
    return _color_mask_stack(r, g, b, value, spread)


def extract_features_legacy(
    image: np.ndarray, config: FeatureConfig | None = None
) -> np.ndarray:
    """The original multi-pass extractor, kept as the numeric reference.

    ~30 independent passes over the image: one :func:`_cell_reduce`
    call per channel/statistic, python-level ``sum`` loops in
    :func:`_box_blur`, and per-bin orientation masking.  The fused
    float64 kernel is bit-identical to this function (regression-tested
    on random images).
    """
    if config is None:
        config = FeatureConfig()
    grid = config.grid
    image = np.asarray(image)
    _validate_image(image, grid)
    rgb = _to_float(image)
    if config.smooth:
        rgb = _box_blur(rgb)

    gray = rgb @ _GRAY_WEIGHTS
    gx, gy = _sobel(gray)
    mag = np.hypot(gx, gy)

    columns = []
    for channel_index in range(3):
        columns.append(_cell_reduce(rgb[..., channel_index], grid, "mean"))
    for channel_index in range(3):
        columns.append(_cell_reduce(rgb[..., channel_index], grid, "std"))
    columns.append(_cell_reduce(np.abs(gx), grid, "mean"))
    columns.append(_cell_reduce(np.abs(gy), grid, "mean"))
    columns.append(_cell_reduce(mag, grid, "std"))
    columns.append(_cell_reduce(mag, grid, "max"))

    # Orientation histogram: bin gradient angle (mod pi), weight by
    # magnitude, normalize per cell.  All bins reduce in one pass.
    angle = np.mod(np.arctan2(gy, gx), np.pi)
    bin_index = np.minimum(
        (angle / np.pi * _N_ORIENT).astype(int), _N_ORIENT - 1
    )
    weighted = np.where(
        bin_index[None, :, :] == np.arange(_N_ORIENT)[:, None, None],
        mag[None, :, :],
        0.0,
    )
    orient = _cell_reduce_stack(weighted, grid)
    totals = orient.sum(axis=-1, keepdims=True)
    orient = np.where(totals > 1e-9, orient / (totals + 1e-9), 0.0)
    for b in range(_N_ORIENT):
        columns.append(orient[..., b])

    masks = _color_masks(rgb)
    color_fractions = _cell_reduce_stack(
        np.stack([masks[name] for name in _COLOR_NAMES]).astype(np.float64),
        grid,
    )
    for channel_index in range(len(_COLOR_NAMES)):
        columns.append(color_fractions[..., channel_index])

    columns.append(_cell_reduce(gray, grid, "max"))
    columns.append(1.0 - _cell_reduce(1.0 - gray, grid, "max"))  # min

    abs_gx = np.abs(gx)
    abs_gy = np.abs(gy)
    columns.append(_cell_centroid(abs_gx, grid, "x"))
    columns.append(_cell_centroid(abs_gy, grid, "y"))
    columns.append(_cell_centroid(mag, grid, "x"))
    columns.append(_cell_centroid(mag, grid, "y"))

    local = np.stack(columns, axis=-1)  # (grid, grid, _LOCAL_DIM)
    if config.context:
        context = _neighborhood_mean(local)
    else:
        context = np.zeros_like(local)

    rows = np.repeat(np.arange(grid), grid).reshape(grid, grid) / (grid - 1)
    cols = np.tile(np.arange(grid), grid).reshape(grid, grid) / (grid - 1)
    position = np.stack([rows, cols], axis=-1)

    stacked = np.concatenate([local, context, position], axis=-1).reshape(
        config.n_cells, FEATURE_DIM
    )
    if stacked.shape != (config.n_cells, FEATURE_DIM):
        raise AssertionError(
            f"feature shape mismatch: {stacked.shape} != "
            f"({config.n_cells}, {FEATURE_DIM})"
        )
    return stacked
