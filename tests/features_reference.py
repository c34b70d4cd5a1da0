"""Reference for the float32 feature kernel: the BLAS-pooled version.

The float32 kernel as it was before its rewrite: the float64 kernel's
interleaved front end run at float32 (``np.hypot``, six orientation
planes, ten float mask planes) and every cell mean pooled by dense
pooling-matrix sgemms.  It is slower and kept only as the oracle the
rewritten kernel is timed and judged against
(``tests/test_detect_precision.py``): tier-0 calibrated probabilities
and routing bands must not move between the two.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.detect.features import (
    _N_MEAN,
    FEATURE_DIM,
    FeatureConfig,
    _assemble_output,
    _blocked_view,
    _fused_front_end,
    _validate_image,
)
from repro.parallel import TensorArena


class _PoolingOperators(NamedTuple):
    """Dense pooling matrices turning cell reductions into matmuls."""

    row_mean: np.ndarray  # (grid, Ht): averages each cell's rows
    row_sum: np.ndarray  # (grid, Ht)
    row_ramp: np.ndarray  # (grid, Ht): y-ramp-weighted row sums
    col_mean: np.ndarray  # (Wt, grid)
    col_sum: np.ndarray  # (Wt, grid)
    col_ramp: np.ndarray  # (Wt, grid): x-ramp-weighted column sums
    trim: tuple[int, int]  # (Ht, Wt)


@lru_cache(maxsize=16)
def _pooling_operators(height: int, width: int, grid: int) -> _PoolingOperators:
    """Memoized float32 pooling matrices for one image/grid geometry."""
    ch = height // grid
    cw = width // grid
    ht, wt = ch * grid, cw * grid
    row_sum = np.zeros((grid, ht), dtype=np.float32)
    row_ramp = np.zeros((grid, ht), dtype=np.float32)
    ramp_y = ((np.arange(ch) + 0.5) / ch).astype(np.float32)
    for cell in range(grid):
        row_sum[cell, cell * ch : (cell + 1) * ch] = 1.0
        row_ramp[cell, cell * ch : (cell + 1) * ch] = ramp_y
    col_sum = np.zeros((wt, grid), dtype=np.float32)
    col_ramp = np.zeros((wt, grid), dtype=np.float32)
    ramp_x = ((np.arange(cw) + 0.5) / cw).astype(np.float32)
    for cell in range(grid):
        col_sum[cell * cw : (cell + 1) * cw, cell] = 1.0
        col_ramp[cell * cw : (cell + 1) * cw, cell] = ramp_x
    row_mean = row_sum / np.float32(ch)
    col_mean = col_sum / np.float32(cw)
    for array in (row_mean, row_sum, row_ramp, col_mean, col_sum, col_ramp):
        array.setflags(write=False)
    return _PoolingOperators(
        row_mean, row_sum, row_ramp, col_mean, col_sum, col_ramp, (ht, wt)
    )


def _features_f32(image, config, arena, out) -> None:
    grid = config.grid
    height, width = image.shape[:2]
    ms, gray, _gx, _gy, _tmp = _fused_front_end(
        image, config, arena, "ref", np.float32
    )
    out3 = out.reshape(grid, grid, FEATURE_DIM)
    ops = _pooling_operators(height, width, grid)
    ht, wt = ops.trim
    stack = ms if (ht, wt) == (height, width) else ms[:, :ht, :wt]

    col_pooled = arena.take("ref.colpool", (_N_MEAN, ht, grid), np.float32)
    np.matmul(
        stack.reshape(_N_MEAN * ht, wt),
        ops.col_mean,
        out=col_pooled.reshape(_N_MEAN * ht, grid),
    )
    means = arena.take("ref.means", (_N_MEAN, grid, grid), np.float32)
    np.matmul(ops.row_mean, col_pooled, out=means)

    squares = arena.take("ref.squares", (5, ht, wt), np.float32)
    np.multiply(stack[0:5], stack[0:5], out=squares)
    sq_col = arena.take("ref.sqcol", (5, ht, grid), np.float32)
    np.matmul(
        squares.reshape(5 * ht, wt),
        ops.col_mean,
        out=sq_col.reshape(5 * ht, grid),
    )
    second_moment = arena.take("ref.m2", (5, grid, grid), np.float32)
    np.matmul(ops.row_mean, sq_col, out=second_moment)
    variance = second_moment
    np.subtract(second_moment, means[0:5] * means[0:5], out=variance)
    np.maximum(variance, 0.0, out=variance)
    np.sqrt(variance, out=variance)
    stds_rgb = variance[0:3]
    mag_std = variance[4]

    mag_blocks = _blocked_view(stack[4], grid)
    mag_max = mag_blocks.max(axis=(-3, -1))
    gray_trim = gray if (ht, wt) == (height, width) else gray[:ht, :wt]
    gray_blocks = _blocked_view(gray_trim, grid)
    gray_max = gray_blocks.max(axis=(-3, -1))
    gray_min = gray_blocks.min(axis=(-3, -1))

    row_pooled = arena.take("ref.rowpool", (3, grid, wt), np.float32)
    np.matmul(ops.row_sum, stack[3:6], out=row_pooled)
    tot3 = arena.take("ref.tot3", (3, grid, grid), np.float32)
    np.matmul(row_pooled, ops.col_sum, out=tot3)
    wx = arena.take("ref.wx", (2, grid, grid), np.float32)
    np.matmul(row_pooled[0:2], ops.col_ramp, out=wx)
    wy_rows = arena.take("ref.wyrows", (2, grid, wt), np.float32)
    np.matmul(ops.row_ramp, stack[4:6], out=wy_rows)
    wy = arena.take("ref.wy", (2, grid, grid), np.float32)
    np.matmul(wy_rows, ops.col_sum, out=wy)

    _assemble_output(
        out3, config, means, stds_rgb, mag_std, mag_max, gray_max, gray_min,
        wx, wy, tot3, arena, "ref", np.float32,
    )


def extract_features_reference(
    image: np.ndarray,
    config: FeatureConfig | None = None,
    *,
    arena: TensorArena | None = None,
) -> np.ndarray:
    """Float32 ``(n_cells, FEATURE_DIM)`` features from the old kernel."""
    if config is None:
        config = FeatureConfig()
    image = np.asarray(image)
    _validate_image(image, config.grid)
    if arena is None:
        arena = TensorArena()
    out = np.empty((config.n_cells, FEATURE_DIM), dtype=np.float32)
    _features_f32(image, config, arena, out)
    return out


def extract_features_batch_reference(images, config=None, *, arena=None):
    """The reference kernel over an image stack, ``(N, n_cells, FEATURE_DIM)``."""
    if config is None:
        config = FeatureConfig()
    if arena is None:
        arena = TensorArena()
    out = np.empty((len(images), config.n_cells, FEATURE_DIM), np.float32)
    for index, image in enumerate(images):
        out[index] = extract_features_reference(image, config, arena=arena)
    return out
