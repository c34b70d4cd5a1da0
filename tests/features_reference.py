"""Reference for the float32 feature kernel: the BLAS-pooled version.

The float32 kernel as it was before its rewrite: the float64 kernel's
old interleaved front end (:func:`_fused_front_end`, kept here) run at
float32 (``np.hypot``, six orientation planes, ten float mask planes)
and every cell mean pooled by dense pooling-matrix sgemms.  It is slower and kept only as the oracle the
rewritten kernel is timed and judged against
(``tests/test_detect_precision.py``): tier-0 calibrated probabilities
and routing bands must not move between the two.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.detect.features import (
    _COLOR_NAMES,
    _GRAY_WEIGHTS,
    _N_ORIENT,
    FEATURE_DIM,
    FeatureConfig,
    _assemble_output,
    _blocked_view,
    _color_mask_stack,
    _validate_image,
)
from repro.parallel import TensorArena

#: Rows of the mean stack: r, g, b, |gx|, mag, |gy|, six orientation
#: bins, ten color masks.
_N_MEAN = 6 + _N_ORIENT + len(_COLOR_NAMES)


def _edge_pad_rows(dst: np.ndarray, src: np.ndarray) -> None:
    """Fill ``dst`` (src padded by one edge row top and bottom)."""
    dst[1:-1] = src
    dst[0] = src[0]
    dst[-1] = src[-1]


def _fused_front_end(image, config, arena, tag, dtype):
    """Elementwise stage: the float64 kernel's old front end at ``dtype``.

    Converts/blurs the image, computes gray/Sobel/magnitude/orientation
    planes and the color masks, and returns ``(ms, gray, gx, gy, tmp)``
    where ``ms`` is the ``(_N_MEAN, H, W)`` mean stack with rows
    ``[r, g, b, |gx|, mag, |gy|, orient×6, colors×10]`` — every row a
    contiguous plane ready for matmul reduction.  Each operation is the
    legacy extractor's expression (``tests/features_legacy.py``) in the
    same evaluation order, redirected into arena buffers.
    """
    height, width = image.shape[:2]
    rgb = arena.take(f"{tag}.rgb", (height, width, 3), dtype)
    if image.dtype == np.uint8:
        np.divide(image, 255.0, out=rgb)
    else:
        rgb[...] = image

    if config.smooth:
        # Legacy _box_blur: edge pad rows, (p0+p1+p2)/3, then columns.
        pad_rows = arena.take(f"{tag}.padrows", (height + 2, width, 3), dtype)
        _edge_pad_rows(pad_rows, rgb)
        vertical = arena.take(f"{tag}.vertical", (height, width, 3), dtype)
        np.add(pad_rows[0:height], pad_rows[1 : height + 1], out=vertical)
        np.add(vertical, pad_rows[2 : height + 2], out=vertical)
        np.divide(vertical, 3.0, out=vertical)
        pad_cols = arena.take(f"{tag}.padcols", (height, width + 2, 3), dtype)
        pad_cols[:, 1:-1] = vertical
        pad_cols[:, 0] = vertical[:, 0]
        pad_cols[:, -1] = vertical[:, -1]
        np.add(pad_cols[:, 0:width], pad_cols[:, 1 : width + 1], out=rgb)
        np.add(rgb, pad_cols[:, 2 : width + 2], out=rgb)
        np.divide(rgb, 3.0, out=rgb)

    gray = arena.take(f"{tag}.gray", (height, width), dtype)
    np.matmul(rgb, _GRAY_WEIGHTS.astype(dtype), out=gray)

    # Sobel on an edge-padded copy, replicating _sobel's exact
    # left-to-right expression order.
    gp = arena.take(f"{tag}.graypad", (height + 2, width + 2), dtype)
    gp[1:-1, 1:-1] = gray
    gp[0, 1:-1] = gray[0]
    gp[-1, 1:-1] = gray[-1]
    gp[:, 0] = gp[:, 1]
    gp[:, -1] = gp[:, -2]
    gx = arena.take(f"{tag}.gx", (height, width), dtype)
    gy = arena.take(f"{tag}.gy", (height, width), dtype)
    tmp = arena.take(f"{tag}.tmp", (height, width), dtype)
    np.multiply(2.0, gp[1:-1, 2:], out=tmp)
    np.add(gp[:-2, 2:], tmp, out=gx)
    np.add(gx, gp[2:, 2:], out=gx)
    np.subtract(gx, gp[:-2, :-2], out=gx)
    np.multiply(2.0, gp[1:-1, :-2], out=tmp)
    np.subtract(gx, tmp, out=gx)
    np.subtract(gx, gp[2:, :-2], out=gx)
    np.multiply(2.0, gp[2:, 1:-1], out=tmp)
    np.add(gp[2:, :-2], tmp, out=gy)
    np.add(gy, gp[2:, 2:], out=gy)
    np.subtract(gy, gp[:-2, :-2], out=gy)
    np.multiply(2.0, gp[:-2, 1:-1], out=tmp)
    np.subtract(gy, tmp, out=gy)
    np.subtract(gy, gp[:-2, 2:], out=gy)

    ms = arena.take(f"{tag}.meanstack", (_N_MEAN, height, width), dtype)
    r, g, b = ms[0], ms[1], ms[2]
    r[...] = rgb[..., 0]
    g[...] = rgb[..., 1]
    b[...] = rgb[..., 2]
    abs_gx, mag, abs_gy = ms[3], ms[4], ms[5]
    np.abs(gx, out=abs_gx)
    np.abs(gy, out=abs_gy)
    np.hypot(gx, gy, out=mag)

    # angle = np.mod(arctan2(gy, gx), pi) without the (slow) modulo
    # ufunc: arctan2 lands in [-pi, pi], where mod reduces to "add pi
    # when negative" — with two bit-exactness corners: an input of
    # exactly +pi maps to 0 (fmod), while a *sum* that rounds up to pi
    # stays pi (numpy's mod does not post-correct the addition).
    angle = arena.take(f"{tag}.angle", (height, width), dtype)
    np.arctan2(gy, gx, out=angle)
    flags = arena.take(f"{tag}.flags", (height, width), bool)
    np.equal(angle, np.pi, out=flags)
    angle[flags] = 0.0
    np.less(angle, 0.0, out=flags)
    np.add(angle, np.pi, out=tmp)
    np.copyto(angle, tmp, where=flags)

    # Legacy: (angle / pi * N).astype(int) then clamp.  Truncation to
    # int8 matches astype(int) for the value range [0, N].
    bins = arena.take(f"{tag}.bins", (height, width), np.int8)
    np.divide(angle, np.pi, out=tmp)
    np.multiply(tmp, float(_N_ORIENT), out=tmp)
    bins[...] = tmp
    np.minimum(bins, _N_ORIENT - 1, out=bins)
    for orient_bin in range(_N_ORIENT):
        np.equal(bins, orient_bin, out=flags)
        # bool × mag ≡ where(bin == o, mag, 0.0): mag is finite and
        # non-negative, so False rows give exactly +0.0.
        np.multiply(flags, mag, out=ms[6 + orient_bin])

    value = arena.take(f"{tag}.value", (height, width), dtype)
    spread = arena.take(f"{tag}.spread", (height, width), dtype)
    np.maximum(r, g, out=value)
    np.maximum(value, b, out=value)
    np.minimum(r, g, out=spread)
    np.minimum(spread, b, out=spread)
    np.subtract(value, spread, out=spread)
    masks = _color_mask_stack(r, g, b, value, spread)
    for color_index, name in enumerate(_COLOR_NAMES):
        ms[6 + _N_ORIENT + color_index][...] = masks[name]

    return ms, gray, gx, gy, tmp


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
        out3, config, means[0:6], means[6 : 6 + _N_ORIENT],
        means[6 + _N_ORIENT :], stds_rgb, mag_std, mag_max, gray_max,
        gray_min, wx, wy, tot3, arena, "ref", np.float32,
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
