"""Grid-cell feature extraction — the detector's "backbone".

YOLOv11's convolutional backbone is replaced by a hand-rolled feature
pyramid computed with numpy: the image is divided into an S×S grid and
each cell is summarized by color statistics, gradient/orientation
energy, color-prototype masses (lane-paint yellow, concrete gray,
foliage green, brick, ...) and its own grid position.  The detection
head (``model.py``) is a trained MLP over these per-cell vectors.

The features are deliberately *local and appearance-based* so the
paper's ablations behave faithfully: additive Gaussian noise corrupts
the gradient channels first (Fig. 3), and rotating an image moves sky
color and vertical-pole energy into configurations never seen in
training (Fig. 2).

Two kernels produce the same feature layout (DESIGN.md §14):

* :func:`extract_features` with ``precision="float64"`` runs the
  **fused exact kernel**: one pass over about 17 image planes of
  per-image scratch (a :class:`~repro.parallel.arena.TensorArena`,
  9.1 MiB at 256²), blocked reductions over a six-plane stack, color
  fractions as integer mask counts, and bit-identical output to the
  original multi-pass extractor (kept as the test oracle
  ``tests/features_legacy.py`` and pinned by exact-equality tests
  plus the golden report fixtures).
* ``precision="float32"`` runs the **fast kernel**, which does less
  work for the same features: planar channels, a uint8 image blurred
  as exact integer sums, a difference-first Sobel (exactly zero on
  flat regions), cell sums pooled rows first by small matmuls, the
  orientation histogram as one weighted ``np.bincount`` and color
  fractions as integer mask counts.  It is tolerance-tested against
  float64 rather than bit-identical, and runs ~2.4× faster than the
  BLAS-pooled float32 kernel it replaced (kept as the test oracle
  ``tests/features_reference.py``).

:func:`extract_features_batch` drives either kernel image by image
over a stack while reusing one arena and writing into one
preallocated output tensor.  The tier is picked by the code that
calls the detector, never by a user option: training, evaluation and
calibration extract at float64, the cascade's tier 0 at float32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..parallel.arena import TensorArena

#: Default grid resolution (16×16 cells over the image).
DEFAULT_GRID = 16

#: Numeric tiers, each chosen by the code that calls the detector:
#: ``float64`` is the bit-exact reference (training, evaluation,
#: calibration and the golden fixtures), ``float32`` the
#: tolerance-tested fast path the cascade's tier 0 runs on every image.
PRECISIONS = ("float64", "float32")


@dataclass(frozen=True)
class FeatureConfig:
    """Feature extraction settings shared by training and inference.

    ``smooth`` applies a small box blur before any measurement — the
    analog of a CNN's first-layer receptive-field averaging, and the
    main source of the detector's robustness to pixel noise (Fig. 3).
    """

    grid: int = DEFAULT_GRID
    smooth: bool = True
    #: When false the 3×3 neighborhood-context block is zeroed out
    #: (same dimensionality, no information) — the design-ablation
    #: baseline for the "neck" receptive-field growth.
    context: bool = True

    def __post_init__(self) -> None:
        # Position channels divide by grid - 1.
        if self.grid < 2:
            raise ValueError(f"grid must be at least 2: {self.grid}")

    @property
    def n_cells(self) -> int:
        return self.grid * self.grid

    @property
    def dim(self) -> int:
        return FEATURE_DIM


def _feature_dtype(precision: str) -> np.dtype:
    if precision not in PRECISIONS:
        raise ValueError(
            f"unknown precision {precision!r}; expected one of {PRECISIONS}"
        )
    return np.dtype(np.float64 if precision == "float64" else np.float32)


def _blocked_view(array: np.ndarray, grid: int) -> np.ndarray:
    """Reshape trailing ``(H, W)`` axes into ``(grid, ch, grid, cw)`` blocks.

    The one trim-and-reshape implementation behind every cell
    reduction: leading axes (channel stacks, batches) pass through
    unchanged, and reducing the returned blocks over ``axis=(-3, -1)``
    visits each cell's ``ch × cw`` elements in the same order as a
    single-channel reduction — which is what keeps stacked reductions
    bit-identical to per-channel loops.

    Returns a view when the trailing axes divide evenly by ``grid``;
    a trimmed (copying) reshape otherwise.
    """
    height, width = array.shape[-2:]
    ch = height // grid
    cw = width // grid
    if ch < 1 or cw < 1:
        raise ValueError(
            f"cannot tile {height}x{width} into a {grid}x{grid} grid"
        )
    trimmed = array[..., : ch * grid, : cw * grid]
    return trimmed.reshape(*array.shape[:-2], grid, ch, grid, cw)


#: Number of gradient-orientation histogram bins.
_N_ORIENT = 6

#: Color-prototype masks computed per pixel, reduced to cell fractions.
_COLOR_NAMES = (
    "yellow_paint",
    "white_paint",
    "dark",
    "foliage",
    "sky",
    "brick",
    "concrete",
    "asphalt",
    "wood",
    "lamp",
)

#: Per-cell channels computed directly from the cell's own pixels.
_LOCAL_DIM = (
    3  # mean RGB
    + 3  # std RGB
    + 2  # mean |gx|, mean |gy|
    + 1  # gradient magnitude std
    + 1  # gradient magnitude max
    + _N_ORIENT  # orientation histogram
    + len(_COLOR_NAMES)  # color prototype fractions
    + 2  # luminance min / max
    + 4  # sub-cell edge centroids (vertical-x, horizontal-y, mag-x, mag-y)
)

#: Local channels + 3×3 neighborhood context of the local channels
#: (the "neck": grows the receptive field so a cell can tell a lamp
#: above a pole from foliage above a tree trunk) + cell position.
FEATURE_DIM = _LOCAL_DIM * 2 + 2

#: Luminance projection (ITU-R 601), shared by both kernels.
_GRAY_WEIGHTS = np.array([0.299, 0.587, 0.114])
_GRAY_WEIGHTS_F32 = _GRAY_WEIGHTS.astype(np.float32).reshape(1, 3)


def _color_mask_stack(r, g, b, value, spread) -> dict[str, np.ndarray]:
    """The ten color-prototype predicates from channel/derived planes.

    Shared by the fused float64 kernel and the legacy extractor it
    replaced (``tests/features_legacy.py``): comparisons are exact at
    any dtype, so as long as the inputs match, the masks match.  The float32 kernel applies the same tests
    from :data:`_COLOR_RULES`.
    """
    return {
        "yellow_paint": (r > 0.55) & (g > 0.45) & (b < 0.38) & (r - b > 0.25),
        "white_paint": (value > 0.82) & (spread < 0.12),
        "dark": value < 0.18,
        "foliage": (g > r + 0.05) & (g > b + 0.05) & (g > 0.15),
        "sky": (b > r + 0.05) & (b > 0.5),
        "brick": (r > g + 0.08) & (g > b) & (r > 0.3) & (r < 0.8),
        "concrete": (spread < 0.08) & (value > 0.45) & (value < 0.82),
        "asphalt": (spread < 0.08) & (value > 0.12) & (value <= 0.35),
        "wood": (r > g + 0.04) & (g > b + 0.02) & (value < 0.45) & (value > 0.12),
        "lamp": (value > 0.9) & (r > 0.85) & (g > 0.8) & (b < 0.85),
    }


@lru_cache(maxsize=32)
def _position_channels(grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Memoized, read-only (rows, cols) position planes for one grid."""
    rows = np.repeat(np.arange(grid), grid).reshape(grid, grid) / (grid - 1)
    cols = np.tile(np.arange(grid), grid).reshape(grid, grid) / (grid - 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _validate_image(image: np.ndarray, grid: int) -> tuple[int, int]:
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got {image.shape}")
    height, width = image.shape[:2]
    if height < grid or width < grid:
        raise ValueError(
            f"image {height}x{width} smaller than the {grid}x{grid} grid"
        )
    return height, width


# ----------------------------------------------------------------------
# fused kernels


def _assemble_output(
    out3, config, means, orient, fractions, stds_rgb, mag_std, mag_max,
    gray_max, gray_min, wx, wy, tot3, arena, tag, dtype,
):
    """Float64 back end: column layout, orientation norm, context, position.

    ``means`` holds the cell means of ``[r, g, b, |gx|, mag, |gy|]``,
    ``orient`` those of the six magnitude-weighted orientation bins
    and ``fractions`` the ten color-mask fractions, each
    ``(rows, grid, grid)``; ``wx``/``wy``/``tot3`` are the centroid
    weighted sums and totals for weights ``[|gx|, mag]`` (x),
    ``[mag, |gy|]`` (y) and ``[|gx|, mag, |gy|]``.
    """
    grid = config.grid
    local = out3[:, :, :_LOCAL_DIM]
    for channel in range(3):
        local[..., channel] = means[channel]
        local[..., 3 + channel] = stds_rgb[channel]
    local[..., 6] = means[3]  # mean |gx|
    local[..., 7] = means[5]  # mean |gy|
    local[..., 8] = mag_std
    local[..., 9] = mag_max

    totals = orient.sum(axis=0)
    ok = totals > 1e-9
    denom = totals + 1e-9
    for orient_bin in range(_N_ORIENT):
        local[..., 10 + orient_bin] = np.where(
            ok, orient[orient_bin] / denom, 0.0
        )
    for color_index in range(len(_COLOR_NAMES)):
        local[..., 16 + color_index] = fractions[color_index]
    local[..., 26] = gray_max
    local[..., 27] = gray_min

    # Centroids: tot3 rows are [|gx|, mag, |gy|]; wx rows [|gx|, mag]
    # (x-weighted); wy rows [mag, |gy|] (y-weighted).
    local[..., 28] = np.where(tot3[0] > 1e-9, wx[0] / (tot3[0] + 1e-12), 0.5)
    local[..., 29] = np.where(tot3[2] > 1e-9, wy[1] / (tot3[2] + 1e-12), 0.5)
    local[..., 30] = np.where(tot3[1] > 1e-9, wx[1] / (tot3[1] + 1e-12), 0.5)
    local[..., 31] = np.where(tot3[1] > 1e-9, wy[0] / (tot3[1] + 1e-12), 0.5)

    context = out3[:, :, _LOCAL_DIM : 2 * _LOCAL_DIM]
    if config.context:
        # Replicates _neighborhood_mean: edge pad, nine-term
        # accumulation in (dy, dx) order, divide by 9.
        padded = arena.take(
            f"{tag}.ctxpad", (grid + 2, grid + 2, _LOCAL_DIM), dtype
        )
        padded[1:-1, 1:-1] = local
        padded[0, 1:-1] = local[0]
        padded[-1, 1:-1] = local[-1]
        padded[:, 0] = padded[:, 1]
        padded[:, -1] = padded[:, -2]
        total = arena.zeros(f"{tag}.ctxtotal", (grid, grid, _LOCAL_DIM), dtype)
        for dy in range(3):
            for dx in range(3):
                total += padded[dy : dy + grid, dx : dx + grid]
        np.divide(total, 9.0, out=context)
    else:
        context[...] = 0.0

    rows, cols = _position_channels(grid)
    out3[:, :, -2] = rows
    out3[:, :, -1] = cols


def _box3(src: np.ndarray, dst: np.ndarray, axis: int) -> None:
    """Edge-padded 3-tap mean along ``axis`` (0 or 1) of an ``(H, W, 3)`` image.

    Legacy ``_box_blur``'s ``(p[i-1] + p[i] + p[i+1]) / 3`` without its
    padded copy, associating the edges as the padding did:
    ``(s0 + s0) + s1`` first and ``(s[-2] + s[-1]) + s[-1]`` last
    (:func:`_sum3` adds its last edge as ``(s[-1] + s[-1]) + s[-2]``,
    which rounds differently).  As in :func:`_sum3`, both arrays are
    C-contiguous and the interior is one shift-and-add over the flat
    buffer; the taps that wrap across a row land only on the edges,
    which are written last.
    """
    step = src.strides[axis] // src.itemsize
    flat_src = src.reshape(-1)
    inner = dst.reshape(-1)[step:-step]
    np.add(flat_src[: -2 * step], flat_src[step:-step], out=inner)
    np.add(inner, flat_src[2 * step :], out=inner)
    src_t = np.moveaxis(src, axis, 0)
    dst_t = np.moveaxis(dst, axis, 0)
    np.add(src_t[0], src_t[0], out=dst_t[0])
    np.add(dst_t[0], src_t[1], out=dst_t[0])
    np.add(src_t[-2], src_t[-1], out=dst_t[-1])
    np.add(dst_t[-1], src_t[-1], out=dst_t[-1])
    np.divide(dst, 3.0, out=dst)


def _fused_features_f64(image, config, arena, out) -> None:
    """Fused exact kernel: bit-identical to the legacy extractor.

    Every float64 operation replicates the expression and evaluation
    order (same ufuncs, same operand order) of the legacy extractor in
    ``tests/features_legacy.py``, only redirected into arena buffers;
    the exact-equality tests check it.  Past the Sobel only the pixels
    the grid covers are kept, as contiguous ``(ht, wt)`` planes, so
    every cell reduction runs on a view rather than a trimmed copy.
    Scratch is about 17 image planes: the six-plane stack
    ``[r, g, b, |gx|, mag, |gy|]`` that the cell means, stds and
    centroid totals pool, the interleaved RGB, three working planes
    (the blur's vertical pass, then gx, gy and a temporary), gray and
    its padded copy, and one plane each for the angle and for pooling.
    """
    grid = config.grid
    height, width = image.shape[:2]
    ch = height // grid
    cw = width // grid
    ht, wt = ch * grid, cw * grid

    rgb = arena.take("f64.rgb", (height, width, 3))
    if image.dtype == np.uint8:
        np.divide(image, 255.0, out=rgb)
    else:
        rgb[...] = image
        if not np.isfinite(rgb).all():
            # A NaN angle has no orientation bin, and inf poisons the
            # blur and the Sobel into NaN features.
            raise ValueError("float64 features need finite pixels")

    work = arena.take("f64.work", (3, height, width))
    if config.smooth:
        # Legacy _box_blur: rows then columns, (p0+p1+p2)/3 each.
        vertical = work.reshape(height, width, 3)
        _box3(rgb, vertical, axis=0)
        _box3(vertical, rgb, axis=1)

    gray = arena.take("f64.gray", (height, width))
    np.matmul(rgb, _GRAY_WEIGHTS, out=gray)
    stack = arena.take("f64.stack", (6, ht, wt))
    r, g, b, abs_gx, mag, abs_gy = stack
    for channel in range(3):
        stack[channel] = rgb[:ht, :wt, channel]

    # Sobel on an edge-padded copy, replicating _sobel's exact
    # left-to-right expression order.
    gp = arena.take("f64.graypad", (height + 2, width + 2))
    gp[1:-1, 1:-1] = gray
    gp[0, 1:-1] = gray[0]
    gp[-1, 1:-1] = gray[-1]
    gp[:, 0] = gp[:, 1]
    gp[:, -1] = gp[:, -2]
    gx, gy, tmp = work
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
    gx, gy = gx[:ht, :wt], gy[:ht, :wt]
    np.abs(gx, out=abs_gx)
    np.abs(gy, out=abs_gy)
    np.hypot(gx, gy, out=mag)

    # angle = np.mod(arctan2(gy, gx), pi) without the (slow) modulo
    # ufunc: arctan2 lands in [-pi, pi], where mod reduces to "add pi
    # when negative" — with two bit-exactness corners: an input of
    # exactly +pi maps to 0 (fmod), while a *sum* that rounds up to pi
    # stays pi (numpy's mod does not post-correct the addition).
    angle = arena.take("f64.angle", (ht, wt))
    plane = arena.take("f64.plane", (ht, wt))
    np.arctan2(gy, gx, out=angle)
    flags = arena.take("f64.flags", (ht, wt), bool)
    np.equal(angle, np.pi, out=flags)
    angle[flags] = 0.0
    np.less(angle, 0.0, out=flags)
    np.add(angle, np.pi, out=plane)
    np.copyto(angle, plane, where=flags)

    # Legacy: (angle / pi * N).astype(int) then clamp.  Truncation to
    # int8 matches astype(int) for the value range [0, N].
    bins = arena.take("f64.bins", (ht, wt), np.int8)
    np.divide(angle, np.pi, out=plane)
    np.multiply(plane, float(_N_ORIENT), out=plane)
    bins[...] = plane
    np.minimum(bins, _N_ORIENT - 1, out=bins)
    # Each bin's where(bin == o, mag, 0.0) is pooled on its own: a
    # per-plane blocked mean equals the stacked one (_blocked_view).
    # bool × mag gives exactly +0.0 off the bin, as mag is finite and
    # non-negative.
    orient = np.empty((_N_ORIENT, grid, grid))
    for orient_bin in range(_N_ORIENT):
        np.equal(bins, orient_bin, out=flags)
        np.multiply(flags, mag, out=plane)
        orient[orient_bin] = _blocked_view(plane, grid).mean(axis=(-3, -1))

    # Color fractions as mask counts: the mean of a 0/1 float64 plane
    # sums exactly to the count and divides it by ch*cw, as this does.
    # gx and gy are spent, so they hold value and spread.
    value, spread = gx, gy
    np.maximum(r, g, out=value)
    np.maximum(value, b, out=value)
    np.minimum(r, g, out=spread)
    np.minimum(spread, b, out=spread)
    np.subtract(value, spread, out=spread)
    masks = arena.take("f64.masks", (len(_COLOR_NAMES), ht, wt), np.bool_)
    rules = _color_mask_stack(r, g, b, value, spread)
    for mask, name in zip(masks, _COLOR_NAMES):
        np.copyto(mask, rules[name])
    counts = _cell_fold(
        np.add, masks.view(np.uint8), grid, arena, "f64.counts",
        dtype=np.min_scalar_type(ch),
    )
    fractions = np.divide(counts, ch * cw, dtype=np.float64)

    blocked = _blocked_view(stack, grid)
    means = blocked.mean(axis=(-3, -1))  # row 4 (mag) unused
    stds_rgb = blocked[0:3].std(axis=(-3, -1))
    mag_std = blocked[4].std(axis=(-3, -1))
    mag_max = blocked[4].max(axis=(-3, -1))
    gray_max = _blocked_view(gray, grid).max(axis=(-3, -1))
    np.subtract(1.0, gray[:ht, :wt], out=plane)
    gray_min = 1.0 - _blocked_view(plane, grid).max(axis=(-3, -1))

    # Centroid sums, one weight at a time as _cell_centroid does.
    ramp_x = (np.arange(cw) + 0.5) / cw
    ramp_y = ((np.arange(ch) + 0.5) / ch).reshape(-1, 1, 1)
    tot3 = blocked[3:6].sum(axis=(-3, -1))
    product = _blocked_view(plane, grid)
    wx = np.empty((2, grid, grid))
    wy = np.empty((2, grid, grid))
    for row, weight in enumerate((3, 4)):
        np.multiply(blocked[weight], ramp_x, out=product)
        wx[row] = product.sum(axis=(-3, -1))
    for row, weight in enumerate((4, 5)):
        np.multiply(blocked[weight], ramp_y, out=product)
        wy[row] = product.sum(axis=(-3, -1))

    _assemble_output(
        out.reshape(grid, grid, FEATURE_DIM), config, means, orient,
        fractions, stds_rgb, mag_std, mag_max, gray_max, gray_min,
        wx, wy, tot3, arena, "f64", np.float64,
    )


#: Orientation slots per cell in the float32 kernel's histogram: the
#: angle in [-pi, pi] maps to ``angle * N/pi + N`` in [0, 2N], so slot
#: ``k`` and ``k + N`` are one bin mod pi and slot ``2N`` (angle +pi)
#: folds into bin 0.
_N_SLOTS = 2 * _N_ORIENT + 1

#: :func:`_color_mask_stack` as data, in ``_COLOR_NAMES`` order: every
#: mask is a conjunction of ``(plane, op, bound)`` tests on r, g, b,
#: value (max), spread (max − min) and the signed channel differences.
#: ``g > r + 0.05`` reads ``g-r > 0.05`` here, equal up to rounding.
_COLOR_RULES = (
    (("r", ">", 0.55), ("g", ">", 0.45), ("b", "<", 0.38),
     ("b-r", "<", -0.25)),
    (("value", ">", 0.82), ("spread", "<", 0.12)),
    (("value", "<", 0.18),),
    (("g-r", ">", 0.05), ("g-b", ">", 0.05), ("g", ">", 0.15)),
    (("b-r", ">", 0.05), ("b", ">", 0.5)),
    (("g-r", "<", -0.08), ("g-b", ">", 0.0), ("r", ">", 0.3),
     ("r", "<", 0.8)),
    (("spread", "<", 0.08), ("value", ">", 0.45), ("value", "<", 0.82)),
    (("spread", "<", 0.08), ("value", ">", 0.12), ("value", "<=", 0.35)),
    (("g-r", "<", -0.04), ("g-b", ">", 0.02), ("value", "<", 0.45),
     ("value", ">", 0.12)),
    (("value", ">", 0.9), ("r", ">", 0.85), ("g", ">", 0.8),
     ("b", "<", 0.85)),
)

_COMPARE = {">": np.greater, "<": np.less, "<=": np.less_equal}

#: Rows of the float32 kernel's plane stack.  The first ten are summed
#: per cell; ``_MAG`` and ``_GRAY`` are adjacent so one reduction takes
#: both cell maxima.
_R, _G, _B, _R2, _G2, _B2, _GX, _GY, _MAG2, _MAG, _GRAY = range(11)
_N_SUMMED = 10


class _CellGeometry(NamedTuple):
    """Per-geometry constants of the float32 kernel's cell reductions."""

    ch: int  # pixel rows per cell
    cw: int  # pixel columns per cell
    row_pool: np.ndarray  # (2, ch): ones, then the cell's y ramp
    col_pool: np.ndarray  # (cw, 2): ones, then the cell's x ramp
    slot_base: np.ndarray  # (H, W) intp: cell * _N_SLOTS; trimmed → dump


@lru_cache(maxsize=16)
def _cell_geometry(height: int, width: int, grid: int) -> _CellGeometry:
    """Memoized cell geometry for one image size and grid."""
    ch = height // grid
    cw = width // grid
    row_pool = np.ones((2, ch), dtype=np.float32)
    row_pool[1] = (np.arange(ch) + 0.5) / ch
    col_pool = np.ones((cw, 2), dtype=np.float32)
    col_pool[:, 1] = (np.arange(cw) + 0.5) / cw
    cell_rows = np.minimum(np.arange(height) // ch, grid)
    cell_cols = np.minimum(np.arange(width) // cw, grid)
    cells = cell_rows[:, None] * grid + cell_cols[None, :]
    # Pixels trimmed off the grid all land in one extra dump cell.
    cells[(cell_rows[:, None] == grid) | (cell_cols[None, :] == grid)] = (
        grid * grid
    )
    slot_base = (cells * _N_SLOTS).astype(np.intp)
    for array in (row_pool, col_pool, slot_base):
        array.setflags(write=False)
    return _CellGeometry(ch, cw, row_pool, col_pool, slot_base)


def _sum3(src: np.ndarray, dst: np.ndarray, axis: int) -> None:
    """Edge-padded 3-tap sums along ``axis`` (-1 or -2) of ``src``.

    Both arrays are C-contiguous, so a shift along either axis is a
    shift of the flat buffer: each pass is one long contiguous loop
    instead of one short loop per row.  The taps that wrap across a
    row or plane border land only on the first and last index along
    ``axis``, which the edge terms then overwrite.
    """
    step = 1 if axis == -1 else src.shape[-1]
    flat_src = src.reshape(-1)
    inner = dst.reshape(-1)[step:-step]
    np.add(flat_src[: -2 * step], flat_src[step:-step], out=inner)
    np.add(inner, flat_src[2 * step :], out=inner)
    src_t = np.swapaxes(src, axis, -1)
    dst_t = np.swapaxes(dst, axis, -1)
    for edge, neighbor in ((0, 1), (-1, -2)):
        np.add(src_t[..., edge], src_t[..., edge], out=dst_t[..., edge])
        np.add(dst_t[..., edge], src_t[..., neighbor], out=dst_t[..., edge])


def _central_diff(src: np.ndarray, dst: np.ndarray, axis: int) -> None:
    """Edge-padded ``src[i + 1] − src[i − 1]`` along ``axis`` (-1 or -2)."""
    step = 1 if axis == -1 else src.shape[-1]
    flat_src = src.reshape(-1)
    np.subtract(
        flat_src[2 * step :], flat_src[: -2 * step],
        out=dst.reshape(-1)[step:-step],
    )
    src_t = np.swapaxes(src, axis, -1)
    dst_t = np.swapaxes(dst, axis, -1)
    np.subtract(src_t[..., 1], src_t[..., 0], out=dst_t[..., 0])
    np.subtract(src_t[..., -1], src_t[..., -2], out=dst_t[..., -1])


def _sobel_f32(gray, gx, gy, scratch) -> None:
    """Sobel responses, differencing first.

    ``gx`` is ``[1, 2, 1]`` down the rows of the column differences
    (``[1, 1, 1]`` sums plus the centre once more), ``gy`` the same
    across the columns of the row differences.  The legacy expression
    ``a + 2b + c − d − 2e − f`` leaves rounding residue where the true
    response is zero; a difference of equal pixels is exactly zero, so
    flat regions and axis-aligned edges give exact zeros here.
    """
    _central_diff(gray, scratch, axis=-1)
    _sum3(scratch, gx, axis=-2)
    gx += scratch
    _central_diff(gray, scratch, axis=-2)
    _sum3(scratch, gy, axis=-1)
    gy += scratch


def _cell_fold(ufunc, planes, grid: int, arena, tag, dtype=None):
    """``ufunc.reduce`` over every cell of ``(N, ht, wt)``, ``(N, grid, grid)``.

    Rows first: a cell's ``ch`` rows fold elementwise along the long
    contiguous axis, then the short ``cw`` axis is moved to the middle
    before its own fold — a trailing 16-element reduction costs more
    per output than the whole row fold does.  ``dtype`` sets the row
    fold's accumulator; the column fold runs in float32.
    """
    n, ht, wt = planes.shape
    ch, cw = ht // grid, wt // grid
    rows = ufunc.reduce(planes.reshape(n, grid, ch, wt), axis=2, dtype=dtype)
    columns = arena.take(tag, (n, grid, cw, grid), np.float32)
    np.copyto(columns, rows.reshape(n, grid, grid, cw).transpose(0, 1, 3, 2))
    return ufunc.reduce(columns, axis=2)


def _color_masks_f32(levels, full_scale, masks, scratch, arena) -> None:
    """The ten color masks of ``(3, h, w)`` planes into ``masks``.

    ``levels`` holds ``full_scale`` × the channel values: for a uint8
    image the exact integer (box-summed) levels, in int16 so signed
    differences cannot wrap; for a float image float32 values or box
    sums.  Bounds scale instead of pixels, and on integers each bound
    becomes the integer threshold that gives the answer comparing
    ``level / full_scale`` with the float bound would.
    """
    r, g, b = levels
    dtype = levels.dtype
    derived = arena.take("f32.colorplanes", (5, *r.shape), dtype)
    value, spread, g_r, g_b, b_r = derived
    np.maximum(r, g, out=value)
    np.maximum(value, b, out=value)
    np.minimum(r, g, out=spread)
    np.minimum(spread, b, out=spread)
    np.subtract(value, spread, out=spread)
    np.subtract(g, r, out=g_r)
    np.subtract(g, b, out=g_b)
    np.subtract(b, r, out=b_r)
    planes = {
        "r": r, "g": g, "b": b, "value": value, "spread": spread,
        "g-r": g_r, "g-b": g_b, "b-r": b_r,
    }
    for mask, rules in zip(masks, _COLOR_RULES):
        for position, (name, op, bound) in enumerate(rules):
            bound = bound * full_scale
            if dtype.kind == "i":
                bound = math.ceil(bound) if op == "<" else math.floor(bound)
            target = scratch if position else mask
            _COMPARE[op](planes[name], dtype.type(bound), out=target)
            if position:
                np.logical_and(mask, scratch, out=mask)


def _fused_features_f32(image, config, arena, out) -> None:
    """Fast float32 kernel: planar, difference-first, rows-first pooling.

    Tolerance-equal to float64 rather than bit-identical (DESIGN.md
    §14).  A uint8 image is blurred as exact integer sums and scaled
    to float32 once; color masks compare those integers; cell sums
    pool a cell's rows with a ``(2, ch)`` matmul and its columns with
    a ``(cw, 2)`` one; the orientation histogram is one weighted
    ``np.bincount`` over (cell, slot).
    """
    grid = config.grid
    height, width = image.shape[:2]
    geo = _cell_geometry(height, width, grid)
    ch, cw = geo.ch, geo.cw
    ht, wt = ch * grid, cw * grid
    n_pixels = ch * cw
    f32 = np.float32

    planes = arena.take("f32.planes", (11, height, width), f32)
    rgb = planes[_R : _B + 1]
    integral = image.dtype == np.uint8
    levels = arena.take(
        "f32.levels", (3, height, width), np.int16 if integral else f32
    )
    np.copyto(levels, image.transpose(2, 0, 1), casting="unsafe")
    if not integral and not np.isfinite(levels).all():
        # A NaN angle has no orientation slot to count into.
        raise ValueError("float32 features need finite float32 pixels")
    full_scale = 255 if integral else 1
    if config.smooth:
        # 3×3 box sums: at most 9 × 255 = 2295, exact in int16.
        vertical = arena.take("f32.vertical", levels.shape, levels.dtype)
        _sum3(levels, vertical, axis=-2)
        _sum3(vertical, levels, axis=-1)
        full_scale *= 9
    np.multiply(levels, f32(1.0 / full_scale), out=rgb)
    np.multiply(rgb, rgb, out=planes[_R2 : _B2 + 1])
    gray = planes[_GRAY]
    np.matmul(
        _GRAY_WEIGHTS_F32, rgb.reshape(3, -1),
        out=gray.reshape(1, -1),
    )

    gx, gy, mag2, mag = planes[_GX], planes[_GY], planes[_MAG2], planes[_MAG]
    scratch = arena.take("f32.scratch", (height, width), f32)
    _sobel_f32(gray, gx, gy, scratch)
    # Orientation slot of each pixel: angle * N/pi + N truncated.  The
    # 1e-6 nudge keeps an exactly vertical gradient (gx == 0, gy < 0),
    # whose float32 angle lands a hair under the bin edge, in bin N/2
    # as float64 puts it.
    angle = scratch
    np.arctan2(gy, gx, out=angle)
    np.multiply(angle, f32(_N_ORIENT / np.pi), out=angle)
    np.add(angle, f32(_N_ORIENT + 1e-6), out=angle)
    slots = arena.take("f32.slots", (height, width), np.intp)
    np.copyto(slots, angle, casting="unsafe")
    np.add(slots, geo.slot_base, out=slots)
    np.multiply(gx, gx, out=mag2)
    np.multiply(gy, gy, out=scratch)
    np.add(mag2, scratch, out=mag2)
    np.sqrt(mag2, out=mag)
    np.abs(gx, out=gx)
    np.abs(gy, out=gy)

    local = arena.take("f32.local", (_LOCAL_DIM, grid, grid), f32)
    n_cells = grid * grid
    hist = np.bincount(
        slots.reshape(-1),
        weights=mag.reshape(-1),
        minlength=(n_cells + 1) * _N_SLOTS,
    )[: n_cells * _N_SLOTS].reshape(grid, grid, _N_SLOTS)
    orient = local[10 : 10 + _N_ORIENT]
    folded = hist[..., :_N_ORIENT] + hist[..., _N_ORIENT : 2 * _N_ORIENT]
    folded[..., 0] += hist[..., -1]
    np.multiply(folded.transpose(2, 0, 1), 1.0 / n_pixels, out=orient)
    totals = orient.sum(axis=0)
    np.divide(orient, totals + f32(1e-9), out=orient)
    orient *= totals > 1e-9

    # Cell sums: (2, ch) @ each cell row's (ch, wt) block gives row
    # sums and y-ramp sums, then (·, cw) @ (cw, 2) gives cell sums and
    # x-ramp sums — ``cells[p, :, y, :, x]`` with y/x 1 for a ramp.
    trimmed = planes[:, :ht, :wt]
    rows = arena.take("f32.rows", (_N_SUMMED, grid, 2, wt), f32)
    np.matmul(
        geo.row_pool,
        trimmed[:_N_SUMMED].reshape(_N_SUMMED, grid, ch, wt),
        out=rows,
    )
    cells = arena.take("f32.cells", (_N_SUMMED, grid, 2, grid, 2), f32)
    np.matmul(rows.reshape(_N_SUMMED, grid, 2, grid, cw), geo.col_pool, out=cells)
    means = cells[:, :, 0, :, 0] * f32(1.0 / n_pixels)
    local[0:3] = means[_R : _B + 1]
    local[6] = means[_GX]
    local[7] = means[_GY]
    variance = means[[_R2, _G2, _B2, _MAG2]]
    variance -= means[[_R, _G, _B, _MAG]] ** 2
    np.maximum(variance, 0.0, out=variance)
    np.sqrt(variance, out=variance)
    local[3:6] = variance[0:3]
    local[8] = variance[3]
    peaks = _cell_fold(
        np.maximum, trimmed[_MAG : _GRAY + 1], grid, arena, "f32.peaks"
    )
    local[9] = peaks[0]
    local[26] = peaks[1]
    local[27] = _cell_fold(
        np.minimum, trimmed[_GRAY : _GRAY + 1], grid, arena, "f32.lows"
    )[0]

    masks = arena.take("f32.masks", (len(_COLOR_NAMES), ht, wt), np.bool_)
    mask_scratch = arena.take("f32.maskscratch", (ht, wt), np.bool_)
    _color_masks_f32(
        levels[:, :ht, :wt], full_scale, masks, mask_scratch, arena
    )
    # Mask counts: a cell row's count fits the row fold's small
    # unsigned type, and the float32 column fold is exact.
    counts = _cell_fold(
        np.add, masks.view(np.uint8), grid, arena, "f32.counts",
        dtype=np.min_scalar_type(ch),
    )
    np.multiply(counts, f32(1.0 / n_pixels), out=local[16:26])

    # Centroids 28..31: |gx| along x, |gy| along y, mag along x and y.
    weights = [_GX, _GY, _MAG, _MAG]
    ramped = cells[weights, :, [0, 1, 0, 1], :, [1, 0, 1, 0]]
    weight_sums = cells[weights, :, 0, :, 0]
    local[28:32] = np.where(
        weight_sums > 1e-9, ramped / (weight_sums + f32(1e-12)), f32(0.5)
    )

    out3 = out.reshape(grid, grid, FEATURE_DIM)
    out3[..., :_LOCAL_DIM] = local.transpose(1, 2, 0)
    context = out3[..., _LOCAL_DIM : 2 * _LOCAL_DIM]
    if config.context:
        # 3×3 edge-padded neighborhood mean of every local channel.
        box = arena.take("f32.context", local.shape, f32)
        _sum3(local, box, axis=-2)
        _sum3(box, local, axis=-1)
        np.multiply(local.transpose(1, 2, 0), f32(1.0 / 9.0), out=context)
    else:
        context[...] = 0.0
    rows_channel, cols_channel = _position_channels(grid)
    out3[..., -2] = rows_channel
    out3[..., -1] = cols_channel


def extract_features(
    image: np.ndarray,
    config: FeatureConfig | None = None,
    *,
    precision: str = "float64",
    arena: TensorArena | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-cell feature matrix of shape ``(grid*grid, FEATURE_DIM)``.

    Cells are ordered row-major (top-left first).  Accepts uint8 or
    float RGB images of any square-ish resolution ≥ the grid size.

    ``precision`` picks the kernel tier: ``"float64"`` (default) is
    bit-identical to the original extractor; ``"float32"`` runs the
    fast kernel, tolerance-equal to float64.  ``arena``
    supplies reusable scratch buffers — pass one when extracting many
    images to stop per-image reallocation.  ``out``, when given, must
    be a C-contiguous ``(n_cells, FEATURE_DIM)`` array of the tier's
    dtype and is returned filled.
    """
    if config is None:
        config = FeatureConfig()
    dtype = _feature_dtype(precision)
    image = np.asarray(image)
    _validate_image(image, config.grid)
    if arena is None:
        arena = TensorArena()
    if out is None:
        out = np.empty((config.n_cells, FEATURE_DIM), dtype=dtype)
    elif out.shape != (config.n_cells, FEATURE_DIM) or out.dtype != dtype:
        raise ValueError(
            f"out must be ({config.n_cells}, {FEATURE_DIM}) {dtype}, "
            f"got {out.shape} {out.dtype}"
        )
    if dtype == np.float64:
        _fused_features_f64(image, config, arena, out)
    else:
        _fused_features_f32(image, config, arena, out)
    return out


def extract_features_batch(
    images,
    config: FeatureConfig | None = None,
    *,
    precision: str = "float64",
) -> np.ndarray:
    """Feature tensors for an image stack, ``(N, n_cells, FEATURE_DIM)``.

    The batched entry point behind ``predict_cells_batch`` and tensor
    building: one arena's scratch buffers serve every image and each
    image's features are written straight into the preallocated
    output stack — no per-image allocation, no ``np.stack`` copy.
    Row ``i`` is bit-identical to ``extract_features(images[i], ...)``
    at the same precision.
    """
    if config is None:
        config = FeatureConfig()
    out = np.empty(
        (len(images), config.n_cells, FEATURE_DIM),
        dtype=_feature_dtype(precision),
    )
    arena = TensorArena()
    for index, image in enumerate(images):
        extract_features(
            image, config, precision=precision, arena=arena, out=out[index]
        )
    return out


@lru_cache(maxsize=32)
def _cell_bounds_cached(grid: int) -> np.ndarray:
    step = 1.0 / grid
    ys, xs = np.mgrid[0:grid, 0:grid]
    bounds = np.stack(
        [xs * step, ys * step, (xs + 1) * step, (ys + 1) * step], axis=-1
    ).reshape(-1, 4)
    bounds.setflags(write=False)
    return bounds


def cell_bounds(grid: int = DEFAULT_GRID) -> np.ndarray:
    """Normalized xyxy bounds of every grid cell, row-major.

    Memoized per grid size; the returned array is read-only.
    """
    return _cell_bounds_cached(int(grid))
