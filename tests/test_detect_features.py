"""Tests for grid feature extraction."""

import numpy as np
import pytest

from repro.detect import (
    FEATURE_DIM,
    FeatureConfig,
    cell_bounds,
    extract_features,
    extract_features_batch,
)
from repro.parallel import TensorArena

from .features_legacy import (
    _cell_reduce,
    _cell_reduce_stack,
    extract_features_legacy,
)


def _random_image(rng, as_uint8=True):
    height = int(rng.integers(48, 180))
    width = int(rng.integers(48, 180))
    pixels = rng.uniform(size=(height, width, 3))
    if as_uint8:
        return (pixels * 255).astype(np.uint8)
    return pixels


@pytest.fixture()
def gray_image():
    return np.full((128, 128, 3), 128, dtype=np.uint8)


class TestGridGeometry:
    def test_cell_bounds_tile_canvas(self):
        bounds = cell_bounds(4)
        areas = (bounds[:, 2] - bounds[:, 0]) * (bounds[:, 3] - bounds[:, 1])
        assert areas.sum() == pytest.approx(1.0)

    def test_cell_bounds_row_major(self):
        # Cell ``row * grid + col``: the order decode_cells indexes by.
        bounds = cell_bounds(4)
        assert bounds[1].tolist() == [0.25, 0.0, 0.5, 0.25]
        assert bounds[4].tolist() == [0.0, 0.25, 0.25, 0.5]


class TestExtractFeatures:
    def test_shape(self, gray_image):
        features = extract_features(gray_image, FeatureConfig(grid=16))
        assert features.shape == (256, FEATURE_DIM)

    def test_accepts_float_images(self):
        image = np.random.default_rng(0).uniform(size=(64, 64, 3))
        features = extract_features(image, FeatureConfig(grid=8))
        assert features.shape == (64, FEATURE_DIM)

    def test_rejects_grayscale(self):
        with pytest.raises(ValueError):
            extract_features(np.zeros((64, 64)), FeatureConfig(grid=8))

    def test_rejects_image_smaller_than_grid(self):
        with pytest.raises(ValueError):
            extract_features(np.zeros((8, 8, 3)), FeatureConfig(grid=16))

    def test_uniform_image_has_zero_gradients(self, gray_image):
        features = extract_features(gray_image, FeatureConfig(grid=8))
        # Gradient-energy channels (indices 6..10) are all zero on a
        # flat image, except possibly boundary padding effects.
        assert features[:, 6:8].max() == pytest.approx(0.0, abs=1e-9)

    def test_color_means_reflect_image(self):
        image = np.zeros((64, 64, 3), dtype=np.uint8)
        image[:, :, 0] = 255  # pure red
        features = extract_features(image, FeatureConfig(grid=8))
        assert features[:, 0].mean() == pytest.approx(1.0)
        assert features[:, 1].mean() == pytest.approx(0.0)

    def test_position_channels_last(self):
        image = np.zeros((64, 64, 3), dtype=np.uint8)
        features = extract_features(image, FeatureConfig(grid=8))
        rows = features[:, -2].reshape(8, 8)
        cols = features[:, -1].reshape(8, 8)
        assert rows[0, 0] == 0.0 and rows[-1, 0] == 1.0
        assert cols[0, 0] == 0.0 and cols[0, -1] == 1.0

    def test_vertical_edge_activates_gx(self):
        image = np.zeros((64, 64, 3), dtype=np.uint8)
        image[:, 32:] = 255  # vertical boundary
        features = extract_features(image, FeatureConfig(grid=8))
        cells = features.reshape(8, 8, FEATURE_DIM)
        # |gx| mean (channel 6) on the boundary column far exceeds others.
        assert cells[4, 4, 6] > cells[4, 1, 6] + 0.1

    def test_subcell_centroid_tracks_edge_position(self):
        config = FeatureConfig(grid=4)
        left = np.zeros((64, 64, 3), dtype=np.uint8)
        left[:, 2:4] = 255  # thin vertical line near cell's left edge
        right = np.zeros((64, 64, 3), dtype=np.uint8)
        right[:, 12:14] = 255  # near the cell's right edge
        f_left = extract_features(left, config).reshape(4, 4, FEATURE_DIM)
        f_right = extract_features(right, config).reshape(4, 4, FEATURE_DIM)
        # Channel -6 is the vertical-edge x centroid.
        assert f_left[2, 0, -6] < f_right[2, 0, -6]

    def test_context_channels_mix_neighbors(self):
        image = np.zeros((64, 64, 3), dtype=np.uint8)
        image[0:8, 0:8] = 255  # bright top-left cell only
        # smooth=False keeps the block crisp so locality is testable.
        features = extract_features(
            image, FeatureConfig(grid=8, smooth=False)
        )
        cells = features.reshape(8, 8, FEATURE_DIM)
        local_dim = (FEATURE_DIM - 2) // 2
        # Neighbor of the bright cell sees it through context channels
        # (red-mean context at offset local_dim + 0).
        assert cells[0, 1, local_dim] > 0.05
        # But its own local red mean stays zero.
        assert cells[0, 1, 0] == pytest.approx(0.0)

    def test_smoothing_reduces_noise_response(self):
        rng = np.random.default_rng(0)
        noisy = (rng.uniform(size=(64, 64, 3)) * 255).astype(np.uint8)
        sharp = extract_features(noisy, FeatureConfig(grid=8, smooth=False))
        smooth = extract_features(noisy, FeatureConfig(grid=8, smooth=True))
        # Gradient-energy channels shrink under pre-smoothing.
        assert smooth[:, 6].mean() < sharp[:, 6].mean()

    def test_deterministic(self, gray_image):
        a = extract_features(gray_image)
        b = extract_features(gray_image)
        assert np.array_equal(a, b)


class TestCellReduceStack:
    """The vectorized stack reduction must be *bit*-identical to the
    per-channel loop it replaced — not approximately equal."""

    @pytest.mark.parametrize(
        "shape,grid",
        [
            ((3, 64, 64), 8),
            ((6, 67, 53), 8),  # non-divisible dims exercise trimming
            ((1, 16, 16), 4),
            ((9, 128, 96), 16),
        ],
    )
    def test_matches_per_channel_loop_exactly(self, shape, grid):
        rng = np.random.default_rng(sum(shape) + grid)
        channels = rng.standard_normal(shape)
        stacked = _cell_reduce_stack(channels, grid)
        assert stacked.shape == (grid, grid, shape[0])
        for index in range(shape[0]):
            looped = _cell_reduce(channels[index], grid, "mean")
            assert np.array_equal(stacked[:, :, index], looped)

    def test_extract_features_unchanged_by_vectorization(self):
        # Reference implementation: the pre-vectorization per-bin loop,
        # inlined here so any drift in the fast path is caught exactly.
        from repro.detect.features import _N_ORIENT

        rng = np.random.default_rng(42)
        mag = rng.uniform(size=(96, 96))
        angle = rng.uniform(0, np.pi, size=(96, 96))
        bin_index = np.minimum(
            (angle / np.pi * _N_ORIENT).astype(int), _N_ORIENT - 1
        )
        weighted = np.where(
            bin_index[None, :, :] == np.arange(_N_ORIENT)[:, None, None],
            mag[None, :, :],
            0.0,
        )
        fast = _cell_reduce_stack(weighted, grid=8)
        for b in range(_N_ORIENT):
            reference = _cell_reduce(
                np.where(bin_index == b, mag, 0.0), 8, "mean"
            )
            assert np.array_equal(fast[:, :, b], reference)


class TestBlockedView:
    """The one trim/reshape helper behind every cell reduction."""

    @pytest.mark.parametrize(
        "shape,grid",
        [
            ((64, 64), 8),
            ((67, 53), 8),  # trimming on both axes
            ((5, 67, 53), 8),  # leading stack axis
            ((2, 3, 40, 24), 4),  # two leading axes
        ],
    )
    def test_blocked_reduction_matches_manual_trim(self, shape, grid):
        from repro.detect.features import _blocked_view

        rng = np.random.default_rng(sum(shape))
        array = rng.standard_normal(shape)
        height, width = shape[-2], shape[-1]
        ch, cw = height // grid, width // grid
        trimmed = array[..., : ch * grid, : cw * grid]
        blocked = _blocked_view(array, grid)
        assert blocked.shape == (*shape[:-2], grid, ch, grid, cw)
        manual = trimmed.reshape(*shape[:-2], grid, ch, grid, cw)
        assert np.array_equal(
            blocked.mean(axis=(-3, -1)), manual.mean(axis=(-3, -1))
        )
        assert np.array_equal(
            blocked.max(axis=(-3, -1)), manual.max(axis=(-3, -1))
        )

    def test_rejects_grid_larger_than_image(self):
        from repro.detect.features import _blocked_view

        with pytest.raises(ValueError):
            _blocked_view(np.zeros((4, 4)), 8)


class TestFusedKernelExactEquality:
    """The fused float64 kernel is *bit*-identical to the legacy
    multi-pass extractor — every channel, every config, boundary
    pixels and all.  This is what lets the golden survey fixtures pin
    the fused path without regeneration."""

    @pytest.mark.parametrize("as_uint8", [True, False])
    @pytest.mark.parametrize("smooth", [True, False])
    @pytest.mark.parametrize("context", [True, False])
    def test_fused_matches_legacy_exactly(self, as_uint8, smooth, context):
        config = FeatureConfig(grid=8, smooth=smooth, context=context)
        rng = np.random.default_rng(
            1000 * as_uint8 + 100 * smooth + 10 * context
        )
        for _ in range(3):
            image = _random_image(rng, as_uint8=as_uint8)
            fused = extract_features(image, config)
            legacy = extract_features_legacy(image, config)
            assert np.array_equal(fused, legacy)

    def test_fused_matches_legacy_on_structured_images(self):
        # Edges, flat regions, saturated colors: the cases where an
        # op-reordering bug would show up as a one-ulp drift.
        config = FeatureConfig(grid=8)
        flat = np.full((96, 96, 3), 128, dtype=np.uint8)
        edge = np.zeros((96, 96, 3), dtype=np.uint8)
        edge[:, 48:] = 255
        stripes = np.zeros((96, 96, 3), dtype=np.uint8)
        stripes[::4, :, 0] = 255
        for image in (flat, edge, stripes):
            assert np.array_equal(
                extract_features(image, config),
                extract_features_legacy(image, config),
            )

    @pytest.mark.parametrize(
        "shape,grid",
        [
            ((520, 61), 2),  # 260-row cells, one trimmed column
            ((67, 53), 2),
            ((131, 97), 12),
            ((100, 150), 12),
        ],
    )
    @pytest.mark.parametrize("as_uint8", [True, False])
    def test_fused_matches_legacy_on_tall_and_trimmed_cells(
        self, shape, grid, as_uint8
    ):
        # The left third is flat sky, so the sky mask holds down whole
        # cell columns: a cell taller than 255 rows overflows a uint8
        # row count.  The grids leave rows and columns trimmed.
        rng = np.random.default_rng(sum(shape) + grid)
        image = rng.uniform(size=(*shape, 3))
        image[:, : shape[1] // 3] = (0.3, 0.5, 0.9)
        if as_uint8:
            image = (image * 255).astype(np.uint8)
        for smooth in (True, False):
            config = FeatureConfig(grid=grid, smooth=smooth)
            assert np.array_equal(
                extract_features(image, config),
                extract_features_legacy(image, config),
            )

    def test_scratch_is_about_seventeen_planes(self):
        # About 17 planes of 0.5 MiB each at 256²: a float64 mask or
        # orientation plane per channel would take twice that.
        arena = TensorArena()
        image = np.zeros((256, 256, 3), dtype=np.uint8)
        extract_features(image, FeatureConfig(grid=16), arena=arena)
        assert arena.nbytes <= 11 * 2**20

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_pixels_rejected(self, bad):
        image = np.full((64, 64, 3), 0.5)
        image[3, 4, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            extract_features(image, FeatureConfig(grid=8))

    def test_batch_rows_match_per_image_calls(self):
        rng = np.random.default_rng(7)
        config = FeatureConfig(grid=8)
        images = [_random_image(rng) for _ in range(4)]
        batch = extract_features_batch(images, config)
        assert batch.shape == (4, config.n_cells, FEATURE_DIM)
        for index, image in enumerate(images):
            assert np.array_equal(
                batch[index], extract_features(image, config)
            )

    def test_arena_reuse_does_not_leak_between_images(self):
        # Same arena, different images back to back: the second result
        # must not inherit anything from the first's scratch buffers.
        rng = np.random.default_rng(13)
        config = FeatureConfig(grid=8)
        arena = TensorArena()
        first = (rng.uniform(size=(80, 80, 3)) * 255).astype(np.uint8)
        second = (rng.uniform(size=(80, 80, 3)) * 255).astype(np.uint8)
        extract_features(first, config, arena=arena)
        reused = extract_features(second, config, arena=arena)
        assert np.array_equal(reused, extract_features(second, config))

    def test_empty_batch_returns_empty_tensor(self):
        config = FeatureConfig(grid=8)
        batch = extract_features_batch([], config)
        assert batch.shape == (0, config.n_cells, FEATURE_DIM)

    def test_float32_precision_within_tolerance(self):
        rng = np.random.default_rng(29)
        config = FeatureConfig(grid=8)
        for _ in range(3):
            image = _random_image(rng)
            exact = extract_features(image, config)
            fast = extract_features(image, config, precision="float32")
            assert fast.dtype == np.float32
            assert float(np.abs(fast - exact).max()) < 5e-2

    def test_unknown_precision_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            extract_features(
                np.zeros((64, 64, 3)), FeatureConfig(grid=8), precision="f16"
            )


class TestFloat32Kernel:
    """The float32 kernel stays within 5e-2 of float64 on every channel,
    and is exact where the answer is: flat regions carry no gradient,
    so no orientation histogram."""

    TOLERANCE = 5e-2

    @pytest.mark.parametrize("as_uint8", [True, False])
    @pytest.mark.parametrize("smooth", [True, False])
    @pytest.mark.parametrize("context", [True, False])
    @pytest.mark.parametrize(
        "shape,grid", [((67, 53), 8), ((131, 97), 8), ((256, 256), 16)]
    )
    def test_within_tolerance_of_float64(
        self, as_uint8, smooth, context, shape, grid
    ):
        config = FeatureConfig(grid=grid, smooth=smooth, context=context)
        rng = np.random.default_rng(
            [1000 * as_uint8 + 100 * smooth + 10 * context, *shape]
        )
        pixels = rng.uniform(size=(*shape, 3))
        image = (pixels * 255).astype(np.uint8) if as_uint8 else pixels
        exact = extract_features(image, config)
        fast = extract_features(image, config, precision="float32")
        assert fast.dtype == np.float32
        assert float(np.abs(fast - exact).max()) < self.TOLERANCE

    def test_cells_taller_than_255_rows(self):
        # Per-row mask counts widen past uint8 when a cell has more rows.
        rng = np.random.default_rng(3)
        image = (rng.uniform(size=(520, 48, 3)) * 255).astype(np.uint8)
        config = FeatureConfig(grid=2)
        exact = extract_features(image, config)
        fast = extract_features(image, config, precision="float32")
        assert float(np.abs(fast - exact).max()) < self.TOLERANCE

    @pytest.mark.parametrize("as_uint8", [True, False])
    def test_flat_and_vertical_stripe_images(self, as_uint8):
        flat = np.full((256, 256, 3), 128, dtype=np.uint8)
        stripes = np.zeros((256, 256, 3), dtype=np.uint8)
        stripes[:, ::4, 1] = 255
        config = FeatureConfig(grid=16)
        for image in (flat, stripes):
            image = image if as_uint8 else image / 255.0
            exact = extract_features(image, config)
            fast = extract_features(image, config, precision="float32")
            assert float(np.abs(fast - exact).max()) < self.TOLERANCE

    def test_horizontal_stripes_fill_the_vertical_bin(self):
        # Every gradient of horizontal stripes points straight down or
        # up: 90 degrees, the edge between bins 2 and 3, which floor()
        # puts in bin 3 (column 13).  The float64 kernel's Sobel leaves
        # ~1e-17 of signed residue in gx there and splits the mass
        # between columns 12 and 13; float32 differences first and puts
        # all of it in column 13.  Their sum agrees, as do the others.
        stripes = np.zeros((256, 256, 3), dtype=np.uint8)
        stripes[::4, :, 0] = 255
        config = FeatureConfig(grid=16, context=False)
        exact = extract_features(stripes, config)
        fast = extract_features(stripes, config, precision="float32")
        orient = slice(10, 16)
        assert np.all(fast[:, 13] == 1.0)
        assert np.all(fast[:, [10, 11, 12, 14, 15]] == 0.0)
        assert np.allclose(exact[:, 12] + exact[:, 13], 1.0)
        others = np.ones(FEATURE_DIM, dtype=bool)
        others[orient] = False
        assert float(np.abs(fast - exact)[:, others].max()) < self.TOLERANCE

    @pytest.mark.parametrize("bright_on_top", [True, False])
    def test_horizontal_edge_lands_in_the_vertical_bin(self, bright_on_top):
        # gx == 0 exactly with gy of either sign: the angle is +-pi/2,
        # bin 3 both ways (float32's -pi/2 rounds a hair past the edge).
        image = np.zeros((64, 64, 3), dtype=np.uint8)
        image[:32] = 255
        if not bright_on_top:
            image = image[::-1]
        features = extract_features(
            image, FeatureConfig(grid=8), precision="float32"
        ).reshape(8, 8, FEATURE_DIM)
        assert np.all(features[3:5, :, 13] == 1.0)
        assert np.all(features[:, :, [10, 11, 12, 14, 15]] == 0.0)

    def test_color_rules_match_the_float64_masks(self):
        # The float32 kernel's table-driven masks on integer levels
        # agree exactly with the float64 predicates on v / 255 for
        # every tested uint8 color (no 8-bit level ties a bound).
        from repro.detect.features import (
            _COLOR_NAMES,
            _color_mask_stack,
            _color_masks_f32,
        )

        rng = np.random.default_rng(5)
        levels = rng.integers(0, 256, size=(3, 64, 1024)).astype(np.int16)
        masks = np.empty((len(_COLOR_NAMES), 64, 1024), dtype=bool)
        _color_masks_f32(
            levels, 255, masks, np.empty((64, 1024), dtype=bool),
            TensorArena(),
        )
        r, g, b = levels / 255.0
        value = np.maximum(np.maximum(r, g), b)
        spread = value - np.minimum(np.minimum(r, g), b)
        expected = _color_mask_stack(r, g, b, value, spread)
        for index, name in enumerate(_COLOR_NAMES):
            assert np.array_equal(masks[index], expected[name]), name
            assert masks[index].any(), name

    def test_flat_images_have_no_orientation_histogram(self):
        # Every grey level and 200 seeded colors: the gradient is
        # exactly zero, so the orientation columns (local 10..15 and
        # their context copies) must read exactly zero, as at float64.
        rng = np.random.default_rng(2024)
        colors = [(level, level, level) for level in range(256)]
        colors += [tuple(c) for c in rng.integers(0, 256, size=(200, 3))]
        config = FeatureConfig(grid=8)
        local_dim = (FEATURE_DIM - 2) // 2
        orient = np.r_[10:16, local_dim + 10 : local_dim + 16]
        arena = TensorArena()
        image = np.empty((96, 96, 3), dtype=np.uint8)
        for color in colors:
            image[...] = color
            fast = extract_features(
                image, config, precision="float32", arena=arena
            )
            assert np.all(fast[:, orient] == 0.0), color


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_pixels_rejected(self, bad):
        image = np.full((32, 32, 3), 0.5)
        image[3, 4, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            extract_features(image, FeatureConfig(grid=8), precision="float32")


class TestFeatureConfigValidation:
    @pytest.mark.parametrize("grid", [1, 0, -3])
    def test_grid_below_two_rejected(self, grid):
        # Position channels divide by grid - 1, and a zero grid cannot
        # tile anything.
        with pytest.raises(ValueError, match="grid"):
            FeatureConfig(grid=grid)

    def test_smallest_grid_accepted(self):
        features = extract_features(
            np.zeros((8, 8, 3), dtype=np.uint8), FeatureConfig(grid=2)
        )
        assert np.isfinite(features).all()


class TestGridMemoization:
    """cell_bounds is memoized per grid and immutable."""

    def test_same_array_returned_for_same_grid(self):
        assert cell_bounds(8) is cell_bounds(8)

    def test_different_grids_do_not_collide(self):
        assert cell_bounds(4).shape == (16, 4)
        assert cell_bounds(8).shape == (64, 4)

    def test_memoized_arrays_are_readonly(self):
        bounds = cell_bounds(8)
        with pytest.raises((ValueError, RuntimeError)):
            bounds[0, 0] = 99.0
