"""Tests for the rasterizer and raster primitives."""

import numpy as np
import pytest

from repro.core.indicators import Indicator
from repro.scene import render_scene
from repro.scene.raster import (
    draw_line,
    fill_convex_polygon,
    fill_ellipse,
    fill_rect,
    speckle,
    vertical_gradient,
)


@pytest.fixture()
def canvas():
    return np.zeros((64, 64, 3), dtype=np.float64)


class TestRasterPrimitives:
    def test_fill_rect_inside(self, canvas):
        fill_rect(canvas, 10, 10, 20, 20, (1.0, 0.0, 0.0))
        assert canvas[15, 15, 0] == 1.0
        assert canvas[5, 5, 0] == 0.0

    def test_fill_rect_clipped(self, canvas):
        fill_rect(canvas, -10, -10, 5, 5, (0.0, 1.0, 0.0))
        assert canvas[0, 0, 1] == 1.0

    def test_fill_rect_fully_outside_noop(self, canvas):
        fill_rect(canvas, 100, 100, 120, 120, (1.0, 1.0, 1.0))
        assert canvas.sum() == 0.0

    def test_fill_rect_opacity(self, canvas):
        canvas[:] = 0.5
        fill_rect(canvas, 0, 0, 64, 64, (1.0, 1.0, 1.0), opacity=0.5)
        assert canvas[0, 0, 0] == pytest.approx(0.75)

    def test_polygon_triangle(self, canvas):
        fill_convex_polygon(
            canvas, [(32, 10), (10, 50), (54, 50)], (0.0, 0.0, 1.0)
        )
        assert canvas[40, 32, 2] == 1.0  # inside
        assert canvas[15, 5, 2] == 0.0  # outside

    def test_polygon_winding_independent(self):
        a = np.zeros((64, 64, 3))
        b = np.zeros((64, 64, 3))
        pts = [(32, 10), (10, 50), (54, 50)]
        fill_convex_polygon(a, pts, (1.0, 1.0, 1.0))
        fill_convex_polygon(b, list(reversed(pts)), (1.0, 1.0, 1.0))
        assert np.array_equal(a, b)

    def test_polygon_needs_three_vertices(self, canvas):
        with pytest.raises(ValueError):
            fill_convex_polygon(canvas, [(0, 0), (1, 1)], (1, 1, 1))

    def test_line_horizontal(self, canvas):
        draw_line(canvas, 5, 32, 60, 32, (1.0, 0.0, 0.0), thickness=3)
        assert canvas[32, 30, 0] == 1.0
        assert canvas[20, 30, 0] == 0.0

    def test_line_zero_length_is_dot(self, canvas):
        draw_line(canvas, 32, 32, 32, 32, (1.0, 0.0, 0.0), thickness=4)
        assert canvas[32, 32, 0] == 1.0

    def test_line_rejects_bad_thickness(self, canvas):
        with pytest.raises(ValueError):
            draw_line(canvas, 0, 0, 10, 10, (1, 1, 1), thickness=0)

    def test_ellipse(self, canvas):
        fill_ellipse(canvas, 32, 32, 10, 5, (0.0, 1.0, 0.0))
        assert canvas[32, 32, 1] == 1.0
        assert canvas[32, 41, 1] == 1.0  # inside rx
        assert canvas[40, 32, 1] == 0.0  # outside ry

    def test_ellipse_rejects_bad_radius(self, canvas):
        with pytest.raises(ValueError):
            fill_ellipse(canvas, 0, 0, 0, 5, (1, 1, 1))

    def test_vertical_gradient_monotone(self, canvas):
        vertical_gradient(canvas, 0, 64, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        column = canvas[:, 0, 0]
        assert np.all(np.diff(column) >= 0)
        assert column[0] == 0.0
        assert column[-1] == 1.0

    @pytest.mark.parametrize("y0,y1", [(0, 64), (10, 50), (-5, 70), (20, 21)])
    def test_vertical_gradient_matches_loop(self, canvas, y0, y1):
        """The broadcast blend reproduces the per-row loop bit-for-bit."""
        top, bottom = (0.2, 0.4, 0.9), (0.1, 0.8, 0.3)
        vertical_gradient(canvas, y0, y1, top, bottom)

        expected = np.zeros_like(canvas)
        height = expected.shape[0]
        iy0 = max(0, int(y0))
        iy1 = min(height, int(y1))
        span = max(1, iy1 - iy0 - 1)
        top_arr = np.asarray(top, dtype=expected.dtype)
        bottom_arr = np.asarray(bottom, dtype=expected.dtype)
        for row in range(iy0, iy1):
            t = (row - iy0) / span
            expected[row, :, :] = (1.0 - t) * top_arr + t * bottom_arr

        assert np.array_equal(canvas, expected)

    def test_vertical_gradient_empty_band_noop(self, canvas):
        vertical_gradient(canvas, 40, 40, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        assert canvas.sum() == 0.0

    def test_speckle_bounded(self, canvas):
        canvas[:] = 0.5
        speckle(canvas, 0, 0, 64, 64, 0.1, np.random.default_rng(0))
        assert canvas.min() >= 0.0
        assert canvas.max() <= 1.0
        assert canvas.std() > 0.0


class TestRenderScene:
    def test_shape_and_dtype(self, urban_scene):
        image = render_scene(urban_scene, 320)
        assert image.shape == (320, 320, 3)
        assert image.dtype == np.uint8

    def test_rejects_tiny_size(self, urban_scene):
        with pytest.raises(ValueError):
            render_scene(urban_scene, 16)

    def test_deterministic(self, urban_scene):
        a = render_scene(urban_scene, 256)
        b = render_scene(urban_scene, 256)
        assert np.array_equal(a, b)

    def test_sky_is_blue_grass_is_green(self, rural_scene):
        image = render_scene(rural_scene, 256).astype(float) / 255.0
        sky = image[10, 128]
        assert sky[2] > sky[0]  # blue dominant
        # Bottom corner is grass or road; both are darker than sky.
        assert image[250, 5].mean() < sky.mean() + 0.1

    def test_road_darker_than_sky(self, urban_scene):
        image = render_scene(urban_scene, 256).astype(float) / 255.0
        road = image[240, 128]
        sky = image[10, 128]
        assert road.mean() < sky.mean()

    def test_apartment_scene_renders_windows(self, generator):
        from repro.geo import ZoneKind

        for i in range(50):
            scene = generator.generate(f"apt{i}", ZoneKind.URBAN)
            apartments = scene.objects_of(Indicator.APARTMENT)
            if not apartments:
                continue
            image = render_scene(scene, 320).astype(float) / 255.0
            x0, y0, x1, y1 = apartments[0].box.to_pixels(320, 320)
            patch = image[y0:y1, x0:x1]
            # The window grid makes the facade high-variance.
            assert patch.std() > 0.03
            return
        pytest.fail("no apartment generated in 50 urban scenes")


class TestSceneFingerprint:
    def test_stable_for_same_scene(self, urban_scene):
        from repro.scene import scene_fingerprint

        assert scene_fingerprint(urban_scene) == scene_fingerprint(urban_scene)

    def test_differs_across_scenes_and_sizes(self, urban_scene, rural_scene):
        from repro.scene import scene_fingerprint

        assert scene_fingerprint(urban_scene) != scene_fingerprint(rural_scene)
        assert scene_fingerprint(urban_scene, 256) != scene_fingerprint(
            urban_scene, 320
        )
