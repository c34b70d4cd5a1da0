"""Tests for SNR noise injection and augmentation transforms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gsv import cropped_image
from repro.scene import (
    PAPER_SNR_LEVELS_DB,
    BoundingBox,
    add_gaussian_noise,
    noise_sigma_for_snr,
    resize_nearest,
    rotate_box,
    rotate_image,
    signal_power,
)


def measured_snr_db(clean: np.ndarray, noisy: np.ndarray) -> float:
    """Empirical SNR in dB between a uint8 image and its noisy copy."""
    clean_f = clean.astype(np.float64) / 255.0
    noise = noisy.astype(np.float64) / 255.0 - clean_f
    return float(10.0 * np.log10(signal_power(clean) / np.mean(noise**2)))


@pytest.fixture(scope="module")
def image(request):
    rng = np.random.default_rng(0)
    return (rng.uniform(0.2, 0.8, size=(128, 128, 3)) * 255).astype(np.uint8)


class TestNoise:
    def test_measured_snr_close_to_nominal(self, image):
        # Every Fig. 3 level, 5–30 dB; clipping lifts the 5 dB one most.
        for snr in PAPER_SNR_LEVELS_DB:
            noisy = add_gaussian_noise(image, snr, np.random.default_rng(1))
            measured = measured_snr_db(image, noisy)
            assert measured == pytest.approx(snr, abs=2.0)

    def test_lower_snr_more_noise(self, image):
        n5 = add_gaussian_noise(image, 5, np.random.default_rng(1))
        n30 = add_gaussian_noise(image, 30, np.random.default_rng(1))
        err5 = np.abs(n5.astype(float) - image.astype(float)).mean()
        err30 = np.abs(n30.astype(float) - image.astype(float)).mean()
        assert err5 > err30 * 3

    def test_preserves_dtype_uint8(self, image):
        noisy = add_gaussian_noise(image, 20)
        assert noisy.dtype == np.uint8

    def test_preserves_dtype_float(self):
        float_image = np.full((16, 16, 3), 0.5)
        noisy = add_gaussian_noise(float_image, 20)
        assert noisy.dtype == float_image.dtype
        assert noisy.min() >= 0.0 and noisy.max() <= 1.0

    def test_black_image_gets_no_noise(self):
        black = np.zeros((16, 16, 3), dtype=np.uint8)
        assert noise_sigma_for_snr(black, 10) == 0.0

    def test_signal_power_unit_white(self):
        white = np.full((8, 8, 3), 255, dtype=np.uint8)
        assert signal_power(white) == pytest.approx(1.0)


class TestRotation:
    def test_rotate_image_90_shape(self):
        image = np.arange(2 * 3 * 3).reshape(2, 3, 3)
        rotated = rotate_image(image, 90)
        assert rotated.shape == (3, 2, 3)

    def test_rotate_360_identity(self, image):
        out = image
        for _ in range(4):
            out = rotate_image(out, 90)
        assert np.array_equal(out, image)

    def test_rotate_rejects_non_multiple(self, image):
        with pytest.raises(ValueError):
            rotate_image(image, 45)

    def test_rotate_box_90_clockwise(self):
        box = BoundingBox(0.0, 0.0, 0.5, 0.25)  # top-left wide box
        rotated = rotate_box(box, 90)
        # Top-left corner moves to top-right under clockwise rotation.
        assert rotated.x_min == pytest.approx(0.75)
        assert rotated.y_min == pytest.approx(0.0)
        assert rotated.x_max == pytest.approx(1.0)
        assert rotated.y_max == pytest.approx(0.5)

    def test_rotate_box_180_flips(self):
        box = BoundingBox(0.1, 0.2, 0.3, 0.4)
        rotated = rotate_box(box, 180)
        assert rotated.x_min == pytest.approx(0.7)
        assert rotated.y_max == pytest.approx(0.8)

    @given(
        x0=st.floats(0.0, 0.8),
        y0=st.floats(0.0, 0.8),
        w=st.floats(0.05, 0.2),
        h=st.floats(0.05, 0.2),
    )
    @settings(max_examples=50)
    def test_rotate_box_area_preserved(self, x0, y0, w, h):
        box = BoundingBox(x0, y0, min(1.0, x0 + w), min(1.0, y0 + h))
        rotated = rotate_box(box, 90)
        assert rotated.area == pytest.approx(box.area, rel=1e-6)

    @given(degrees=st.sampled_from([90, 180, 270]))
    def test_image_and_box_rotation_agree(self, degrees):
        # Paint a marker rectangle, rotate both, and check the marker
        # lands inside the rotated box.
        image = np.zeros((40, 40, 3), dtype=np.uint8)
        box = BoundingBox(0.1, 0.2, 0.3, 0.5)
        x0, y0, x1, y1 = box.to_pixels(40, 40)
        image[y0:y1, x0:x1] = 255
        rotated_image_ = rotate_image(image, degrees)
        rotated_box = rotate_box(box, degrees)
        rx0, ry0, rx1, ry1 = rotated_box.to_pixels(40, 40)
        patch = rotated_image_[ry0:ry1, rx0:rx1]
        assert patch.mean() > 250  # marker fully inside rotated box


class TestCropAndResize:
    def test_resize_shape(self, image):
        resized = resize_nearest(image, 64, 32)
        assert resized.shape == (64, 32, 3)

    def test_resize_rejects_bad_target(self, image):
        with pytest.raises(ValueError):
            resize_nearest(image, 0, 10)

    def test_random_crop_returns_original_size(self, small_dataset):
        # The crop window is resized back to the uncropped resolution.
        image = small_dataset[0]
        cropped = cropped_image(image, np.random.default_rng(0))
        assert cropped.render().shape == image.render().shape

    def test_random_crop_boxes_stay_normalized(self, small_dataset):
        image = small_dataset[0]
        for seed in range(10):
            cropped = cropped_image(image, np.random.default_rng(seed))
            for _, box in cropped.annotations:
                assert 0.0 <= box.x_min < box.x_max <= 1.0
                assert 0.0 <= box.y_min < box.y_max <= 1.0
