"""Tests for survey dataset assembly, splits, and augmented copies."""

import numpy as np
import pytest

from repro.core.indicators import ALL_INDICATORS
from repro.gsv import (
    DatasetSplits,
    build_survey_dataset,
    cropped_image,
    rotated_image,
)
from repro.scene import PAPER_CROP_FRACTION


class TestBuildSurveyDataset:
    def test_size_and_multiple_of_four(self, small_dataset):
        assert len(small_dataset) == 120

    def test_rejects_non_multiple_of_four(self):
        with pytest.raises(ValueError):
            build_survey_dataset(n_images=10)

    def test_deterministic_in_seed(self):
        a = build_survey_dataset(n_images=40, size=256, seed=5)
        b = build_survey_dataset(n_images=40, size=256, seed=5)
        assert [i.scene for i in a] == [i.scene for i in b]

    def test_annotations_match_scene(self, small_dataset):
        for image in small_dataset:
            assert len(image.annotations) == len(image.scene.objects)
            for (indicator, box), obj in zip(
                image.annotations, image.scene.objects
            ):
                assert indicator == obj.indicator
                assert box == obj.box

    def test_every_indicator_present_somewhere(self, small_dataset):
        counts = small_dataset.presence_counts()
        for indicator in ALL_INDICATORS:
            assert counts[indicator] > 0, indicator

    def test_prevalence_calibrated_to_paper(self):
        dataset = build_survey_dataset(n_images=1200, size=256, seed=0)
        report = dataset.calibration_report()
        for indicator in ALL_INDICATORS:
            ratio = report[indicator.value]["ratio"]
            assert 0.6 <= ratio <= 1.5, (indicator, ratio)

    def test_presence_matrix_shape(self, small_dataset):
        matrix = small_dataset.presence_matrix()
        assert matrix.shape == (len(small_dataset), 6)
        assert matrix.dtype == bool


class TestSplits:
    def test_split_sizes(self, small_dataset):
        splits = small_dataset.split(seed=0)
        assert splits.total == len(small_dataset)
        assert len(splits.train) == pytest.approx(0.7 * 120, abs=4)
        assert len(splits.val) == pytest.approx(0.2 * 120, abs=4)
        assert len(splits.test) == pytest.approx(0.1 * 120, abs=4)

    def test_split_disjoint(self, small_dataset):
        splits = small_dataset.split(seed=0)
        ids = [
            img.image_id
            for part in (splits.train, splits.val, splits.test)
            for img in part
        ]
        assert len(ids) == len(set(ids))

    def test_split_stratified(self):
        dataset = build_survey_dataset(n_images=400, size=256, seed=1)
        splits = dataset.split(seed=2)
        train = np.array(
            [im.presence.as_vector() for im in splits.train]
        ).mean(axis=0)
        test = np.array(
            [im.presence.as_vector() for im in splits.test]
        ).mean(axis=0)
        assert np.abs(train - test).max() < 0.12

    def test_split_rejects_bad_fractions(self, small_dataset):
        with pytest.raises(ValueError):
            small_dataset.split(train=0.5, val=0.2, test=0.1)

    def test_splits_reject_overlap(self, small_dataset):
        image = small_dataset[0]
        with pytest.raises(ValueError):
            DatasetSplits(train=[image], val=[image], test=[])


class TestAugmentedCopies:
    def test_rotated_image_renders_rotated(self, small_dataset):
        image = small_dataset[0]
        rotated = rotated_image(image, 90)
        base = image.render(128)
        out = rotated.render(128)
        assert np.array_equal(out, np.rot90(base, k=-1))

    def test_rotated_annotations_count_preserved(self, small_dataset):
        image = small_dataset[0]
        rotated = rotated_image(image, 180)
        assert len(rotated.annotations) == len(image.annotations)

    def test_rotated_occupancy_attached(self, small_dataset):
        image = small_dataset[0]
        rotated = rotated_image(image, 270)
        assert rotated.occupancy is not None
        assert len(rotated.occupancy) == len(image.annotations)

    def test_cropped_image_same_size(self, small_dataset):
        image = small_dataset[0]
        cropped = cropped_image(image, np.random.default_rng(0))
        assert cropped.render(128).shape == (128, 128, 3)

    def test_cropped_boxes_valid(self, small_dataset):
        for image in small_dataset.images[:20]:
            cropped = cropped_image(image, np.random.default_rng(3))
            for _, box in cropped.annotations:
                assert 0.0 <= box.x_min < box.x_max <= 1.0
                assert 0.0 <= box.y_min < box.y_max <= 1.0

    def test_crop_removes_the_paper_fraction_of_the_area(self, small_dataset):
        # Fig. 2: "randomly cropped by 30% of the object image area".
        assert PAPER_CROP_FRACTION == 0.30
        cropped = cropped_image(small_dataset[0], np.random.default_rng(0))
        _, x0, y0, x1, y1 = cropped.render_ops[-1]
        assert (x1 - x0) * (y1 - y0) == pytest.approx(1.0 - PAPER_CROP_FRACTION)

    def test_crop_drops_objects_mostly_outside_its_window(self, small_dataset):
        # An object survives the crop when at least a quarter of its
        # box stays inside the window.
        dropped = 0
        for seed, image in enumerate(small_dataset.images):
            cropped = cropped_image(image, np.random.default_rng(seed))
            _, x0, y0, x1, y1 = cropped.render_ops[-1]
            survivors = []
            for obj in image.scene.objects:
                box = obj.box
                width = min(box.x_max, x1) - max(box.x_min, x0)
                height = min(box.y_max, y1) - max(box.y_min, y0)
                visible = max(width, 0.0) * max(height, 0.0) / box.area
                if visible >= 0.25:
                    survivors.append(obj.indicator)
            assert [ind for ind, _ in cropped.annotations] == survivors
            dropped += len(image.scene.objects) - len(survivors)
        assert dropped > 0

    def test_unknown_render_op_rejected(self, small_dataset):
        from dataclasses import replace

        image = replace(small_dataset[0], render_ops=(("zoom", 2),))
        with pytest.raises(ValueError):
            image.render(128)
