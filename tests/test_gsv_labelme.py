"""Tests for LabelMe annotation I/O and the label-noise model."""

import pytest

from repro.core.indicators import Indicator
from repro.gsv import (
    LabelMeShape,
    labelme_to_annotations,
    load_labelme,
    perturb_annotations,
    save_labelme,
    scene_to_labelme,
)
from repro.scene import BoundingBox


class TestLabelMeRoundTrip:
    def test_scene_export_shape_count(self, urban_scene):
        doc = scene_to_labelme(urban_scene, "img.png", 640, 640)
        assert len(doc["shapes"]) == len(urban_scene.objects)
        assert doc["imageWidth"] == 640
        assert doc["version"]

    def test_round_trip_preserves_labels(self, urban_scene):
        doc = scene_to_labelme(urban_scene, "img.png", 640, 640)
        annotations = labelme_to_annotations(doc)
        original = sorted(obj.indicator.value for obj in urban_scene.objects)
        recovered = sorted(ind.value for ind, _ in annotations)
        assert original == recovered

    def test_round_trip_box_accuracy(self, urban_scene):
        doc = scene_to_labelme(urban_scene, "img.png", 640, 640)
        annotations = labelme_to_annotations(doc)
        for obj, (_, box) in zip(urban_scene.objects, annotations):
            assert obj.box.iou(box) > 0.95

    def test_file_round_trip(self, urban_scene, tmp_path):
        doc = scene_to_labelme(urban_scene, "img.png", 640, 640)
        path = tmp_path / "anno.json"
        save_labelme(doc, path)
        assert load_labelme(path) == doc

    def test_rejects_non_rectangle(self):
        with pytest.raises(ValueError):
            LabelMeShape.from_json(
                {"shape_type": "polygon", "points": [[0, 0], [1, 1]]}
            )

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            labelme_to_annotations(
                {"imageWidth": 0, "imageHeight": 640, "shapes": []}
            )

    def test_shape_point_order_normalized(self):
        shape = LabelMeShape.from_json(
            {
                "shape_type": "rectangle",
                "label": "sidewalk",
                "points": [[100, 200], [50, 150]],
            }
        )
        assert shape.x0 == 50 and shape.y0 == 150
        assert shape.x1 == 100 and shape.y1 == 200


class TestPerturbAnnotations:
    @pytest.fixture()
    def annotations(self):
        return [
            (Indicator.SIDEWALK, BoundingBox(0.2, 0.5, 0.8, 0.9)),
            (Indicator.POWERLINE, BoundingBox(0.0, 0.1, 1.0, 0.4)),
            (Indicator.APARTMENT, BoundingBox(0.1, 0.2, 0.4, 0.6)),
        ] * 30

    def test_no_noise_is_identity(self, annotations, rng):
        out = perturb_annotations(
            annotations, rng, jitter=0.0, miss_rate=0.0, mislabel_rate=0.0
        )
        assert out == annotations

    def test_miss_rate_drops_objects(self, annotations, rng):
        out = perturb_annotations(
            annotations, rng, jitter=0.0, miss_rate=0.5, mislabel_rate=0.0
        )
        assert len(out) < len(annotations)

    def test_mislabel_changes_class_only(self, annotations, rng):
        out = perturb_annotations(
            annotations, rng, jitter=0.0, miss_rate=0.0, mislabel_rate=1.0
        )
        assert len(out) == len(annotations)
        changed = sum(
            1
            for (ind_a, _), (ind_b, _) in zip(annotations, out)
            if ind_a != ind_b
        )
        assert changed == len(annotations)

    def test_jitter_keeps_boxes_valid(self, annotations, rng):
        out = perturb_annotations(annotations, rng, jitter=0.05)
        for _, box in out:
            assert 0.0 <= box.x_min < box.x_max <= 1.0
            assert 0.0 <= box.y_min < box.y_max <= 1.0

    def test_rejects_negative_rates(self, annotations, rng):
        with pytest.raises(ValueError):
            perturb_annotations(annotations, rng, jitter=-0.1)
