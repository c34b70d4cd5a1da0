"""Tests for the NanoDetector model, target assignment, and training."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.artifacts import model_fingerprint
from repro.cascade import CascadeClassifier
from repro.core.indicators import ALL_INDICATORS, Indicator
from repro.detect import (
    PRECISIONS,
    ModelConfig,
    NanoDetector,
    TrainConfig,
    assign_targets,
    build_training_tensors,
    evaluate_detector,
    sigmoid,
    train_detector,
)
from repro.detect.model import _label_components
from repro.gsv import build_survey_dataset
from repro.scene import BoundingBox

#: A grid-4, hidden-8 detector saved while ``ModelConfig`` still had
#: its ``nms_iou`` option, and the predictions it made then.
RETIRED_KEY_MODEL = Path(__file__).parent / "data" / "detector_saved_with_nms_iou.json"
RETIRED_KEY_EXPECTED = RETIRED_KEY_MODEL.with_suffix(".expected.json")


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_extremes_stable(self):
        values = sigmoid(np.array([-1000.0, 1000.0]))
        assert values[0] == pytest.approx(0.0)
        assert values[1] == pytest.approx(1.0)
        assert not np.isnan(values).any()

    def test_monotone(self):
        xs = np.linspace(-5, 5, 101)
        assert np.all(np.diff(sigmoid(xs)) > 0)


class TestComponentLabeling:
    def test_single_blob(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[1:3, 1:3] = True
        labels, n = _label_components(mask)
        assert n == 1
        assert (labels >= 0).sum() == 4

    def test_two_blobs(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[0, 0] = True
        mask[5, 5] = True
        labels, n = _label_components(mask)
        assert n == 2

    def test_diagonal_connectivity(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = mask[1, 1] = mask[2, 2] = True
        _, n = _label_components(mask)
        assert n == 1  # 8-connectivity joins diagonals

    def test_empty(self):
        _, n = _label_components(np.zeros((3, 3), dtype=bool))
        assert n == 0


class TestAssignTargets:
    def test_empty_annotations(self):
        obj, box = assign_targets([], grid=8)
        assert obj.sum() == 0
        assert box.sum() == 0

    def test_large_box_covers_many_cells(self):
        annotations = [
            (Indicator.MULTILANE_ROAD, BoundingBox(0.0, 0.5, 1.0, 1.0))
        ]
        obj, _ = assign_targets(annotations, grid=8)
        class_index = list(ALL_INDICATORS).index(Indicator.MULTILANE_ROAD)
        assert obj[:, class_index].sum() == 32  # bottom half of 64 cells

    def test_tiny_box_claims_one_cell(self):
        annotations = [
            (Indicator.STREETLIGHT, BoundingBox(0.50, 0.50, 0.52, 0.52))
        ]
        obj, _ = assign_targets(annotations, grid=8)
        class_index = list(ALL_INDICATORS).index(Indicator.STREETLIGHT)
        assert obj[:, class_index].sum() == 1

    def test_box_target_is_full_bbox(self):
        bbox = BoundingBox(0.2, 0.4, 0.8, 0.9)
        annotations = [(Indicator.SIDEWALK, bbox)]
        obj, box = assign_targets(annotations, grid=8)
        class_index = list(ALL_INDICATORS).index(Indicator.SIDEWALK)
        positives = obj[:, class_index] > 0.5
        targets = box[positives, class_index, :]
        assert np.allclose(targets[:, 0], 0.5)  # cx
        assert np.allclose(targets[:, 2], 0.6)  # w

    def test_occupancy_restricts_positives(self):
        bbox = BoundingBox(0.0, 0.0, 1.0, 1.0)
        sliver = BoundingBox(0.0, 0.0, 0.126, 1.0)  # leftmost column
        with_occ = [(Indicator.SIDEWALK, bbox, [sliver])]
        without = [(Indicator.SIDEWALK, bbox)]
        class_index = list(ALL_INDICATORS).index(Indicator.SIDEWALK)
        obj_occ, _ = assign_targets(with_occ, grid=8)
        obj_box, _ = assign_targets(without, grid=8)
        assert obj_occ[:, class_index].sum() < obj_box[:, class_index].sum()
        assert obj_occ[:, class_index].sum() == 8

    def test_overlapping_objects_larger_cover_wins(self):
        big = BoundingBox(0.0, 0.0, 0.5, 0.5)
        small = BoundingBox(0.0, 0.0, 0.13, 0.13)
        annotations = [
            (Indicator.APARTMENT, big),
            (Indicator.APARTMENT, small),
        ]
        obj, box = assign_targets(annotations, grid=8)
        class_index = list(ALL_INDICATORS).index(Indicator.APARTMENT)
        # Cell (0,0) fully covered by both; both cover it 100%, big
        # assigned first wins ties (strictly-greater comparison).
        target_w = box[0, class_index, 2]
        assert target_w == pytest.approx(0.5)


class TestTraining:
    @pytest.fixture(scope="class")
    def trained(self, small_dataset):
        splits = small_dataset.split(seed=0)
        result = train_detector(
            splits.train,
            model_config=ModelConfig(hidden=64),
            train_config=TrainConfig(epochs=6, seed=0),
        )
        return result, splits

    def test_loss_decreases(self, trained):
        result, _ = trained
        assert result.loss_history[-1] < result.loss_history[0] * 0.8

    def test_detects_roads_after_training(self, trained):
        result, splits = trained
        report = evaluate_detector(result.model, splits.test)
        road_f1 = report.per_class[Indicator.MULTILANE_ROAD].f1
        assert road_f1 > 0.5

    def test_rejects_empty_training_set(self):
        with pytest.raises(ValueError):
            train_detector([])

    def test_rejects_mixed_training_sizes(self, small_dataset):
        images = small_dataset.split(seed=0).train[:4]
        mixed = [*images[:2], *(replace(image, size=640) for image in images[2:])]
        with pytest.raises(ValueError, match="share one size"):
            train_detector(mixed, train_config=TrainConfig(epochs=1))

    def test_precomputed_only_has_no_input_size(self, small_dataset):
        tensors = build_training_tensors(small_dataset.split(seed=0).train[:8], 16)
        result = train_detector(
            [], train_config=TrainConfig(epochs=1, seed=0), precomputed=tensors
        )
        assert result.model.input_size is None

    def test_precomputed_tensors_reused(self, small_dataset):
        splits = small_dataset.split(seed=0)
        tensors = build_training_tensors(splits.train[:20], 16)
        result = train_detector(
            splits.train[:20],
            train_config=TrainConfig(epochs=2, seed=0),
            precomputed=tensors,
        )
        assert result.model.is_initialized

    def test_training_deterministic(self, small_dataset):
        splits = small_dataset.split(seed=0)
        tensors = build_training_tensors(splits.train[:16], 16)
        a = train_detector(
            splits.train[:16],
            train_config=TrainConfig(epochs=2, seed=3),
            precomputed=tensors,
        )
        b = train_detector(
            splits.train[:16],
            train_config=TrainConfig(epochs=2, seed=3),
            precomputed=tensors,
        )
        assert np.array_equal(a.model.w1, b.model.w1)


class TestBatchedInference:
    @pytest.fixture(scope="class")
    def model_and_frames(self, small_dataset):
        splits = small_dataset.split(seed=0)
        result = train_detector(
            splits.train[:32],
            model_config=ModelConfig(hidden=32),
            train_config=TrainConfig(epochs=3, seed=1),
        )
        frames = [image.render() for image in splits.test[:8]]
        return result.model, frames

    def test_predict_cells_batch_matches_per_image(self, model_and_frames):
        """Row *i* of a batch equals the one-image batch of frame *i*,
        at either tier."""
        model, frames = model_and_frames
        for precision in PRECISIONS:
            batch_scores, batch_boxes = model.predict_cells_batch(
                frames, precision=precision
            )
            assert batch_scores.shape[0] == len(frames)
            for index, frame in enumerate(frames):
                scores, boxes = model.predict_cells_batch(
                    [frame], precision=precision
                )
                assert np.array_equal(batch_scores[index], scores[0])
                assert np.array_equal(batch_boxes[index], boxes[0])

    def test_detect_batch_matches_per_image(self, model_and_frames):
        model, frames = model_and_frames
        batched = model.detect_batch(frames, conf_threshold=0.3)
        assert len(batched) == len(frames)
        for frame, detections in zip(frames, batched):
            [expected] = model.detect_batch([frame], conf_threshold=0.3)
            assert len(detections) == len(expected)
            for got, want in zip(detections, expected):
                assert got.indicator == want.indicator
                assert got.score == want.score
                assert np.array_equal(got.box, want.box)

    def test_one_inference_path(self):
        """Batch forward, decode and peaks are the whole inference
        surface; the tier is the caller's choice, not an option."""
        import repro.detect

        for name in (
            "predict_cells_batch",
            "detect_batch",
            "detect",
            "decode_cells",
            "indicator_scores",
        ):
            assert callable(getattr(NanoDetector, name))
        for retired in (
            "predict_cells",
            "predict",
            "detect_with_scores",
            "detect_batch_with_scores",
            "predict_cells_from_features",
        ):
            assert not hasattr(NanoDetector, retired)
        for retired in ("predict_images", "iter_predictions", "FEATURE_PRECISIONS"):
            assert not hasattr(repro.detect, retired)

    def test_empty_batch_has_batched_shape(self, model_and_frames):
        model, _ = model_and_frames
        scores, boxes = model.predict_cells_batch([])
        assert scores.shape[0] == 0 and boxes.shape[0] == 0
        assert model.detect_batch([]) == []


class TestChunkingInvariance:
    """Training tensors must not depend on how extraction was split up."""

    def test_tensors_identical_across_chunk_sizes(self, small_dataset):
        images = small_dataset.split(seed=0).train[:10]
        reference = build_training_tensors(images, 16, chunk_size=len(images))
        for chunk_size in (1, 3, 4):
            chunked = build_training_tensors(images, 16, chunk_size=chunk_size)
            for got, want in zip(chunked, reference):
                assert np.array_equal(got, want)

    def test_tensors_identical_with_process_workers(self, small_dataset):
        images = small_dataset.split(seed=0).train[:8]
        serial = build_training_tensors(images, 16, workers=1)
        parallel = build_training_tensors(images, 16, workers=2, chunk_size=2)
        for got, want in zip(parallel, serial):
            assert np.array_equal(got, want)

    def test_thread_workers_train_and_evaluate_like_serial(
        self, small_dataset
    ):
        """A thread pool changes neither the weights nor the metrics."""
        splits = small_dataset.split(seed=0)

        def train_and_eval(workers):
            result = train_detector(
                splits.train[:16],
                model_config=ModelConfig(hidden=32),
                train_config=TrainConfig(epochs=2, seed=0),
                workers=workers,
            )
            report = evaluate_detector(
                result.model, splits.test[:8], workers=workers
            )
            return result, report

        serial, serial_report = train_and_eval(1)
        parallel, parallel_report = train_and_eval(4)
        assert model_fingerprint(parallel.model) == model_fingerprint(
            serial.model
        )
        assert parallel.loss_history == serial.loss_history
        # repr compares exactly and treats an absent class's NaN
        # metrics as equal.
        assert repr(parallel_report.rows()) == repr(serial_report.rows())

    def test_training_invariant_to_chunking(self, small_dataset):
        images = small_dataset.split(seed=0).train[:16]
        config = TrainConfig(epochs=2, seed=3)
        fine = train_detector(
            images,
            train_config=config,
            precomputed=build_training_tensors(images, 16, chunk_size=2),
        )
        coarse = train_detector(
            images,
            train_config=config,
            precomputed=build_training_tensors(images, 16, chunk_size=16),
        )
        assert np.array_equal(fine.model.w1, coarse.model.w1)
        assert np.array_equal(fine.model.w2, coarse.model.w2)
        assert np.array_equal(fine.model.b1, coarse.model.b1)
        assert np.array_equal(fine.model.b2, coarse.model.b2)


class TestPersistence:
    def test_save_load_round_trip(self, small_dataset, tmp_path):
        splits = small_dataset.split(seed=0)
        result = train_detector(
            splits.train[:16],
            model_config=ModelConfig(hidden=32),
            train_config=TrainConfig(epochs=1, seed=0),
        )
        path = tmp_path / "model.json"
        result.model.save(path)
        loaded = NanoDetector.load(path)
        image = splits.test[0].render()
        original = result.model.detect(image)
        recovered = loaded.detect(image)
        assert len(original) == len(recovered)
        for a, b in zip(original, recovered):
            assert a.indicator == b.indicator
            assert a.score == pytest.approx(b.score)

    @pytest.fixture(scope="class")
    def sized_model(self, small_dataset):
        return train_detector(
            small_dataset.split(seed=0).train[:16],
            model_config=ModelConfig(hidden=32),
            train_config=TrainConfig(epochs=1, seed=0),
        ).model

    def test_input_size_round_trips(self, sized_model, tmp_path):
        assert sized_model.input_size == 256
        payload = sized_model.to_dict()
        assert payload["input_size"] == 256
        assert NanoDetector.from_dict(payload).input_size == 256
        path = tmp_path / "model.json"
        sized_model.save(path)
        assert NanoDetector.load(path).input_size == 256

    def test_legacy_payload_has_no_input_size(self, sized_model):
        payload = sized_model.to_dict()
        del payload["input_size"]
        legacy = NanoDetector.from_dict(payload)
        assert legacy.input_size is None
        # Construction validates the detector before any tier runs.
        with pytest.raises(ValueError, match="retrain"):
            CascadeClassifier(
                detector=legacy, calibration=None, scout=None, ensemble=None
            )

    def test_model_saved_with_retired_nms_iou_key_predicts_as_before(self):
        assert "nms_iou" in json.loads(RETIRED_KEY_MODEL.read_text())["config"]
        model = NanoDetector.load(RETIRED_KEY_MODEL)
        assert model.config == ModelConfig(grid=4, hidden=8)
        assert model.input_size == 64
        expected = json.loads(RETIRED_KEY_EXPECTED.read_text())
        rng = np.random.default_rng(expected["image_seed"])
        image = (rng.uniform(size=(64, 64, 3)) * 255).astype(np.uint8)
        [detections] = model.detect_batch([image])
        scores, _ = model.predict_cells_batch([image])
        [peaks] = model.indicator_scores(scores)
        assert peaks.tolist() == pytest.approx(expected["peaks"], abs=1e-12)
        assert [d.indicator.value for d in detections] == [
            want["indicator"] for want in expected["detections"]
        ]
        for got, want in zip(detections, expected["detections"]):
            assert got.score == pytest.approx(want["score"], abs=1e-12)
            assert got.box.tolist() == pytest.approx(want["box"], abs=1e-12)

    def test_model_saved_with_retired_nms_iou_key_evaluates_as_before(self):
        """The frozen model's Table I report (exact) and its float32
        tier-0 peaks (1e-12) on a fixed 64-px split."""
        model = NanoDetector.load(RETIRED_KEY_MODEL)
        expected = json.loads(RETIRED_KEY_EXPECTED.read_text())
        images = build_survey_dataset(**expected["evaluation_split"]).images
        report = evaluate_detector(model, images)
        got = {
            indicator.value: {
                "precision": metrics.precision,
                "recall": metrics.recall,
                "f1": metrics.f1,
                "ap50": metrics.ap50,
                "n_ground_truth": metrics.n_ground_truth,
            }
            for indicator, metrics in report.per_class.items()
        }
        # JSON carries an absent class's NaN metrics as null.
        assert json.loads(json.dumps(got).replace("NaN", "null")) == (
            expected["evaluation"]
        )
        scores, _ = model.predict_cells_batch(
            [image.render() for image in images], precision="float32"
        )
        peaks = model.indicator_scores(scores)
        assert peaks.shape == (len(images), len(ALL_INDICATORS))
        for got_row, want_row in zip(peaks.tolist(), expected["float32_peaks"]):
            assert got_row == pytest.approx(want_row, abs=1e-12)

    def test_unknown_config_key_is_a_value_error_naming_it(self, sized_model):
        payload = sized_model.to_dict()
        payload["config"]["anchor_count"] = 3
        with pytest.raises(ValueError, match="anchor_count"):
            NanoDetector.from_dict(payload)

    def test_untrained_model_raises(self):
        model = NanoDetector()
        with pytest.raises(RuntimeError):
            model.detect(np.zeros((64, 64, 3), dtype=np.uint8))


class TestEmptyInputGuards:
    """Satellite: empty image lists fail fast with a clear message,
    not an opaque ``np.stack([])`` ValueError."""

    def test_build_training_tensors_rejects_empty_list(self):
        with pytest.raises(ValueError, match="empty image list"):
            build_training_tensors([], 16)

    @pytest.mark.parametrize("chunk_size", [1, 4, 8])
    def test_empty_list_rejected_at_any_chunk_size(self, chunk_size):
        # The empty check must not depend on how chunking would have
        # split the (nonexistent) work.
        with pytest.raises(ValueError, match="empty image list"):
            build_training_tensors([], 16, chunk_size=chunk_size)

    def test_invalid_chunk_size_reported_first(self):
        # Both inputs are bad: the chunk_size diagnostic wins so the
        # caller fixes the config error before the data error.
        with pytest.raises(ValueError, match="chunk_size"):
            build_training_tensors([], 16, chunk_size=0)

    def test_train_detector_rejects_no_images(self):
        with pytest.raises(ValueError, match="no training images"):
            train_detector([])

    def test_train_detector_rejects_empty_precomputed(self):
        empty = (
            np.zeros((0, 256, 34)),
            np.zeros((0, 256, 5)),
            np.zeros((0, 256, 5, 4)),
        )
        with pytest.raises(ValueError, match="no images"):
            train_detector([], precomputed=empty)
