"""Tests for the content-addressed artifact cache and its key scheme."""

from __future__ import annotations

import numpy as np
import pytest

from repro.artifacts import (
    ArtifactCache,
    fingerprint,
    image_fingerprint,
    model_fingerprint,
    tensors_fingerprint,
)
from repro.detect.model import ModelConfig, NanoDetector
from repro.detect.train import (
    TrainConfig,
    _weights_key,
    build_training_tensors,
    train_detector,
)
from repro.gsv.dataset import build_survey_dataset


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(tmp_path / "artifacts")


@pytest.fixture(scope="module")
def images():
    return build_survey_dataset(n_images=8, size=128, seed=11)


class TestFingerprints:
    def test_fingerprint_is_order_insensitive(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_fingerprint_handles_numpy_scalars_and_arrays(self):
        assert fingerprint({"x": np.float64(0.5)}) == fingerprint({"x": 0.5})
        assert fingerprint({"x": np.array([1, 2])}) == fingerprint({"x": [1, 2]})

    def test_fingerprint_rejects_opaque_objects(self):
        with pytest.raises(TypeError):
            fingerprint({"x": object()})

    def test_image_fingerprint_stable_and_distinct(self, images):
        assert image_fingerprint(images[0]) == image_fingerprint(images[0])
        distinct = {image_fingerprint(image) for image in images}
        assert len(distinct) == len(images)

    def test_tensors_fingerprint_sensitive_to_bytes(self):
        features = np.zeros((2, 4, 3))
        obj = np.zeros((2, 4, 6))
        box = np.zeros((2, 4, 6, 4))
        base = tensors_fingerprint(features, obj, box)
        assert base == tensors_fingerprint(features, obj, box)
        bumped = features.copy()
        bumped[0, 0, 0] = 1e-12
        assert tensors_fingerprint(bumped, obj, box) != base

    def test_model_fingerprint_tracks_weights(self, images):
        result = train_detector(
            images,
            model_config=ModelConfig(grid=4, hidden=8),
            train_config=TrainConfig(epochs=1, seed=5),
        )
        model = result.model
        base = model_fingerprint(model)
        assert base == model_fingerprint(model)
        model.w1[0, 0] += 1.0
        assert model_fingerprint(model) != base

    def test_model_fingerprint_tracks_input_size(self, images):
        model = train_detector(
            images,
            model_config=ModelConfig(grid=4, hidden=8),
            train_config=TrainConfig(epochs=1, seed=5),
        ).model
        assert model.input_size == 128
        base = model_fingerprint(model)
        model.input_size = None
        assert model_fingerprint(model) != base

    def test_model_fingerprint_rejects_untrained(self):
        with pytest.raises(ValueError):
            model_fingerprint(NanoDetector(ModelConfig(grid=4, hidden=8)))


class TestArtifactCacheStorage:
    def test_arrays_round_trip_bitwise(self, cache):
        key = fingerprint({"probe": "arrays"})
        stored = np.linspace(0.0, 1.0, 31).reshape(1, 31)
        cache.put_arrays("tensors", key, features=stored)
        loaded = cache.get_arrays("tensors", key)
        assert loaded is not None
        assert loaded["features"].dtype == stored.dtype
        assert np.array_equal(loaded["features"], stored)

    def test_json_round_trip(self, cache):
        key = fingerprint({"probe": "json"})
        payload = {"loss": [0.5, 0.25], "note": "warm"}
        cache.put_json("models", key, payload)
        assert cache.get_json("models", key) == payload

    def test_miss_then_hit_accounting(self, cache):
        key = fingerprint({"probe": "stats"})
        assert cache.get_json("predictions", key) is None
        cache.put_json("predictions", key, [1, 2])
        assert cache.get_json("predictions", key) == [1, 2]
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["by_kind"]["predictions"] == {"hits": 1, "misses": 1}
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_is_dropped_and_counts_as_miss(self, cache):
        key = fingerprint({"probe": "corrupt"})
        cache.put_arrays("tensors", key, data=np.ones(3))
        path = cache._path("tensors", key, ".npz")
        path.write_bytes(b"not an npz archive")
        assert cache.get_arrays("tensors", key) is None
        assert not path.exists()
        cache.put_json("models", key, {"ok": True})
        cache._path("models", key, ".json").write_text("{truncated")
        assert cache.get_json("models", key) is None

    def test_rejects_non_hex_keys(self, cache):
        with pytest.raises(ValueError):
            cache.put_json("models", "../escape", {})

    def test_len_and_clear(self, cache):
        for index in range(3):
            cache.put_json("models", fingerprint({"i": index}), {"i": index})
        assert len(cache) == 3
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 0


class TestCachedPipeline:
    def test_training_tensor_cache_replays_bitwise(self, cache, images):
        first = build_training_tensors(images, grid=4, cache=cache)
        assert cache.misses == len(images) and cache.hits == 0
        second = build_training_tensors(images, grid=4, cache=cache)
        assert cache.hits == len(images)
        for got, want in zip(second, first):
            assert np.array_equal(got, want)

    def test_trained_weights_cache_replays_bitwise(self, cache, images):
        kwargs = dict(
            model_config=ModelConfig(grid=4, hidden=8),
            train_config=TrainConfig(epochs=2, seed=5),
            cache=cache,
        )
        cold = train_detector(images, **kwargs)
        warm = train_detector(images, **kwargs)
        assert cache.stats()["by_kind"]["models"]["hits"] == 1
        assert model_fingerprint(cold.model) == model_fingerprint(warm.model)
        assert warm.loss_history == pytest.approx(cold.loss_history)
        assert warm.model.input_size == cold.model.input_size == 128

    def test_weights_key_tracks_input_size(self, cache, images):
        model_config = ModelConfig(grid=4, hidden=8)
        train_config = TrainConfig(epochs=1, seed=5)
        tensors = build_training_tensors(images, grid=4)
        keys = {
            _weights_key(*tensors, model_config, train_config, size)
            for size in (None, 128, 256)
        }
        assert len(keys) == 3
        # The same tensors without images (no recorded size) miss the
        # sized entry instead of returning a model that claims a size.
        sized = train_detector(
            images,
            model_config=model_config,
            train_config=train_config,
            precomputed=tensors,
            cache=cache,
        )
        bare = train_detector(
            [],
            model_config=model_config,
            train_config=train_config,
            precomputed=tensors,
            cache=cache,
        )
        assert cache.stats()["by_kind"]["models"] == {"hits": 0, "misses": 2}
        assert (sized.model.input_size, bare.model.input_size) == (128, None)
