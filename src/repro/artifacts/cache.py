"""Content-addressed artifact store for the experiment suite.

The suite's expensive intermediates — per-image feature/target
tensors, trained detector weights, per-image detector predictions —
are pure functions of describable inputs: a scene fingerprint plus
the configuration that shaped the computation.  :class:`ArtifactCache`
persists each one under a SHA-256 key of exactly those inputs, so a
second ``experiments run-all`` (or the Fig. 2 augmentation sweep,
which re-extracts features for the same base images three times)
replays from disk instead of recomputing.

Key scheme (see DESIGN.md §9):

* ``fingerprint(payload)`` — SHA-256 over the canonical (sorted-key)
  JSON of a plain-data payload; every cache key bottoms out here.
* :func:`image_fingerprint` — extends PR 2's
  :func:`~repro.scene.render.scene_fingerprint` with everything else
  that reaches a labeled image's pixels and training targets: raster
  size, the lazy ``render_ops`` pipeline, annotations, and occupancy
  overrides.  Two images with equal fingerprints render and supervise
  identically.
* :func:`model_fingerprint` — config, input size, and the raw
  little-endian bytes of every weight tensor; byte-identical models
  trained at the same image size hash identically.
* :func:`tensors_fingerprint` — shape + bytes of a training-tensor
  triple, used to key trained weights on *what the trainer saw*.

Storage is one file per artifact (``.npz`` for arrays, ``.json`` for
structured payloads) under ``root/<kind>/<key[:2]>/<key>``, written
atomically (temp file + rename) so a crashed run never leaves a
corrupt entry; unreadable entries are dropped and treated as misses.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import threading
from pathlib import Path
from typing import Any

import numpy as np

from ..obs.metrics import get_metrics

__all__ = [
    "ArtifactCache",
    "fingerprint",
    "image_fingerprint",
    "model_fingerprint",
    "tensors_fingerprint",
]


def fingerprint(payload: Any) -> str:
    """SHA-256 of the canonical JSON encoding of ``payload``."""
    encoded = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=_jsonify
    ).encode()
    return hashlib.sha256(encoded).hexdigest()


def _jsonify(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    raise TypeError(f"not fingerprintable: {type(value).__name__}")


def image_fingerprint(image) -> str:
    """Content hash of a :class:`~repro.gsv.dataset.LabeledImage`.

    Covers the scene fingerprint (drawable content + raster size),
    the lazy render-op pipeline, the annotation list, and any
    occupancy overrides — everything that influences both the pixels
    and the training targets derived from them.
    """
    from ..scene.render import scene_fingerprint

    return fingerprint(
        {
            "scene": scene_fingerprint(image.scene, image.size),
            "size": image.size,
            "render_ops": repr(image.render_ops),
            "annotations": [
                (ind.value, box.x_min, box.y_min, box.x_max, box.y_max)
                for ind, box in image.annotations
            ],
            "occupancy": repr(image.occupancy),
        }
    )


def model_fingerprint(model) -> str:
    """Content hash of a trained detector: config, input size, weights."""
    hasher = hashlib.sha256()
    config = model.config
    hasher.update(
        repr(
            (
                config.grid,
                config.hidden,
                config.conf_threshold,
                config.smooth_features,
                config.context_features,
            )
        ).encode()
    )
    hasher.update(f"input_size={model.input_size}".encode())
    for name in ("w1", "b1", "w2", "b2", "feat_mean", "feat_std"):
        tensor = getattr(model, name)
        if tensor is None:
            raise ValueError(f"cannot fingerprint untrained model: {name} unset")
        array = np.ascontiguousarray(tensor, dtype=np.float64)
        hasher.update(name.encode())
        hasher.update(repr(array.shape).encode())
        hasher.update(array.tobytes())
    return hasher.hexdigest()


def tensors_fingerprint(
    features: np.ndarray, obj_targets: np.ndarray, box_targets: np.ndarray
) -> str:
    """Content hash of a training-tensor triple (shapes + bytes)."""
    hasher = hashlib.sha256()
    for name, array in (
        ("features", features),
        ("obj", obj_targets),
        ("box", box_targets),
    ):
        contiguous = np.ascontiguousarray(array, dtype=np.float64)
        hasher.update(name.encode())
        hasher.update(repr(contiguous.shape).encode())
        hasher.update(contiguous.tobytes())
    return hasher.hexdigest()


class ArtifactCache:
    """Disk-backed content-addressed store with hit/miss accounting.

    Artifacts are grouped by ``kind`` (``"tensors"``, ``"models"``,
    ``"predictions"``, ...) purely for introspection — keys are
    already collision-free.  All methods are thread-safe; concurrent
    writers of the same key race benignly (last rename wins, both
    wrote identical content by construction).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._hits: dict[str, int] = {}
        self._misses: dict[str, int] = {}

    # ------------------------------------------------------------------
    # accounting

    @property
    def hits(self) -> int:
        with self._lock:
            return sum(self._hits.values())

    @property
    def misses(self) -> int:
        with self._lock:
            return sum(self._misses.values())

    def stats(self) -> dict:
        """Hit/miss counts, overall and per kind."""
        with self._lock:
            kinds = sorted(set(self._hits) | set(self._misses))
            return {
                "hits": sum(self._hits.values()),
                "misses": sum(self._misses.values()),
                "by_kind": {
                    kind: {
                        "hits": self._hits.get(kind, 0),
                        "misses": self._misses.get(kind, 0),
                    }
                    for kind in kinds
                },
            }

    def _record(self, kind: str, hit: bool) -> None:
        with self._lock:
            counter = self._hits if hit else self._misses
            counter[kind] = counter.get(kind, 0) + 1
        get_metrics().inc(
            "artifacts.hits" if hit else "artifacts.misses"
        )

    # ------------------------------------------------------------------
    # storage

    def _path(self, kind: str, key: str, suffix: str) -> Path:
        if not key or any(ch not in "0123456789abcdef" for ch in key):
            raise ValueError(f"key must be a hex digest: {key!r}")
        return self.root / kind / key[:2] / f"{key}{suffix}"

    def __len__(self) -> int:
        return sum(
            1
            for path in self.root.rglob("*")
            if path.is_file() and path.suffix in (".npz", ".json")
        )

    def clear(self) -> None:
        """Drop every stored artifact and reset the counters."""
        for path in sorted(
            self.root.rglob("*"), key=lambda p: len(p.parts), reverse=True
        ):
            if path.is_file():
                path.unlink()
            elif path.is_dir():
                try:
                    path.rmdir()
                except OSError:  # pragma: no cover - non-empty race
                    pass
        with self._lock:
            self._hits.clear()
            self._misses.clear()

    def _write_atomic(self, path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
        tmp.write_bytes(data)
        tmp.replace(path)

    # ------------------------------------------------------------------
    # arrays

    def put_arrays(self, kind: str, key: str, **arrays: np.ndarray) -> None:
        """Store named arrays under ``key`` (compressed, atomic)."""
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        self._write_atomic(self._path(kind, key, ".npz"), buffer.getvalue())

    def get_arrays(self, kind: str, key: str) -> dict[str, np.ndarray] | None:
        """The stored arrays, or ``None`` on a miss (corrupt = miss)."""
        path = self._path(kind, key, ".npz")
        try:
            with np.load(path) as archive:
                payload = {name: archive[name] for name in archive.files}
        except FileNotFoundError:
            self._record(kind, hit=False)
            return None
        except (OSError, ValueError, KeyError):
            # A truncated or corrupt entry: drop it and recompute.
            path.unlink(missing_ok=True)
            self._record(kind, hit=False)
            return None
        self._record(kind, hit=True)
        return payload

    # ------------------------------------------------------------------
    # json

    def put_json(self, kind: str, key: str, payload: Any) -> None:
        """Store a JSON-encodable payload under ``key`` (atomic)."""
        data = json.dumps(payload, sort_keys=True).encode()
        self._write_atomic(self._path(kind, key, ".json"), data)

    def get_json(self, kind: str, key: str) -> Any | None:
        """The stored payload, or ``None`` on a miss (corrupt = miss)."""
        path = self._path(kind, key, ".json")
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            self._record(kind, hit=False)
            return None
        except (OSError, ValueError):
            path.unlink(missing_ok=True)
            self._record(kind, hit=False)
            return None
        self._record(kind, hit=True)
        return payload
