"""Name-keyed reusable tensor buffers for the detector hot paths.

The detector's hot loops allocate the same scratch tensors over and
over: the float64 feature kernel works in about 17 scratch planes per
input image (9.1 MiB at 256²), and the SGD loop
gathers/standardizes/activates the same batch-shaped tensors
thousands of times per training run.  Allocating those afresh each
iteration costs both allocator time and cache locality; a
:class:`TensorArena` hands the same buffer back every time a call site
asks for the same ``(name, shape, dtype)``.

Buffers are keyed by name *and* shape/dtype, so a loop that alternates
between a full batch and a ragged tail batch keeps both buffers live
instead of thrashing one allocation.  Contents are never zeroed on
reuse — callers own initialization — which is exactly the contract of
``np.empty``.  Arenas are cheap to create and not thread-safe; give
each worker its own.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TensorArena"]


class TensorArena:
    """A pool of reusable scratch ndarrays keyed by name + shape + dtype."""

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}

    def take(
        self,
        name: str,
        shape: tuple[int, ...] | int,
        dtype=np.float64,
    ) -> np.ndarray:
        """Return the reusable buffer for ``name`` at this shape/dtype.

        The buffer's contents are whatever the previous user left there
        (``np.empty`` semantics) — initialize before reading.
        """
        if isinstance(shape, int):
            shape = (shape,)
        shape = tuple(int(dim) for dim in shape)
        key = (name, shape, np.dtype(dtype).str)
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = np.empty(shape, dtype=dtype)
            self._buffers[key] = buffer
        return buffer

    def zeros(
        self,
        name: str,
        shape: tuple[int, ...] | int,
        dtype=np.float64,
    ) -> np.ndarray:
        """Like :meth:`take` but zero-filled on every call."""
        buffer = self.take(name, shape, dtype)
        buffer.fill(0)
        return buffer

    @property
    def nbytes(self) -> int:
        """Total bytes currently held across all buffers."""
        return sum(buffer.nbytes for buffer in self._buffers.values())

    def __len__(self) -> int:
        return len(self._buffers)

    def clear(self) -> None:
        """Drop every buffer (the memory is freed once callers let go)."""
        self._buffers.clear()
