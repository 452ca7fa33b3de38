"""Top-k sparsification (Wangni et al. / Guo et al., paper Section 2).

Keeps the ``k`` largest-magnitude coordinates; payload carries 4-byte indices
and FP32 values.  Biased unless paired with error feedback; under MAR the sum
of two top-k vectors is generally 2k-sparse, so sparsification does not keep
a fixed wire size across hops — the same structural obstacle the paper raises
for PowerSGD under RAR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.base import Compressor, Payload, as_vector

__all__ = ["TopKCompressor", "TopKPayload"]


@dataclass(frozen=True)
class TopKPayload(Payload):
    """Sparse vector: (indices, values, dimension)."""

    indices: np.ndarray
    values: np.ndarray
    dimension: int

    @property
    def nbytes(self) -> int:
        return 8 * int(self.indices.size)  # 4B index + 4B value per entry

    def decode(self) -> np.ndarray:
        dense = np.zeros(self.dimension)
        dense[self.indices] = self.values
        return dense


class TopKCompressor(Compressor):
    """Keep the ``k`` largest-|.| coordinates (ties broken by index)."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def compress(
        self, vector: np.ndarray, rng: np.random.Generator | None = None
    ) -> Payload:
        vector = as_vector(vector)
        k = min(self.k, vector.size)
        if k == 0:
            indices = np.array([], dtype=np.int64)
        else:
            indices = np.argpartition(np.abs(vector), -k)[-k:]
            indices = np.sort(indices)
        return TopKPayload(
            indices=indices, values=vector[indices], dimension=int(vector.size)
        )
