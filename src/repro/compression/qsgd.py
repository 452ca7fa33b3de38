"""QSGD: stochastic uniform quantization (Alistarh et al., NeurIPS 2017).

An element ``v_j`` is quantized to one of ``s + 1`` levels of ``|v_j|/||v||``
with stochastic rounding, keeping the estimator unbiased.  The payload
carries the norm, the sign bits, and the level integers
(``ceil(log2(s + 1))`` bits each).  Listed in the paper's related work
(Section 2, "Quantization") and included here as an extension baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.comm.bits import PackedBits
from repro.compression.base import Compressor, Payload, as_vector

__all__ = ["QSGDCompressor", "QSGDPayload"]


@dataclass(frozen=True)
class QSGDPayload(Payload):
    """norm + signs + per-element quantization levels."""

    norm: float
    bits: PackedBits
    levels: np.ndarray
    num_levels: int

    @property
    def nbytes(self) -> int:
        level_bits = max(1, math.ceil(math.log2(self.num_levels + 1)))
        return 4 + self.bits.nbytes + (level_bits * int(self.levels.size) + 7) // 8

    def decode(self) -> np.ndarray:
        signs = self.bits.to_signs()
        return self.norm * signs * self.levels.astype(np.float64) / self.num_levels


class QSGDCompressor(Compressor):
    """Unbiased ``s``-level stochastic quantizer."""

    name = "qsgd"
    unbiased = True

    def __init__(self, num_levels: int = 4) -> None:
        if num_levels < 1:
            raise ValueError("num_levels must be >= 1")
        self.num_levels = num_levels

    def compress(
        self, vector: np.ndarray, rng: np.random.Generator | None = None
    ) -> Payload:
        if rng is None:
            raise ValueError("QSGDCompressor is stochastic; pass an rng")
        vector = as_vector(vector)
        norm = float(np.linalg.norm(vector))
        if norm == 0.0:
            levels = np.zeros(vector.shape, dtype=np.int64)
            signs = np.ones(vector.shape)
        else:
            scaled = np.abs(vector) / norm * self.num_levels
            lower = np.floor(scaled)
            prob_up = scaled - lower
            levels = (lower + (rng.random(vector.shape) < prob_up)).astype(np.int64)
            signs = np.where(vector >= 0, 1.0, -1.0)
        return QSGDPayload(
            norm=norm,
            bits=PackedBits.from_signs(signs),
            levels=levels,
            num_levels=self.num_levels,
        )

    def nominal_bits_per_element(self) -> float:
        return 1.0 + max(1, math.ceil(math.log2(self.num_levels + 1)))
