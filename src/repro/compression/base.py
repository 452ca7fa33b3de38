"""Compressor and payload abstractions.

A :class:`Compressor` turns a gradient vector into a :class:`Payload`; the
payload is what travels over the simulated wire, so its ``nbytes`` determines
communication cost and its :meth:`Payload.decode` recovers (an estimate of)
the original vector.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.comm.bits import PackedBits

__all__ = ["Compressor", "Payload", "ScaledSignPayload", "as_vector"]


def as_vector(values: np.ndarray) -> np.ndarray:
    """Validate and convert input to a 1-D float64 array."""
    vector = np.asarray(values, dtype=np.float64)
    if vector.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {vector.shape}")
    if not np.isfinite(vector).all():
        raise ValueError("vector contains non-finite values")
    return vector


class Payload(abc.ABC):
    """An encoded gradient as it appears on the wire."""

    @property
    @abc.abstractmethod
    def nbytes(self) -> int:
        """Wire size in bytes."""

    @abc.abstractmethod
    def decode(self) -> np.ndarray:
        """Reconstruct the (lossy) float vector."""


@dataclass(frozen=True)
class ScaledSignPayload(Payload):
    """Sign bits plus one float scale; decodes to ``scale * signs``.

    Used by SSDM (scale = l2 norm) and EF-signSGD (scale = mean |.|).
    """

    bits: PackedBits
    scale: float

    @property
    def nbytes(self) -> int:
        return self.bits.nbytes + 4

    def decode(self) -> np.ndarray:
        return self.scale * self.bits.to_signs()


class Compressor(abc.ABC):
    """Gradient compressor; stateless unless a subclass documents state
    (EF-signSGD's per-worker residual memory)."""

    @abc.abstractmethod
    def compress(
        self, vector: np.ndarray, rng: np.random.Generator | None = None
    ) -> Payload:
        """Encode ``vector``; stochastic schemes draw from ``rng``."""
