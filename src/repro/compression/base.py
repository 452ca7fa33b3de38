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

__all__ = [
    "Compressor",
    "DensePayload",
    "Payload",
    "ScaledSignPayload",
    "SignPayload",
    "as_vector",
]


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
class DensePayload(Payload):
    """Uncompressed values; 4 bytes per element (FP32 on the wire)."""

    values: np.ndarray

    @property
    def nbytes(self) -> int:
        return 4 * int(self.values.size)

    def decode(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64).copy()


@dataclass(frozen=True)
class SignPayload(Payload):
    """Pure sign bits (:class:`PackedBits`); decodes to ``{-1, +1}``."""

    bits: PackedBits

    @property
    def nbytes(self) -> int:
        return self.bits.nbytes

    def decode(self) -> np.ndarray:
        return self.bits.to_signs()


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
    """Stateless-by-default gradient compressor.

    Subclasses that keep per-worker state (error feedback, PowerSGD warm
    starts) document it and expose a ``reset()``.
    """

    #: short identifier used in reports and plots
    name: str = "base"
    #: whether E[decode(compress(v))] == v
    unbiased: bool = False

    @abc.abstractmethod
    def compress(
        self, vector: np.ndarray, rng: np.random.Generator | None = None
    ) -> Payload:
        """Encode ``vector``; stochastic schemes draw from ``rng``."""

    def decompress(self, payload: Payload) -> np.ndarray:
        """Decode a payload produced by this compressor."""
        return payload.decode()

    def nominal_bits_per_element(self) -> float:
        """Bits per element of the main payload, ignoring O(1) headers."""
        return 32.0

    def reset(self) -> None:
        """Clear any per-worker state; default is stateless no-op."""
