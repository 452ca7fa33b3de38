"""SSDM: the unbiased stochastic sign compressor (Safaryan & Richtarik).

An element ``v_j`` is encoded as ``+1`` with probability
``1/2 + v_j / (2 ||v||_2)`` and ``-1`` otherwise, so
``E[sign~(v_j)] = v_j / ||v||`` and ``Q(v) = ||v|| * sign~(v)`` is an
unbiased estimate of ``v`` (paper Appendix A).  The payload carries the sign
bits plus the scalar norm.

This is the compressor the paper plugs into *cascading compression*
(Section 3.2) and into the bit-length-expanding SSDM-under-MAR baseline
(Section 3.1); both of those pipelines live in :mod:`repro.allreduce`.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from repro.comm.bits import PackedBits
from repro.compression.base import Compressor, Payload, ScaledSignPayload, as_vector

__all__ = ["BlockScaledSignPayload", "SSDMCompressor", "stochastic_sign"]


def stochastic_sign(
    vector: np.ndarray, rng: np.random.Generator, block_size: int | None = None
) -> tuple[np.ndarray, float | np.ndarray]:
    """Draw SSDM stochastic signs (over ``{-1, +1}``) for ``vector``.

    Returns ``(signs, ||vector||_2)``; with ``block_size`` shorter than the
    vector, each block (the last zero-padded) flips by its own l2 norm and
    the second item is the per-block norms.  A zero vector or block draws
    fair coins, so its decoded estimate is exactly zero.
    """
    vector = as_vector(vector)
    if block_size is None or vector.size <= block_size:
        blocks, norms = vector, float(np.linalg.norm(vector))
        safe = norms or 1.0
    else:
        num_blocks = (vector.size + block_size - 1) // block_size
        padded = np.zeros(num_blocks * block_size)
        padded[: vector.size] = vector
        blocks = padded.reshape(num_blocks, block_size)
        norms = np.linalg.norm(blocks, axis=1)
        safe = np.where(norms == 0.0, 1.0, norms)[:, None]
    probs = np.divide(blocks, 2.0 * safe)
    probs += 0.5
    draws = rng.random(blocks.shape)
    # 2·[draw < p] − 1 is exactly np.where(draw < p, 1, -1), and faster;
    # the signs overwrite the draws, so no third vector is allocated.
    np.multiply(draws < probs, 2.0, out=draws)
    draws -= 1.0
    return draws.reshape(-1)[: vector.size], norms


@dataclass(frozen=True)
class BlockScaledSignPayload(Payload):
    """Sign bits plus one float scale per block of ``block_size`` elements."""

    bits: PackedBits
    scales: np.ndarray
    block_size: int

    @property
    def nbytes(self) -> int:
        return self.bits.nbytes + 4 * int(self.scales.size)

    def decode(self) -> np.ndarray:
        signs = self.bits.to_signs()
        repeated = np.repeat(self.scales, self.block_size)[: signs.size]
        return repeated * signs


class SSDMCompressor(Compressor):
    """Unbiased one-bit compressor: ``Q(v) = ||v|| * sign~(v)``.

    ``block_size=None`` (default) normalizes by the global l2 norm — the
    textbook SSDM operator used in the paper's Appendix A analysis.
    ``block_size=B`` compresses each B-element block with its own norm
    (one extra float per block), the standard per-block scaling practical
    sign-compression implementations use; it raises the per-coordinate
    signal from ``~1/sqrt(D)`` to ``~1/sqrt(B)``, which is what makes
    cascading compression converge *at all* at small M (Table 1) while still
    degrading with every extra hop.
    """

    def __init__(self, block_size: int | None = None) -> None:
        if block_size is not None and block_size < 1:
            raise ValueError("block_size must be >= 1 or None")
        self.block_size = block_size

    def compress(
        self, vector: np.ndarray, rng: np.random.Generator | None = None
    ) -> Payload:
        if rng is None:
            raise ValueError("SSDMCompressor is stochastic; pass an rng")
        signs, norms = stochastic_sign(vector, rng, self.block_size)
        if isinstance(norms, float):
            return ScaledSignPayload(bits=PackedBits.from_signs(signs), scale=norms)
        return BlockScaledSignPayload(
            bits=PackedBits.from_signs(signs),
            scales=norms,
            block_size=self.block_size,
        )
