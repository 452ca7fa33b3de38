"""Deterministic scaled sign and signSGD's majority-vote aggregation.

signSGD (Bernstein et al., ICML 2018) transmits ``sign(g)`` — one bit per
element — and, in its fault-tolerant variant, the server aggregates worker
signs by **majority vote**: the global direction for coordinate ``j`` is the
sign most workers voted for.  The vote is biased (it is not an unbiased
estimate of the mean gradient), which is exactly the gap Marsit's stochastic
``sign-merge`` operator closes.
"""

from __future__ import annotations

import numpy as np

from repro.comm.bits import PackedBits
from repro.compression.base import Compressor, Payload, ScaledSignPayload, as_vector

__all__ = ["MeanAbsSignCompressor", "majority_vote"]


class MeanAbsSignCompressor(Compressor):
    """Deterministic scaled sign: ``(||v||_1 / D) * sgn(v)``.

    The workhorse "1-bit" compressor of practical systems (1-bit SGD,
    EF-signSGD's contraction): biased but norm-controlled, so its per-hop
    recovery has the same per-coordinate magnitude as a real gradient.  This
    is the compressor the Table 1 cascading bench uses — the literal
    stochastic-l2 SSDM operator retains only O(1/sqrt(D)) directional signal
    per compression, which cannot reproduce the paper's observed
    converges-at-M=3 / diverges-at-M=8 contrast at any realistic D (see
    EXPERIMENTS.md).
    """

    def compress(
        self, vector: np.ndarray, rng: np.random.Generator | None = None
    ) -> Payload:
        vector = as_vector(vector)
        scale = float(np.abs(vector).mean()) if vector.size else 0.0
        signs = np.where(vector >= 0, 1.0, -1.0)
        return ScaledSignPayload(bits=PackedBits.from_signs(signs), scale=scale)


def majority_vote(sign_vectors: list[np.ndarray]) -> np.ndarray:
    """Aggregate worker signs by majority; ties break to +1.

    Args:
        sign_vectors: per-worker ``{-1, +1}`` vectors of equal length.

    Returns:
        The coordinate-wise majority sign in ``{-1, +1}``.
    """
    if not sign_vectors:
        raise ValueError("majority_vote needs at least one vector")
    stacked = np.stack([as_vector(v) for v in sign_vectors])
    if not np.isin(stacked, (-1.0, 1.0)).all():
        raise ValueError("majority_vote expects vectors over {-1, +1}")
    totals = stacked.sum(axis=0)
    return np.where(totals >= 0, 1.0, -1.0)
