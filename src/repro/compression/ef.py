"""EF-signSGD: error-feedback sign compression (Karimireddy et al., 2019).

Each worker keeps a residual memory ``e``.  At every round it compresses the
corrected gradient ``p = e + g`` to the *scaled* sign
``delta = (||p||_1 / d) * sign(p)`` — the scaling makes the compressor a
contraction — and carries the leftover ``e <- p - delta`` into the next
round.  Error feedback is what "fixes" the bias of plain signSGD at the cost
of per-worker state; Marsit's *global* compensation plays the analogous role
without requiring workers to know their individual contribution to the
multi-hop aggregate (paper Section 4.1.3).
"""

from __future__ import annotations

import numpy as np

from repro.comm.bits import PackedBits
from repro.compression.base import Compressor, Payload, ScaledSignPayload, as_vector
from repro.core.local import ErrorFeedback

__all__ = ["EFSignCompressor"]


class EFSignCompressor(Compressor):
    """Stateful scaled-sign compressor with local error feedback.

    One instance per worker, holding a one-row
    :class:`~repro.core.local.ErrorFeedback`; :meth:`compress` mutates the
    residual memory.
    """

    def __init__(self) -> None:
        self._feedback = ErrorFeedback(1)

    @property
    def memory(self) -> np.ndarray | None:
        """The current residual (read-only view for tests/diagnostics)."""
        residual = self._feedback.residual
        return None if residual is None else residual[0].copy()

    def compress(
        self, vector: np.ndarray, rng: np.random.Generator | None = None
    ) -> Payload:
        vector = as_vector(vector)
        signs = np.empty(vector.size)
        scale = self._feedback.scaled_sign(0, vector, signs)
        return ScaledSignPayload(bits=PackedBits.from_signs(signs), scale=scale)
