"""Marsit: the paper's primary contribution.

- :mod:`repro.core.sign_ops` — the bit-wise merge operator ``v ⊙ v*``
  of Eq. (2): unbiased one-bit aggregation without decompression.
- :mod:`repro.core.marsit` — Algorithm 1: one-bit multi-hop synchronization
  with global compensation and periodic full-precision rounds, over ring
  (RAR) and 2D-torus (TAR) schedules.
- :mod:`repro.core.optimizer` — Algorithm 2 (Marsit-driven SGD) plus the
  Momentum and Adam variants the experiments use.
- :mod:`repro.core.local` — the in-place per-worker state (base optimizer,
  error-feedback residual) that Marsit and every baseline share.
"""

from repro.core.marsit import MarsitConfig, MarsitState, MarsitSynchronizer
from repro.core.optimizer import MarsitAdam, MarsitMomentum, MarsitSGD
from repro.core.sign_ops import (
    expected_merge_probability,
    merge_sign_bits,
    merge_sign_bits_batch,
    merge_sign_bits_packed,
    transient_vector,
    transient_vector_batch,
    transient_vector_packed,
)

__all__ = [
    "MarsitAdam",
    "MarsitConfig",
    "MarsitMomentum",
    "MarsitSGD",
    "MarsitState",
    "MarsitSynchronizer",
    "expected_merge_probability",
    "merge_sign_bits",
    "merge_sign_bits_batch",
    "merge_sign_bits_packed",
    "transient_vector",
    "transient_vector_batch",
    "transient_vector_packed",
]
