"""Gradient compressors that the benches and schemes run.

Every compressor maps a 1-D float vector to a :class:`Payload` that knows its
wire size in bytes and can decode back to a float vector.  Schemes:

- :class:`SSDMCompressor` — stochastic sign with ``1/2 + v_j / (2 ||v||)``
  flip probability (Safaryan & Richtarik), the unbiased compressor whose
  cascading use Section 3.2 dissects; :func:`stochastic_sign` is its draw.
- :class:`EFSignCompressor` — error-feedback signSGD (Karimireddy et al.),
  scaled sign plus per-worker residual memory.
- :class:`MeanAbsSignCompressor` — deterministic ``mean|v| * sign(v)``, the
  norm-controlled sign the Table 1 cascading bench uses.
- :class:`TopKCompressor` — top-k sparsification, a related-work baseline
  (Section 2).
- :func:`majority_vote` — the signSGD-with-majority-vote aggregation rule.

PowerSGD runs as a synchronization scheme only
(:class:`repro.train.strategies.PowerSGDStrategy`).
"""

from repro.compression.base import Compressor, Payload, ScaledSignPayload
from repro.compression.ef import EFSignCompressor
from repro.compression.signsgd import MeanAbsSignCompressor, majority_vote
from repro.compression.ssdm import (
    BlockScaledSignPayload,
    SSDMCompressor,
    stochastic_sign,
)
from repro.compression.topk import TopKCompressor, TopKPayload

__all__ = [
    "BlockScaledSignPayload",
    "Compressor",
    "EFSignCompressor",
    "MeanAbsSignCompressor",
    "Payload",
    "SSDMCompressor",
    "ScaledSignPayload",
    "TopKCompressor",
    "TopKPayload",
    "majority_vote",
    "stochastic_sign",
]
