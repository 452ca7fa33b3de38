"""Wire codecs: what a sum schedule puts on the wire per hop.

Each topology has one sum schedule, parameterized by a codec that turns a
partial sum over ``contributors`` workers into a wire payload.
:class:`FloatCodec` is the full-precision baseline (PSGD): ``wire_dtype``
arrays, accumulated in that dtype.  :class:`SignSumCodec` is the
MAR-extended sign baselines (signSGD, EF, SSDM): ``int64`` sign sums charged
``ceil(log2(m + 1)) + 1`` bits per element over ``m`` contributors (Section
3.1's bit-length expansion), or the exact Elias-gamma size.  The FP mean is
formed in one place, :func:`mean_of`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence, Union

import numpy as np

from repro.comm.bits import elias_gamma_encode, signed_int_bit_width, zigzag_encode
from repro.comm.cluster import Cluster, SizedPayload
from repro.comm.timing import Phase

__all__ = [
    "SIGN_SUM",
    "FloatCodec",
    "SignSumCodec",
    "checked_signs",
    "mean_of",
    "signsum_collective",
]


class _Codec:
    """Shared codec steps.  A payload is the values cast to ``wire_dtype``
    unless the codec sizes it in ``encode``; ``dtype`` is the result dtype."""

    wire_dtype: np.dtype
    dtype: np.dtype

    def cast(self, values: Any) -> np.ndarray:
        return np.asarray(values, dtype=self.wire_dtype)

    def encode(self, values: Any, contributors: int) -> Any:
        return self.cast(values)

    def value(self, payload: Any) -> np.ndarray:
        return payload

    def combine(self, received: Any, local: Any, contributors: int) -> Any:
        """Add a received partial sum into a local one, re-encoded."""
        return self.encode(self.value(received) + self.value(local), contributors)

    def finish(self, payloads: Sequence[Any]) -> np.ndarray:
        """One worker's reduced segments, concatenated in the result dtype."""
        return np.concatenate(
            [np.asarray(self.value(p), dtype=self.dtype) for p in payloads]
        )

    def single(self, vector: Any) -> np.ndarray:
        """The one-worker result: nothing goes on the wire."""
        return np.asarray(vector, dtype=self.dtype).copy()


@dataclass(frozen=True)
class FloatCodec(_Codec):
    """Floats on the wire as ``wire_dtype``, accumulated in that dtype."""

    wire_dtype: np.dtype = np.dtype(np.float32)
    dtype = np.dtype(np.float64)


@dataclass(frozen=True)
class SignSumCodec(_Codec):
    """Integer partial sign sums with bit-length expansion.

    ``elias_coded`` charges each hop the exact Elias-gamma code of its
    zigzagged partial sums (the Section 5 "Elias coding" baseline) instead
    of the fixed width: shorter on average, still above one bit per element.
    """

    elias_coded: bool = False
    wire_dtype = dtype = np.dtype(np.int64)

    def encode(self, values: Any, contributors: int) -> SizedPayload:
        values = self.cast(values)
        if self.elias_coded and values.size:
            # A sum of m iid signs lives on {-m, -m+2, ..., m} with a
            # binomial peak at 0; re-index by half-steps from the mode so
            # the common values get the short gamma codes.
            half_steps = (values + contributors) // 2 - contributors // 2
            _, coded_bits = elias_gamma_encode(zigzag_encode(half_steps))
            nbytes = (coded_bits + 7) // 8
        else:
            bits = signed_int_bit_width(contributors)
            nbytes = (bits * int(values.size) + 7) // 8
        return SizedPayload(value=values, nbytes=nbytes)

    def value(self, payload: SizedPayload) -> np.ndarray:
        return payload.value


WireCodec = Union[FloatCodec, SignSumCodec]
SIGN_SUM = SignSumCodec()


def mean_of(sums: list[np.ndarray]) -> list[np.ndarray]:
    """Per-worker FP means from per-worker sums: each times ``1 / M``."""
    scale = 1.0 / len(sums)
    return [total * scale for total in sums]


def checked_signs(
    cluster: Cluster, sign_vectors: list[np.ndarray], charge_compression: bool
) -> list[np.ndarray]:
    """Every sign-sum collective's prologue: check ``{-1, +1}``, charge time."""
    for vector in sign_vectors:
        array = np.asarray(vector)
        if array.size and not ((array == -1) | (array == 1)).all():
            raise ValueError("sign vectors must be over {-1, +1}")
    if charge_compression:
        total = sum(int(np.asarray(v).size) for v in sign_vectors)
        cluster.charge(Phase.COMPRESSION, cluster.cost_model.compress_time(total))
    return sign_vectors


def signsum_collective(schedule):
    """``signsum(cluster, sign_vectors, charge_compression=True)`` over a
    sum ``schedule(cluster, vectors, codec=...)``."""

    def signsum(cluster, sign_vectors, charge_compression=True):
        signs = checked_signs(cluster, sign_vectors, charge_compression)
        return schedule(cluster, signs, codec=SIGN_SUM)

    return signsum
