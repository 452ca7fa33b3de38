"""Cascading compression: the Section 3.2 anti-pattern, faithfully built.

Each ring hop runs the paper's five-step sequence: **receive** a compressed
segment, **recover** it to full precision, **aggregate** with the local raw
segment, **compress** the sum again, **send**.  Two pathologies follow, both
of which this implementation reproduces:

1. *Time*: recover/compress cannot overlap reception (the received bits are
   needed first), so every hop serializes a decompress + compress on the
   critical path; charged to the compression phase (Figure 1a).
2. *Error*: each hop re-quantizes an already-quantized partial sum whose
   l2-norm keeps growing, so the deviation compounds per Theorem 3
   (``(2D)^M G^2 / M``) and the matching rate collapses (Figure 1b) —
   divergence at M = 8 in Table 1.

The walk is the ring's compiled SyncPlan with its reduce hops re-typed as
``cascade`` (:func:`repro.allreduce.codec.allreduce_sum`), so it moves
exactly the ring's messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.allreduce.codec import allreduce_sum, map_distinct
from repro.allreduce.ring import require_ring
from repro.comm.cluster import Cluster
from repro.comm.timing import Phase
from repro.compression.base import Compressor, Payload
from repro.sched.plan import ReduceOp

__all__ = ["cascading_ring_allreduce"]


@dataclass(frozen=True)
class _Cascade:
    """The cascade reduce op's per-hop codec: the sending worker compresses
    its partial sum with its own generator; receivers decode and add."""

    compressor: Compressor
    rngs: Sequence[np.random.Generator]
    op = ReduceOp(kind="cascade")

    def partial_dtype(self, num_workers: int) -> np.dtype:
        return np.dtype(np.float64)

    def encode(self, values: np.ndarray, contributors: int, rank: int) -> Payload:
        return self.compressor.compress(values, rng=self.rngs[rank])

    def value(self, payload: Payload) -> np.ndarray:
        return payload.decode()

    def finish(self, values: Sequence[np.ndarray]) -> np.ndarray:
        return np.concatenate(values)


def cascading_ring_allreduce(
    cluster: Cluster,
    vectors: list[np.ndarray],
    compressor: Compressor,
    rngs: Sequence[np.random.Generator],
    charge_time: bool = True,
) -> list[np.ndarray]:
    """Ring all-reduce with per-hop decompress -> add -> recompress.

    The ring's plan with cascade reduce hops: a worker compresses a
    segment when it first sends it, so every hop re-quantizes the running
    sum, and the gathered segments are the compressed ones.

    Args:
        cluster: ring-topology cluster.
        vectors: per-worker gradient vectors.
        compressor: the per-hop compressor ``Q`` (SSDM in the paper).
        rngs: one generator per worker for stochastic compression.
        charge_time: charge the serialized codec work to the timeline.

    Returns:
        Per-worker decoded aggregation results, **divided by M** (the mean
        estimate ``s_3`` of Appendix A).  All workers hold one shared
        read-only array.
    """
    num = cluster.num_workers
    if len(vectors) != num or len(rngs) != num:
        raise ValueError("need one vector and one rng per worker")
    if num == 1:
        return [np.asarray(vectors[0], dtype=np.float64).copy()]
    require_ring(cluster)
    results = allreduce_sum(cluster, vectors, _Cascade(compressor, rngs))
    if charge_time:
        # The first send's compression, then per reduce hop a decompress +
        # compress that cannot overlap reception, then the final decode.
        model = cluster.cost_model
        segment_elems = -(-int(np.asarray(vectors[0]).size) // num)
        per_hop = model.decompress_time(segment_elems) + model.compress_time(
            segment_elems
        )
        cluster.charge(Phase.COMPRESSION, model.compress_time(segment_elems))
        cluster.charge(Phase.COMPRESSION, (num - 1) * per_hop)
        cluster.charge(
            Phase.COMPRESSION, model.decompress_time(segment_elems * num)
        )
    return map_distinct(lambda result: result / num, results)
